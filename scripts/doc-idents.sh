#!/usr/bin/env bash
# Every backticked Rust-looking identifier in README.md, DESIGN.md,
# benchmark/README.md and the crate docs (`//!` lines of crates/*/src/lib.rs)
# must name something in non-test code: a word of the non-test part of a
# tracked `.rs` file (the lines before its test module, as
# `scripts/nontest-lines.sh --test-starts` finds it; `tests/` directories
# excluded). A name that only a test still mentions does not resolve.
#
# Rust-looking: a span that is an identifier or a `::` path, optionally
# ending in `()`, with an underscore, a `::`, the `()` or an upper-case
# first letter followed by lower case (`ComputeNode`, `key_traffic`,
# `Registry::counter`, `serve()`). A path is looked up by its last segment.
# Sections whose heading contains "history" (any case) are skipped up to
# the next heading of the same or a higher level, as are fenced code blocks.
#
#   scripts/doc-idents.sh    print each unresolved name as file:line: `name`
#                            and exit 1 if any is not allowlisted
#
# Run from the repository root. bash + git grep + awk only.
set -euo pipefail

# Names allowed to stay unresolved, as file:name. benchmark/README.md is
# edited only by the benchmark PR (ROADMAP item 1), which owns these.
allow="
benchmark/README.md:BrBackend
benchmark/README.md:ComputeNode
benchmark/README.md:LocalCluster
benchmark/README.md:auto_rotate
"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# 1. Backticked names in the docs, as file:line:name.
extract() { # $1 = source label; stdin = "line<TAB>text"
  awk -F'\t' -v src="$1" '
  /^[ \t]*```/ { fenced = !fenced; next }
  fenced { next }
  {
    text = $2
    if (match(text, /^#+ /)) {
      level = RLENGTH - 1
      if (skip && level <= skip_level) skip = 0
      if (!skip && tolower(text) ~ /history/) { skip = 1; skip_level = level }
      next
    }
    if (skip) next
    n = split(text, parts, "`")
    for (i = 2; i < n; i += 2) {
      s = parts[i]
      if (s !~ /^[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*(\(\))?$/) continue
      if (s !~ /_|::|\(\)$|^[A-Z][A-Za-z0-9]*[a-z]/) continue
      sub(/\(\)$/, "", s)
      k = split(s, seg, "::")
      print src ":" $1 ":" seg[k]
    }
  }'
}
for doc in README.md DESIGN.md benchmark/README.md; do
  awk '{ print NR "\t" $0 }' "$doc" | extract "$doc"
done >"$tmp/uses"
for lib in $(git ls-files 'crates/*/src/lib.rs'); do
  git grep -n -h '^//!' -- "$lib" | sed -E 's/^([0-9]+):\/\/! ?/\1\t/' | extract "$lib"
done >>"$tmp/uses"
cut -d: -f3 "$tmp/uses" | sort -u >"$tmp/names"

# 2. Where each tracked .rs file's test module starts.
git ls-files '*.rs' | bash scripts/nontest-lines.sh --test-starts >"$tmp/test_starts"

# 3. The names found in non-test code.
git grep -n -o -w -F -f "$tmp/names" -- '*.rs' ':!:tests/**' ':!:**/tests/**' |
  awk -v starts="$tmp/test_starts" '
  BEGIN { while ((getline l < starts) > 0) { split(l, p, " "); start[p[1]] = p[2] } }
  {
    split($0, f, ":")
    if (!(f[1] in start) || f[2] + 0 < start[f[1]] + 0) print f[3]
  }' | sort -u >"$tmp/found"

# 4. Report what did not resolve.
status=0
while IFS=: read -r file line name; do
  grep -qxF "$name" "$tmp/found" && continue
  if grep -qxF "$file:$name" <<<"$allow"; then
    echo "$file:$line: \`$name\` (allowlisted)"
  else
    echo "$file:$line: \`$name\` names nothing in the code"
    status=1
  fi
done <"$tmp/uses"
exit $status
