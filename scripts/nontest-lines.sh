#!/usr/bin/env bash
# Non-test size of every source file under crates/*/src: the lines before
# a file's test module, split into code / comment / blank, with per-crate
# totals. The test module is the first `#[cfg(test)]` that gates a `mod`;
# a `#[cfg(test)]` helper method mid-file (job.rs, queue.rs) does not end
# the count, or the non-test code after it would go unmeasured. This is
# the measure ROADMAP item 3 bounds ("no source file over ~800 lines") and
# the simplicity PRs quote.
#
#   scripts/nontest-lines.sh              print the table
#   scripts/nontest-lines.sh --check 800  ... and fail if a file's non-test
#                                         part exceeds 800 lines
#   ... | scripts/nontest-lines.sh --test-starts
#                                         for each file named on stdin that
#                                         has a test module, print "file N":
#                                         its non-test part is lines 1..N-1
#                                         (scripts/doc-idents.sh reads this)
#
# Run from the repository root. bash + awk + find only.
set -euo pipefail

limit=0
starts=0
case "${1:-}" in
  --check) limit="${2:?--check needs a line limit}" ;;
  --test-starts) starts=1 ;;
esac

# File allowed over the limit, with the ROADMAP item that owns it (none
# since simd.rs was split by lane type).
allow=""

if [ "$starts" = 1 ]; then cat; else find crates/*/src -name '*.rs' | LC_ALL=C sort; fi |
  awk -v limit="$limit" -v allow="$allow" -v starts="$starts" '
function classify(l) {
  total++
  if (l ~ /^[ \t]*$/) blank++
  else if (l ~ /^[ \t]*\/\//) comment++
  else code++
}
function flush_crate() {
  if (crate != "" && !starts)
    printf "%-44s %7d %7d %7d %7d\n", "  = " crate, c_total, c_code, c_comment, c_blank
  c_total = c_code = c_comment = c_blank = 0
}
BEGIN {
  if (!starts)
    printf "%-44s %7s %7s %7s %7s\n", "file", "nontest", "code", "comment", "blank"
}
{
  file = $0
  split(file, parts, "/")
  if (parts[2] != crate) { flush_crate(); crate = parts[2] }
  total = code = comment = blank = 0
  held = 0
  while ((getline line < file) > 0) {
    if (held) {
      held = 0
      if (line ~ /^[ \t]*(pub(\([a-z]+\))? )?mod /) {
        if (starts) print file, total + 1
        break
      }
      classify(cfg_line)
    }
    if (line ~ /^[ \t]*#\[cfg\(test\)\]/) { held = 1; cfg_line = line; continue }
    classify(line)
  }
  close(file)
  if (starts) next
  over = ""
  if (limit > 0 && total > limit) {
    if (file == allow) over = "  (over, allowlisted)"
    else { over = "  OVER " limit; failed = 1 }
  }
  printf "%-44s %7d %7d %7d %7d%s\n", file, total, code, comment, blank, over
  c_total += total; c_code += code; c_comment += comment; c_blank += blank
  g_total += total; g_code += code; g_comment += comment; g_blank += blank
}
END {
  if (starts) exit
  flush_crate()
  printf "%-44s %7d %7d %7d %7d\n", "= crates/*/src", g_total, g_code, g_comment, g_blank
  if (failed) {
    print "a file outside the allowlist exceeds " limit " non-test lines" > "/dev/stderr"
    exit 1
  }
}'
