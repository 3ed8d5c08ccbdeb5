//! Spans recorded by the benchmark around its calls into the library, and
//! the budget tree built from them.
//!
//! Spans live in a vector allocated before the timed region and are
//! written out once, when the run ends. A span names the span that caused
//! it (`parent`) and the job it belongs to, so one job's time can be
//! followed across the benchmark's threads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = u32;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // Every update is a push or a single field store, so the vector is
        // valid even if a recording thread panicked.
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records a finished span.
    pub fn record(
        &self,
        name: &'static str,
        job: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let mut spans = self.lock();
        spans.push(Span {
            name,
            job,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        (spans.len() - 1) as SpanId
    }

    /// Opens a span now; [`Tracer::end`] closes it.
    pub fn begin(&self, name: &'static str, job: u64, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, job, parent, now, now)
    }

    pub fn end(&self, id: SpanId) {
        let now = self.ns(Instant::now());
        self.lock()[id as usize].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &self,
        name: &'static str,
        job: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.begin(name, job, parent);
        let out = f(id);
        self.end(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// The spans as a JSON array of `{name, job, parent, start_ns, end_ns}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        let spans = self.lock();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"name\": \"{}\", \"job\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.job, parent, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

/// A span's duration minus the part of its interval that its children
/// cover. Children may overlap each other (two shards in flight at once)
/// and may overhang the parent; covered time is counted once and only
/// inside the parent.
pub fn self_time_ns(parent: &Span, children: &[Span]) -> u64 {
    let mut cover: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    cover.sort_unstable();
    let mut covered = 0u64;
    let mut reach = parent.start_ns;
    for (s, e) in cover {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    parent.duration_ns() - covered
}

/// One row of the budget tree: every span with the same chain of names
/// from the root, summed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Node {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Start of the earliest such span: orders siblings as they ran.
    pub first_ns: u64,
}

/// Spans grouped by their name path (`job/core.finish/...`).
pub fn budget(spans: &[Span]) -> BTreeMap<String, Node> {
    let mut children: Vec<Vec<Span>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push(*s);
        }
    }
    let mut paths: Vec<String> = Vec::with_capacity(spans.len());
    for s in spans {
        // A parent is always recorded before its children, so its path is
        // already known.
        let path = match s.parent {
            Some(p) => format!("{}/{}", paths[p as usize], s.name),
            None => s.name.to_string(),
        };
        paths.push(path);
    }
    let mut tree: BTreeMap<String, Node> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let node = tree.entry(paths[i].clone()).or_insert(Node {
            first_ns: u64::MAX,
            ..Node::default()
        });
        node.calls += 1;
        node.total_ns += s.duration_ns();
        node.self_ns += self_time_ns(s, &children[i]);
        node.first_ns = node.first_ns.min(s.start_ns);
    }
    tree
}

/// A unit cost counted below a leaf span: the library is not instrumented,
/// so what happens inside a stage is explained as `count × unit`.
pub struct Explained {
    pub name: &'static str,
    pub count: f64,
    pub unit_us: f64,
}

/// Renders the tree depth-first, siblings in the order they first ran,
/// times as mean per root span.
///
/// Every node with children gets an `.other` row holding its self time,
/// so the rows under a node add up to the node. `explained` hangs
/// `count × unit` rows (and their remainder) under the named leaf paths.
pub fn render(
    tree: &BTreeMap<String, Node>,
    root: &str,
    explained: &[(String, Vec<Explained>)],
) -> String {
    let mut out = String::new();
    let Some(root_node) = tree.get(root) else {
        return out;
    };
    let jobs = root_node.calls.max(1) as f64;
    let root_ms = root_node.total_ns as f64 / 1e6 / jobs;
    let _ = writeln!(
        out,
        "{:<58} {:>9} {:>11} {:>7}",
        "span (mean per job)", "calls/job", "ms/job", "share"
    );
    let view = View {
        tree,
        explained,
        jobs,
        root_ms,
    };
    view.node(&mut out, root, 0);
    out
}

struct View<'a> {
    tree: &'a BTreeMap<String, Node>,
    explained: &'a [(String, Vec<Explained>)],
    jobs: f64,
    root_ms: f64,
}

impl View<'_> {
    fn row(&self, out: &mut String, depth: usize, label: &str, calls: f64, ms: f64) {
        let _ = writeln!(
            out,
            "{:<58} {:>9.2} {:>11.4} {:>6.1}%",
            format!("{}{}", "  ".repeat(depth), label),
            calls,
            ms,
            100.0 * ms / self.root_ms
        );
    }

    fn node(&self, out: &mut String, path: &str, depth: usize) {
        let node = &self.tree[path];
        let name = path.rsplit('/').next().expect("non-empty path");
        let calls = node.calls as f64 / self.jobs;
        let ms = node.total_ns as f64 / 1e6 / self.jobs;
        self.row(out, depth, name, calls, ms);
        let prefix = format!("{path}/");
        let mut kids: Vec<&String> = self
            .tree
            .keys()
            .filter(|k| {
                k.strip_prefix(&prefix)
                    .is_some_and(|rest| !rest.contains('/'))
            })
            .collect();
        if !kids.is_empty() {
            kids.sort_by_key(|k| self.tree[*k].first_ns);
            for k in kids {
                self.node(out, k, depth + 1);
            }
            let other = node.self_ns as f64 / 1e6 / self.jobs;
            self.row(out, depth + 1, &format!("{name}.other"), calls, other);
        } else if let Some((_, units)) = self.explained.iter().find(|(p, _)| p == path) {
            let mut rest = ms;
            for u in units {
                let unit_ms = u.count * u.unit_us / 1e3;
                rest -= unit_ms;
                let label = format!("{} = {:.0} x {:.3} us", u.name, u.count, u.unit_us);
                self.row(out, depth + 1, &label, u.count, unit_ms);
            }
            self.row(out, depth + 1, &format!("{name}.other"), calls, rest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            job: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let parent = span("p", None, 100, 200);
        // Two overlapping children cover [110, 150]; a third covers
        // [180, 200] of its [180, 230]; one lies wholly outside.
        let kids = [
            span("a", Some(0), 110, 140),
            span("b", Some(0), 120, 150),
            span("c", Some(0), 180, 230),
            span("d", Some(0), 300, 400),
        ];
        assert_eq!(self_time_ns(&parent, &kids), 100 - 40 - 20);
        assert_eq!(self_time_ns(&parent, &[]), 100);
    }

    #[test]
    fn budget_groups_by_name_path_and_children_sum_to_the_parent() {
        let spans = vec![
            span("job", None, 0, 100),
            span("prep", Some(0), 0, 30),
            span("rotate", Some(0), 30, 90),
            span("job", None, 200, 320),
            span("prep", Some(3), 200, 240),
            span("rotate", Some(3), 240, 300),
        ];
        let tree = budget(&spans);
        let job = &tree["job"];
        assert_eq!((job.calls, job.total_ns, job.self_ns), (2, 220, 30));
        let kids = tree["job/prep"].total_ns + tree["job/rotate"].total_ns;
        assert_eq!(kids + job.self_ns, job.total_ns);
        let text = render(&tree, "job", &[]);
        assert!(text.contains("job.other"), "{text}");
        assert!(text.contains("rotate"), "{text}");
    }

    #[test]
    fn tracer_records_nested_scopes() {
        let t = Tracer::new(8);
        t.scope("outer", 7, None, |outer| {
            t.scope("inner", 7, Some(outer), |_| {});
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(t
            .to_json()
            .contains("\"name\": \"inner\", \"job\": 7, \"parent\": 0"));
    }
}
