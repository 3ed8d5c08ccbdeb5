//! Counters, gauges, fixed log-bucket histograms, and the registry.
//!
//! Recording is lock-free and allocation-free: every metric is a handful
//! of `AtomicU64`s behind an `Arc` handed out at registration time. The
//! registry itself is only touched at registration and snapshot time.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (queue depth, healthy-node count).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` counts values whose
/// floor(log2) is `i`, i.e. the range `[2^i, 2^(i+1))` (bucket 0 also
/// holds zero). 64 buckets cover the full `u64` range, so nanosecond
/// latencies from single digits to centuries land without configuration.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed log2-bucket histogram over `u64` samples.
///
/// `record` is one `fetch_add` on the bucket plus count/sum updates — no
/// locks, no allocation, no resizing. Quantiles are read from snapshots
/// and are upper bounds of the containing bucket (a factor-of-two
/// resolution, which is what a latency breakdown needs).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0u64; HISTOGRAM_BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket a value lands in: floor(log2(v)), with 0 → bucket 0.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (`2^(i+1) - 1`, saturating).
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // The running sum saturates rather than wrapping: `record_duration`
        // already clamps each sample to `u64::MAX`, and a wrapped total
        // would report a tiny mean after ~2^64 ns of accumulated latency.
        let mut cur = self.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(value);
            match self
                .sum
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Starts a span; the elapsed nanoseconds are recorded when the
    /// returned guard drops.
    pub fn time(&self) -> HistogramTimer<'_> {
        HistogramTimer {
            hist: self,
            start: Instant::now(),
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy (buckets are read
    /// individually; concurrent recording may skew count vs buckets by
    /// in-flight samples, which is inherent to lock-free snapshots).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Guard that records elapsed nanoseconds into its histogram on drop.
#[derive(Debug)]
pub struct HistogramTimer<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl Drop for HistogramTimer<'_> {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Per-bucket sample counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// An upper bound on the `q`-quantile (`0.0 ..= 1.0`): the inclusive
    /// upper edge of the bucket containing the q-th sample. Zero when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// The `q`-quantile, or `None` when the histogram is empty. Summary
    /// emitters must use this (and print `null`/omit) rather than
    /// [`HistogramSnapshot::quantile`]: a numeric stand-in for "no
    /// samples" reads as a real latency in dashboards and benches.
    pub fn try_quantile(&self, q: f64) -> Option<u64> {
        (self.count > 0).then(|| self.quantile(q))
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The samples recorded since `earlier` (bucket-wise saturating
    /// difference) — how benches attribute histogram activity to one
    /// measured region.
    pub fn since(&self, earlier: &Self) -> Self {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (i, out) in buckets.iter_mut().enumerate() {
            *out = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        Self {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets,
        }
    }
}

/// A registered metric handle.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A metric type the registry stores: one per [`Metric`] variant.
trait Kind: Default {
    fn wrap(handle: Arc<Self>) -> Metric;
    fn unwrap(metric: &Metric) -> Option<&Arc<Self>>;
}

macro_rules! kinds {
    ($($kind:ident),*) => {$(
        impl Kind for $kind {
            fn wrap(handle: Arc<Self>) -> Metric {
                Metric::$kind(handle)
            }
            fn unwrap(metric: &Metric) -> Option<&Arc<Self>> {
                match metric {
                    Metric::$kind(handle) => Some(handle),
                    _ => None,
                }
            }
        }
    )*};
}
kinds!(Counter, Gauge, Histogram);

/// Whether a registered label list is exactly `labels`, in order.
fn same_labels(registered: &[(String, String)], labels: &[(&str, &str)]) -> bool {
    registered.len() == labels.len()
        && registered
            .iter()
            .zip(labels)
            .all(|(a, b)| a.0 == b.0 && a.1 == b.1)
}

#[derive(Debug)]
struct Entry {
    name: String,
    help: String,
    /// Label pairs distinguishing series that share a name (empty for
    /// plain metrics). Order is significant: `{layer="crc"}` registered
    /// as `[("layer","crc")]` is one series, keyed by exactly that list.
    labels: Vec<(String, String)>,
    metric: Metric,
}

/// Names metrics and hands out recording handles.
///
/// Registration (get-or-create by name) takes the registry lock and may
/// allocate; the returned `Arc` handles record without ever touching the
/// registry again. Metric names must match the Prometheus grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
#[derive(Debug)]
pub struct Registry {
    /// A short label for the component this registry covers (rendered
    /// into JSON snapshots, e.g. `"service"`, `"node"`).
    scope: String,
    entries: Mutex<Vec<Entry>>,
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl Registry {
    /// An empty registry scoped under `scope`.
    pub fn new(scope: &str) -> Self {
        Self {
            scope: scope.to_string(),
            entries: Mutex::new(Vec::new()),
        }
    }

    /// The component label given at construction.
    pub fn scope(&self) -> &str {
        &self.scope
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Entry>> {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Get-or-create the `T` series `(name, labels)`.
    fn register<T: Kind>(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<T> {
        assert!(valid_metric_name(name), "invalid metric name '{name}'");
        for (k, _) in labels {
            assert!(valid_metric_name(k), "invalid label name '{k}'");
        }
        let mut entries = self.lock();
        for e in entries.iter().filter(|e| e.name == name) {
            // Every series under one name must share a type (Prometheus
            // exposition rule), whether or not the labels match.
            let handle = T::unwrap(&e.metric)
                .unwrap_or_else(|| panic!("metric '{name}' registered with a different type"));
            if same_labels(&e.labels, labels) {
                return Arc::clone(handle);
            }
        }
        let handle = Arc::new(T::default());
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            metric: T::wrap(Arc::clone(&handle)),
        });
        handle
    }

    /// Get-or-create a counter.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or if `name` names a non-counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.register(name, help, &[])
    }

    /// Get-or-create one labeled series of a counter family, keyed by
    /// `(name, labels)`. All series under one name must be counters and
    /// should share `help` (the first registration's help text wins in
    /// exposition). An empty label list is the plain [`Registry::counter`].
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric/label name or if `name` already names
    /// a non-counter.
    pub fn labeled_counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.register(name, help, labels)
    }

    /// Get-or-create a gauge.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or if `name` names a non-gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.register(name, help, &[])
    }

    /// Get-or-create a histogram.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or if `name` names a non-histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.register(name, help, &[])
    }

    /// Point-in-time values of every registered metric, in registration
    /// order.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.lock();
        Snapshot {
            scope: self.scope.clone(),
            entries: entries
                .iter()
                .map(|e| SnapshotEntry {
                    name: e.name.clone(),
                    help: e.help.clone(),
                    labels: e.labels.clone(),
                    value: match &e.metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                    },
                })
                .collect(),
        }
    }
}

/// One metric's value inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram copy (boxed: 64 buckets dwarf the scalar variants).
    Histogram(Box<HistogramSnapshot>),
}

/// A named metric inside a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct SnapshotEntry {
    /// Metric name (Prometheus grammar).
    pub name: String,
    /// Help text.
    pub help: String,
    /// Label pairs (empty for plain metrics), in registration order.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// Point-in-time copy of a whole [`Registry`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The source registry's scope label.
    pub scope: String,
    /// All metrics, in registration order.
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// The value of the series with exactly `(name, labels)`, if present.
    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let mut series = self.entries.iter();
        let entry = series.find(|e| e.name == name && same_labels(&e.labels, labels))?;
        Some(&entry.value)
    }

    /// The named *unlabeled* counter's value, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.labeled_counter(name, &[])
    }

    /// The counter series with exactly `(name, labels)`, if present.
    pub fn labeled_counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The named gauge's value, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.find(name, &[])? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The named histogram's snapshot, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.find(name, &[])? {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    /// Two near-MAX samples: the sum must pin at `u64::MAX`, not wrap to a
    /// small value that would make the mean nonsensical.
    #[test]
    fn histogram_sum_saturates_instead_of_wrapping() {
        let h = Histogram::default();
        h.record(u64::MAX - 1);
        h.record(u64::MAX - 1);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.sum, u64::MAX);
        // Further samples keep it pinned.
        h.record(12345);
        assert_eq!(h.snapshot().sum, u64::MAX);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.buckets[0], 2); // 0 and 1
        assert_eq!(s.buckets[1], 2); // 2 and 3
        assert_eq!(s.buckets[2], 1); // 4
        assert_eq!(s.buckets[9], 1); // 512..1024 holds 1023; 1024 is bucket 10
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.buckets[63], 1);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(100); // bucket 6: [64, 128)
        }
        h.record(1_000_000); // bucket 19
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 127);
        assert_eq!(s.quantile(0.99), 127);
        assert_eq!(s.quantile(1.0), (1 << 20) - 1);
        assert_eq!(HistogramSnapshot::default_empty().quantile(0.5), 0);
        assert_eq!(s.try_quantile(0.5), Some(127));
        assert_eq!(
            HistogramSnapshot::default_empty().try_quantile(0.5),
            None,
            "empty histograms must not fabricate a quantile"
        );
    }

    impl HistogramSnapshot {
        fn default_empty() -> Self {
            Self {
                count: 0,
                sum: 0,
                buckets: [0; HISTOGRAM_BUCKETS],
            }
        }
    }

    #[test]
    fn snapshot_delta_isolates_a_region() {
        let h = Histogram::default();
        h.record(10);
        let before = h.snapshot();
        h.record(1000);
        h.record(1001);
        let delta = h.snapshot().since(&before);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 2001);
        assert_eq!(delta.buckets[9], 2);
        assert_eq!(delta.buckets[3], 0);
    }

    #[test]
    fn timer_records_on_drop() {
        let h = Histogram::default();
        {
            let _t = h.time();
            std::thread::sleep(Duration::from_millis(1));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert!(s.sum >= 1_000_000, "recorded {} ns", s.sum);
    }

    #[test]
    fn registry_get_or_create_returns_same_handle() {
        let r = Registry::new("test");
        let a = r.counter("x_total", "x");
        let b = r.counter("x_total", "x");
        a.inc();
        b.inc();
        assert_eq!(r.snapshot().counter("x_total"), Some(2));
        assert_eq!(r.snapshot().counter("missing"), None);
    }

    #[test]
    fn labeled_counters_are_distinct_series() {
        let r = Registry::new("test");
        let crc = r.labeled_counter("det_total", "detections", &[("layer", "crc")]);
        let attest = r.labeled_counter("det_total", "detections", &[("layer", "attest")]);
        let crc_again = r.labeled_counter("det_total", "detections", &[("layer", "crc")]);
        assert!(Arc::ptr_eq(&crc, &crc_again));
        assert!(!Arc::ptr_eq(&crc, &attest));
        crc.add(2);
        attest.inc();
        let s = r.snapshot();
        assert_eq!(s.labeled_counter("det_total", &[("layer", "crc")]), Some(2));
        assert_eq!(
            s.labeled_counter("det_total", &[("layer", "attest")]),
            Some(1)
        );
        assert_eq!(s.labeled_counter("det_total", &[("layer", "audit")]), None);
        assert_eq!(s.counter("det_total"), None, "no unlabeled series exists");
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn labeled_series_share_the_name_type() {
        let r = Registry::new("test");
        r.labeled_counter("m", "", &[("layer", "crc")]);
        r.gauge("m", "");
    }

    #[test]
    #[should_panic(expected = "invalid label name")]
    fn registry_rejects_bad_label_names() {
        Registry::new("test").labeled_counter("ok_total", "", &[("9bad", "v")]);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn registry_rejects_type_mismatch() {
        let r = Registry::new("test");
        r.counter("m", "");
        r.histogram("m", "");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn registry_rejects_bad_names() {
        Registry::new("test").counter("9starts-with-digit", "");
    }

    #[test]
    fn snapshot_lookup_by_kind() {
        let r = Registry::new("test");
        r.gauge("depth", "queue depth").set(-2);
        r.histogram("lat_ns", "latency").record(5);
        let s = r.snapshot();
        assert_eq!(s.gauge("depth"), Some(-2));
        assert_eq!(s.histogram("lat_ns").unwrap().count, 1);
        assert_eq!(s.counter("depth"), None, "kind-checked lookup");
    }
}
