//! Observability primitives for the HEAP runtime.
//!
//! The paper's evaluation (Tables 3/4) is a per-stage latency breakdown
//! of Algorithm 2 — ModSwitch → Extract → parallel BlindRotate → Repack —
//! and this crate provides the measurement layer that makes the same
//! breakdown observable in the running service:
//!
//! - [`Counter`], [`Gauge`], and [`Histogram`] are plain atomics;
//!   recording on the hot path performs **zero allocations** (proven by
//!   `tests/alloc_free.rs` with a counting global allocator) and never
//!   takes a lock.
//! - [`Histogram`] uses fixed power-of-two ("log2") buckets over `u64`
//!   values, so a nanosecond-resolution latency histogram costs 64
//!   atomic slots and one `fetch_add` per sample — no dynamic bucket
//!   allocation, no reservoir.
//! - [`Registry`] names metrics and hands out `Arc` handles; registration
//!   allocates (once, at setup), recording does not.
//! - [`metric_table!`] is how every component declares its metrics: one
//!   row per series, from which the handle struct and its registration
//!   are generated.
//! - [`EventLog`] is a bounded ring of structured events (breaker
//!   transitions, retries, readmissions) for the fault layer — off the
//!   hot path, so events may allocate.
//! - [`Exposition`] renders any set of registries as Prometheus text
//!   format or JSON and serves both over a tiny `std::net` HTTP listener
//!   (`GET /metrics`, `GET /metrics.json`).
//!
//! ```
//! use heap_telemetry::{metric_table, Exposition};
//!
//! metric_table! {
//!     /// A component's metrics, in a registry of their own.
//!     pub struct Demo in "demo";
//!     requests: Counter "demo_requests_total", "requests served";
//!     latency: Histogram "demo_latency_ns", "request latency";
//! }
//! let demo = Demo::new();
//! {
//!     let _span = demo.latency.time(); // records elapsed nanos on drop
//!     demo.requests.inc();
//! }
//! let text = Exposition::new().with_registry(demo.registry()).render_prometheus();
//! assert!(text.contains("demo_requests_total 1"));
//! ```

mod events;
mod expose;
mod metrics;
mod table;

pub use events::{Event, EventLog};
pub use expose::{Exposition, MetricsServer};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, HistogramTimer, MetricValue, Registry, Snapshot,
    SnapshotEntry, HISTOGRAM_BUCKETS,
};
