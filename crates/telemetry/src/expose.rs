//! Snapshot exposition: Prometheus text format, hand-rolled JSON, and a
//! tiny `std::net` HTTP listener serving both.
//!
//! No serde, no HTTP library — the environment is offline and the
//! surface is two fixed GET routes, so a hand-written responder keeps
//! the dependency set empty.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::events::EventLog;
use crate::metrics::{bucket_upper_bound, MetricValue, Registry, Snapshot, HISTOGRAM_BUCKETS};

/// Collects registries (and optionally an event log) and renders their
/// snapshots as Prometheus text format or JSON.
#[derive(Debug, Default, Clone)]
pub struct Exposition {
    registries: Vec<Arc<Registry>>,
    events: Option<Arc<EventLog>>,
}

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a registry (builder style).
    pub fn with_registry(mut self, registry: &Arc<Registry>) -> Self {
        self.registries.push(Arc::clone(registry));
        self
    }

    /// Attaches an event log; its retained events appear in the JSON
    /// rendering and as a `heap_events_total` counter in Prometheus text.
    pub fn with_events(mut self, events: &Arc<EventLog>) -> Self {
        self.events = Some(Arc::clone(events));
        self
    }

    fn snapshots(&self) -> Vec<Snapshot> {
        self.registries.iter().map(|r| r.snapshot()).collect()
    }

    /// Renders every registry in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` lines, plain samples for
    /// counters and gauges, and cumulative `_bucket{le="..."}` series
    /// plus `_sum` / `_count` for histograms. Empty log2 buckets are
    /// skipped (the series stays cumulative, so scrapers interpolate
    /// correctly) to keep 64-bucket histograms readable.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for snap in self.snapshots() {
            // HELP/TYPE describe a metric *family*: emit them once per
            // name even when several labeled series share it.
            let mut described: Vec<String> = Vec::new();
            for entry in &snap.entries {
                if !described.contains(&entry.name) {
                    described.push(entry.name.clone());
                    if !entry.help.is_empty() {
                        let _ = writeln!(out, "# HELP {} {}", entry.name, entry.help);
                    }
                    let _ = writeln!(out, "# TYPE {} {}", entry.name, kind(&entry.value));
                }
                let labels = prom_labels(&entry.labels);
                match &entry.value {
                    MetricValue::Counter(v) => {
                        let _ = writeln!(out, "{}{} {}", entry.name, labels, v);
                    }
                    MetricValue::Gauge(v) => {
                        let _ = writeln!(out, "{}{} {}", entry.name, labels, v);
                    }
                    MetricValue::Histogram(h) => {
                        // Bucket series merge the entry's labels with `le`.
                        let le_prefix = if entry.labels.is_empty() {
                            String::new()
                        } else {
                            let inner = labels.trim_start_matches('{').trim_end_matches('}');
                            format!("{inner},")
                        };
                        let mut cumulative = 0u64;
                        for i in 0..HISTOGRAM_BUCKETS {
                            if h.buckets[i] == 0 {
                                continue;
                            }
                            cumulative += h.buckets[i];
                            let _ = writeln!(
                                out,
                                "{}_bucket{{{}le=\"{}\"}} {}",
                                entry.name,
                                le_prefix,
                                bucket_upper_bound(i),
                                cumulative
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_bucket{{{}le=\"+Inf\"}} {}",
                            entry.name, le_prefix, h.count
                        );
                        let _ = writeln!(out, "{}_sum{} {}", entry.name, labels, h.sum);
                        let _ = writeln!(out, "{}_count{} {}", entry.name, labels, h.count);
                    }
                }
            }
        }
        if let Some(events) = &self.events {
            let _ = writeln!(out, "# HELP heap_events_total structured events recorded");
            let _ = writeln!(out, "# TYPE heap_events_total counter");
            let _ = writeln!(out, "heap_events_total {}", events.total());
        }
        out
    }

    /// Renders every registry (and retained events) as a JSON document:
    /// `{"registries": [{"scope": ..., "metrics": [...]}], "events": [...]}`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"registries\":[");
        for (ri, snap) in self.snapshots().iter().enumerate() {
            if ri > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"scope\":{},\"metrics\":[", json_str(&snap.scope));
            for (mi, entry) in snap.entries.iter().enumerate() {
                if mi > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"name\":{},\"help\":{},",
                    json_str(&entry.name),
                    json_str(&entry.help)
                );
                if !entry.labels.is_empty() {
                    out.push_str("\"labels\":{");
                    for (li, (k, v)) in entry.labels.iter().enumerate() {
                        if li > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{}:{}", json_str(k), json_str(v));
                    }
                    out.push_str("},");
                }
                let _ = write!(out, "\"type\":\"{}\",", kind(&entry.value));
                match &entry.value {
                    MetricValue::Counter(v) => {
                        let _ = write!(out, "\"value\":{v}}}");
                    }
                    MetricValue::Gauge(v) => {
                        let _ = write!(out, "\"value\":{v}}}");
                    }
                    MetricValue::Histogram(h) => {
                        // `p50` is `null` (not a sentinel number) when no
                        // samples were recorded.
                        let p50 = h
                            .try_quantile(0.5)
                            .map_or_else(|| "null".to_string(), |v| v.to_string());
                        let _ = write!(
                            out,
                            "\"count\":{},\"sum\":{},\"p50\":{},\"buckets\":[",
                            h.count, h.sum, p50
                        );
                        let mut first = true;
                        for i in 0..HISTOGRAM_BUCKETS {
                            if h.buckets[i] == 0 {
                                continue;
                            }
                            if !first {
                                out.push(',');
                            }
                            first = false;
                            let _ = write!(
                                out,
                                "{{\"le\":{},\"count\":{}}}",
                                bucket_upper_bound(i),
                                h.buckets[i]
                            );
                        }
                        out.push_str("]}");
                    }
                }
            }
            out.push_str("]}");
        }
        out.push(']');
        if let Some(events) = &self.events {
            out.push_str(",\"events\":[");
            for (i, e) in events.recent().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"seq\":{},\"kind\":{},\"subject\":{},\"detail\":{}}}",
                    e.seq,
                    json_str(&e.kind),
                    json_str(&e.subject),
                    json_str(&e.detail)
                );
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

/// The Prometheus (and JSON) type name of a metric.
fn kind(value: &MetricValue) -> &'static str {
    match value {
        MetricValue::Counter(_) => "counter",
        MetricValue::Gauge(_) => "gauge",
        MetricValue::Histogram(_) => "histogram",
    }
}

/// Renders a label set as `{k="v",...}` with Prometheus value escaping
/// (backslash, double quote, newline), or `""` when there are no labels.
fn prom_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let escaped = v
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n");
        let _ = write!(out, "{k}=\"{escaped}\"");
    }
    out.push('}');
    out
}

/// JSON string literal with the escapes required by RFC 8259.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A minimal HTTP/1.1 metrics endpoint over `std::net`.
///
/// Serves `GET /metrics` (Prometheus text format) and `GET /metrics.json`
/// (JSON snapshot); anything else gets 404. One thread accepts, each
/// connection is handled inline (scrapes are short), `Connection: close`
/// on every response.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept thread.
    pub fn serve(addr: &str, exposition: Exposition) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("heap-metrics".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        let _ = handle_scrape(stream, &exposition);
                    }
                }
            })?;
        Ok(Self {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn handle_scrape(stream: TcpStream, exposition: &Exposition) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers until the blank line; we only route on the request line.
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, content_type, body) = match (method, path) {
        ("GET", "/metrics") => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            exposition.render_prometheus(),
        ),
        ("GET", "/metrics.json") => ("200 OK", "application/json", exposition.render_json()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    };
    let mut stream = reader.into_inner();
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn demo_exposition() -> (Exposition, Arc<Registry>, Arc<EventLog>) {
        let registry = Arc::new(Registry::new("demo"));
        let events = Arc::new(EventLog::new(8));
        registry.counter("demo_total", "things").add(3);
        registry.gauge("demo_depth", "queue depth").set(-1);
        let h = registry.histogram("demo_lat_ns", "latency");
        h.record(100);
        h.record(5000);
        events.record("retry", "node-0", "attempt \"1\"");
        let expo = Exposition::new()
            .with_registry(&registry)
            .with_events(&events);
        (expo, registry, events)
    }

    #[test]
    fn prometheus_text_has_all_series() {
        let (expo, _r, _e) = demo_exposition();
        let text = expo.render_prometheus();
        assert!(text.contains("# TYPE demo_total counter"));
        assert!(text.contains("demo_total 3"));
        assert!(text.contains("demo_depth -1"));
        // 100 -> bucket 6 (le=127), 5000 -> bucket 12 (le=8191); cumulative.
        assert!(text.contains("demo_lat_ns_bucket{le=\"127\"} 1"));
        assert!(text.contains("demo_lat_ns_bucket{le=\"8191\"} 2"));
        assert!(text.contains("demo_lat_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("demo_lat_ns_sum 5100"));
        assert!(text.contains("demo_lat_ns_count 2"));
        assert!(text.contains("heap_events_total 1"));
    }

    #[test]
    fn json_escapes_and_structures() {
        let (expo, _r, _e) = demo_exposition();
        let json = expo.render_json();
        assert!(json.starts_with("{\"registries\":["));
        assert!(json.contains("\"scope\":\"demo\""));
        assert!(json.contains(
            "\"name\":\"demo_total\",\"help\":\"things\",\"type\":\"counter\",\"value\":3"
        ));
        assert!(json.contains("\"type\":\"gauge\",\"value\":-1"));
        // 100 and 5000 recorded; p50 is the le=127 bucket bound.
        assert!(json.contains("\"count\":2,\"sum\":5100,\"p50\":127"));
        assert!(json.contains("\"detail\":\"attempt \\\"1\\\"\""));
        assert!(json.ends_with("}"));
    }

    #[test]
    fn labeled_counters_render_as_one_family() {
        let registry = Arc::new(Registry::new("lab"));
        registry
            .labeled_counter("det_total", "detections by layer", &[("layer", "crc")])
            .add(3);
        registry
            .labeled_counter("det_total", "detections by layer", &[("layer", "attest")])
            .inc();
        let expo = Exposition::new().with_registry(&registry);

        let text = expo.render_prometheus();
        assert!(text.contains("det_total{layer=\"crc\"} 3"), "{text}");
        assert!(text.contains("det_total{layer=\"attest\"} 1"), "{text}");
        assert_eq!(
            text.matches("# TYPE det_total counter").count(),
            1,
            "HELP/TYPE must appear once per family: {text}"
        );
        assert_eq!(text.matches("# HELP det_total").count(), 1, "{text}");

        let json = expo.render_json();
        assert!(
            json.contains("\"labels\":{\"layer\":\"crc\"},\"type\":\"counter\",\"value\":3"),
            "{json}"
        );
    }

    #[test]
    fn empty_histogram_renders_null_p50_not_a_sentinel() {
        // Regression: an empty histogram must expose `p50: null`, never
        // a bucket-bound stand-in that reads as a real latency.
        let registry = Arc::new(Registry::new("empty"));
        registry.histogram("never_recorded_ns", "no samples");
        let json = Exposition::new().with_registry(&registry).render_json();
        assert!(
            json.contains("\"count\":0,\"sum\":0,\"p50\":null"),
            "{json}"
        );
    }

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn server_serves_both_routes_and_404() {
        let (expo, registry, _e) = demo_exposition();
        let mut server = MetricsServer::serve("127.0.0.1:0", expo).unwrap();
        let addr = server.addr();

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"));
        assert!(body.contains("demo_total 3"));

        registry.counter("demo_total", "things").inc();
        let (_, body) = http_get(addr, "/metrics.json");
        assert!(body.contains("\"value\":4"), "scrapes are live: {body}");

        let (head, _) = http_get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        server.stop();
    }
}
