//! Multi-process metrics for a session-serving node: a real
//! `heap-node-serve --session-addr --metrics-addr` process runs one job
//! submitted over a multiplexed session, and its `/metrics` endpoint must
//! show that job in the in-process service's counters and the session
//! server's families, beside the node's own registries, with every metric
//! family described once.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use heap_runtime::{
    insecure_deterministic_setup, JobOutput, JobRequest, ParamPreset, SessionClient, SubmitOptions,
};

const SEED: u64 = 83;

/// A `heap-node-serve` child killed on drop.
struct ServerProc {
    child: Child,
    sessions: String,
    metrics: String,
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns a session-serving node with a metrics endpoint and waits for its
/// `SESSIONS` and `METRICS` lines.
fn spawn() -> ServerProc {
    let mut child = Command::new(env!("CARGO_BIN_EXE_heap-node-serve"))
        .args(["--addr", "127.0.0.1:0", "--session-addr", "127.0.0.1:0"])
        .args(["--metrics-addr", "127.0.0.1:0", "--preset", "tiny"])
        .args(["--insecure-seed", &SEED.to_string(), "--threads", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn heap-node-serve");
    let stdout = child.stdout.take().expect("child stdout");
    let (mut sessions, mut metrics) = (None, None);
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("child stdout line");
        if let Some(addr) = line.strip_prefix("SESSIONS ") {
            sessions = Some(addr.to_string());
        } else if let Some(addr) = line.strip_prefix("METRICS ") {
            metrics = Some(addr.to_string());
        }
        if sessions.is_some() && metrics.is_some() {
            break;
        }
    }
    ServerProc {
        child,
        sessions: sessions.expect("server printed SESSIONS"),
        metrics: metrics.expect("server printed METRICS"),
    }
}

/// The body of `GET /metrics`.
fn scrape(addr: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n").expect("request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    body.to_string()
}

#[test]
fn session_jobs_and_session_series_appear_on_the_metrics_endpoint() {
    let setup = insecure_deterministic_setup(ParamPreset::Tiny, SEED);
    let server = spawn();
    let delta = setup.ctx.fresh_scale();
    let coeffs: Vec<i64> = (0..setup.ctx.n())
        .map(|i| (((i % 5) as f64 - 2.0) / 40.0 * delta).round() as i64)
        .collect();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
    let ct = setup
        .ctx
        .encrypt_coeffs_sk(&coeffs, delta, 1, &setup.sk, &mut rng);
    let lwes = setup.boot.modulus_switch(
        &setup.ctx,
        &setup.boot.extract_lwes(&setup.ctx, &ct, &[0, 1]),
    );
    let client = SessionClient::connect(server.sessions.as_str(), &setup.ctx).expect("connect");
    let job = client
        .submit(&JobRequest::BlindRotate { lwes }, SubmitOptions::default())
        .expect("submit");
    let output = job.wait().expect("the session job completes");
    assert!(matches!(output, JobOutput::Accumulators(ref accs) if accs.len() == 2));

    let body = scrape(&server.metrics);
    let mut families = HashSet::new();
    for line in body.lines() {
        if let Some(family) = line.strip_prefix("# TYPE ") {
            let name = family.split_whitespace().next().expect("family name");
            assert!(families.insert(name.to_string()), "# TYPE {name} twice");
        }
    }
    let sample = |name: &str| -> f64 {
        body.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no {name} sample in:\n{body}"))
    };
    assert!(sample("heap_jobs_completed_total") >= 1.0);
    assert!(sample("heap_session_jobs_total") >= 1.0);
    assert!(families.iter().any(|f| f.starts_with("heap_session_")));
    // The node's own registries are still there.
    assert!(families.contains("heap_node_requests_total"));
    assert!(families.iter().any(|f| f.starts_with("heap_stage_")));
}
