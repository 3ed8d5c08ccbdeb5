//! `heap-node-serve` — run one secondary compute node as a process.
//!
//! ```text
//! heap-node-serve --addr 127.0.0.1:7001 --preset tiny
//! ```
//!
//! By default the node starts *keyless*: it holds no key material at all
//! and serves whatever evaluation keys clients distribute over the wire
//! (`KeyOffer`/`KeyUpload` frames, cached by content id in a
//! byte-budgeted LRU — see `heap_runtime::NodeKeyStore`). The node never
//! sees a secret key. Once the socket is bound it prints
//! `LISTENING <addr>` on stdout, which is what the integration tests and
//! the quick-start in README.md wait for.
//!
//! Options:
//!
//! - `--addr HOST:PORT` — listen address (default `127.0.0.1:0`,
//!   an ephemeral port, printed in the `LISTENING` line)
//! - `--preset tiny|small|medium` — parameter preset (default `tiny`)
//! - `--key-cache-bytes N` — byte budget for the wire-distributed key
//!   cache (default: unbounded); least-recently-used key sets are
//!   evicted when uploads exceed it
//! - `--insecure-seed N` — legacy shared-seed mode: regenerate *all*
//!   key material (including the secret key!) deterministically from
//!   `(--preset, N)` and serve it as the node's default key. Every node
//!   and client started with the same pair agree bit-for-bit. Only for
//!   reproduction runs on trusted hosts — the seed derives the secret
//!   key, which is why the flag says so.
//! - `--threads N` — blind-rotation thread budget (default: all
//!   hardware threads)
//! - `--fail-after N` — serve `N` blind-rotate requests, then drop the
//!   connection and refuse all future ones (failure injection for the
//!   reassignment tests)
//! - `--fault-plan PLAN` — deterministic fault injection: a comma-
//!   separated action script consumed one action per blind-rotate
//!   request, e.g. `fail*2,delay:50,hang,corrupt,drop` or the silent
//!   failure modes `flip` (compute correctly, flip one payload bit on
//!   the wire — caught by the frame CRC), `truncate` (drop the last
//!   accumulator — a shape mismatch) and `stall:MS` (correct reply,
//!   `MS` ms late — only hedged dispatch beats it); after the plan is
//!   exhausted the node serves normally (so a prober can observe it
//!   recover). See `heap_runtime::FaultPlan` for the grammar.
//! - `--metrics-addr HOST:PORT` — also serve a metrics endpoint
//!   (`GET /metrics` Prometheus text, `GET /metrics.json`) exposing the
//!   node's request counters, the key cache's hit/miss/eviction
//!   counters, and the node's per-stage histograms (every rotation it
//!   served, under any key; with `--insecure-seed` they are the default
//!   key's, so `--session-addr`'s service records its stages there too) —
//!   the registries `StatsReq` reports. The bound address is printed as
//!   `METRICS <addr>` on stdout, *after* the `LISTENING` line.
//! - `--session-addr HOST:PORT` — also run a full in-process
//!   `BootstrapService` (staged pipeline backed by this node's threads)
//!   fronted by a multiplexed session listener: any number of
//!   `SessionClient`s submit tagged jobs over one socket each and
//!   completions stream back out of order. Requires `--insecure-seed`
//!   (the in-process service needs local key material). The bound
//!   address is printed as `SESSIONS <addr>` after the `LISTENING` line.
//! - `--slo-ms N` — with `--session-addr`: enable SLO admission control
//!   with an `N`-millisecond deadline; over-SLO submissions get a typed
//!   rejection with a retry hint instead of queueing.

use std::fmt::Display;
use std::net::TcpListener;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

use heap_ckks::CkksContext;
use heap_parallel::Parallelism;
use heap_runtime::{
    insecure_deterministic_setup, serve, serve_keyless, BootstrapService, FaultPlan, NodeKeyStore,
    NodeTelemetry, ParamPreset, RuntimeConfig, ServeOptions, SessionServer, SloPolicy,
};
use heap_telemetry::{Exposition, MetricsServer};

struct Args {
    addr: String,
    preset: ParamPreset,
    insecure_seed: Option<u64>,
    key_cache_bytes: Option<usize>,
    threads: Option<usize>,
    fail_after: Option<u64>,
    fault_plan: Option<FaultPlan>,
    metrics_addr: Option<String>,
    session_addr: Option<String>,
    slo_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        preset: ParamPreset::Tiny,
        insecure_seed: None,
        key_cache_bytes: None,
        threads: None,
        fail_after: None,
        fault_plan: None,
        metrics_addr: None,
        session_addr: None,
        slo_ms: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        // Every flag but the refusals below takes a value.
        let value = it.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value?,
            "--preset" => args.preset = value?.parse()?,
            "--insecure-seed" => args.insecure_seed = Some(parse_flag(&flag, value)?),
            "--seed" => {
                return Err(
                    "--seed was renamed: shared-seed setup hands every node the secret key. \
                     Pass --insecure-seed N if that is really what you want (trusted hosts, \
                     reproduction runs); the default is now keyless wire-distributed keys."
                        .to_string(),
                )
            }
            "--key-cache-bytes" => args.key_cache_bytes = Some(parse_flag(&flag, value)?),
            "--threads" => args.threads = Some(parse_flag(&flag, value)?),
            "--fail-after" => args.fail_after = Some(parse_flag(&flag, value)?),
            "--fault-plan" => args.fault_plan = Some(parse_flag(&flag, value)?),
            "--metrics-addr" => args.metrics_addr = Some(value?),
            "--session-addr" => args.session_addr = Some(value?),
            "--slo-ms" => args.slo_ms = Some(parse_flag(&flag, value)?),
            "--help" | "-h" => {
                return Err(
                    "usage: heap-node-serve [--addr HOST:PORT] [--preset tiny|small|medium] \
                            [--key-cache-bytes N] [--insecure-seed N] [--threads N] \
                            [--fail-after N] [--fault-plan PLAN] [--metrics-addr HOST:PORT] \
                            [--session-addr HOST:PORT] [--slo-ms N]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(args)
}

/// `flag`'s value parsed as `T`, a parse error prefixed with the flag.
fn parse_flag<T: FromStr>(flag: &str, value: Result<String, String>) -> Result<T, String>
where
    T::Err: Display,
{
    value?.parse().map_err(|e| format!("{flag}: {e}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let parallelism = args
        .threads
        .map_or_else(Parallelism::max, Parallelism::with_threads);
    let key_store = NodeKeyStore::new(args.key_cache_bytes);
    let insecure = args.insecure_seed.map(|seed| {
        eprintln!(
            "heap-node-serve: INSECURE shared-seed mode — generating keys \
             (preset={}, seed={seed}) ...",
            args.preset
        );
        insecure_deterministic_setup(args.preset, seed)
    });
    let ctx = match &insecure {
        Some(setup) => Arc::clone(&setup.ctx),
        None => Arc::new(CkksContext::new(args.preset.ckks_params())),
    };
    let listener = match TcpListener::bind(&args.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("heap-node-serve: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| args.addr.clone());
    // The readiness line scripts and tests wait for (always first).
    println!("LISTENING {addr}");
    use std::io::Write;
    let _ = std::io::stdout().flush();
    let telemetry = NodeTelemetry::new();
    // Held for the life of the process; dropping it would stop the
    // scrape endpoint.
    let _metrics_server = match &args.metrics_addr {
        Some(metrics_addr) => {
            let exposition = telemetry
                .registries(&key_store, insecure.as_ref().map(|setup| &*setup.boot))
                .iter()
                .fold(Exposition::new(), Exposition::with_registry);
            match MetricsServer::serve(metrics_addr, exposition) {
                Ok(server) => {
                    println!("METRICS {}", server.addr());
                    let _ = std::io::stdout().flush();
                    Some(server)
                }
                Err(e) => {
                    eprintln!("heap-node-serve: cannot bind metrics {metrics_addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    // Held for the life of the process: the in-process service and its
    // session front-end, when requested.
    let _session = match &args.session_addr {
        Some(session_addr) => {
            let Some(setup) = &insecure else {
                eprintln!(
                    "heap-node-serve: --session-addr requires --insecure-seed \
                     (the in-process service needs local key material)"
                );
                return ExitCode::FAILURE;
            };
            let config = RuntimeConfig {
                queue_capacity: 256,
                admission: args.slo_ms.map(|ms| SloPolicy {
                    slo: std::time::Duration::from_millis(ms),
                }),
                ..RuntimeConfig::default()
            };
            let service = match BootstrapService::start_with_nodes(
                Arc::clone(&setup.ctx),
                Arc::clone(&setup.boot),
                vec![Box::new(heap_runtime::LocalServiceNode::new(
                    0,
                    parallelism,
                ))],
                config,
            ) {
                Ok(svc) => Arc::new(svc),
                Err(e) => {
                    eprintln!("heap-node-serve: cannot start service: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match SessionServer::serve(session_addr, Arc::clone(&service)) {
                Ok(server) => {
                    println!("SESSIONS {}", server.addr());
                    let _ = std::io::stdout().flush();
                    Some((service, server))
                }
                Err(e) => {
                    eprintln!("heap-node-serve: cannot bind sessions {session_addr}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let opts = ServeOptions {
        parallelism,
        fail_after: args.fail_after,
        fault_plan: args.fault_plan,
        telemetry: Some(telemetry),
        key_store: Some(key_store),
    };
    let result = match insecure {
        Some(setup) => serve(listener, setup.ctx, setup.boot, opts),
        None => serve_keyless(listener, ctx, opts),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("heap-node-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
