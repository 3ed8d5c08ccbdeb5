//! The node server: what `heap-node-serve` runs.
//!
//! [`serve`] (default key pre-loaded) and [`serve_keyless`] (every key
//! arrives over the wire) answer a [`crate::RemoteNode`]'s requests, one
//! thread per connection, all sharing the node's [`NodeKeyStore`], thread
//! budget, [`NodeTelemetry`] and scripted faults
//! ([`ServeOptions::fault_plan`] — the socket half of the deterministic
//! fault-injection harness). The bytes are `proto`'s; this file is what a
//! node *does* with each frame kind.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use heap_ckks::CkksContext;
use heap_core::Bootstrapper;
use heap_keys::{EvalKeySet, KeyCache, KeyId};
use heap_parallel::Parallelism;
use heap_telemetry::{Counter, MetricValue, Registry, Snapshot};
use heap_tfhe::lwe_batch_from_wire;

use crate::fault::{FaultAction, FaultPlan, FaultState};
use crate::node::{accumulators_to_wire, check_lwes_fit, NodeError};
use crate::proto::{self, FrameError, FrameKind, Shape, FRAME_HEADER_BYTES};

/// How long a server-side `hang` action sleeps when the plan gives no
/// duration: far beyond any client deadline, i.e. "forever".
const HANG_FOREVER: Duration = Duration::from_secs(600);

/// Server-side telemetry for one listener: what a node has served.
///
/// Shared by every connection thread of a [`serve`] call and exposed two
/// ways: flattened into `StatsResp` frames (so a client's
/// [`crate::RemoteNode::fetch_stats`] sees it over HRT1) and via the registry
/// handle for a local metrics endpoint (`heap-node-serve
/// --metrics-addr`). Cloning shares the same underlying atomics.
#[derive(Clone)]
pub struct NodeTelemetry {
    registry: Arc<Registry>,
    pub(crate) requests: Arc<Counter>,
    pub(crate) lwes: Arc<Counter>,
    pub(crate) pings: Arc<Counter>,
    pub(crate) errors: Arc<Counter>,
}

impl NodeTelemetry {
    /// Fresh counters under a `node`-scoped registry.
    pub fn new() -> Self {
        let registry = Arc::new(Registry::new("node"));
        Self {
            requests: registry.counter(
                "heap_node_requests_total",
                "Blind-rotate requests this node served",
            ),
            lwes: registry.counter(
                "heap_node_lwes_total",
                "LWE ciphertexts this node blind-rotated",
            ),
            pings: registry.counter("heap_node_pings_total", "Ping frames answered"),
            errors: registry.counter("heap_node_errors_total", "Error frames sent to peers"),
            registry,
        }
    }

    /// The registry backing these counters (for a metrics endpoint).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

impl Default for NodeTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for NodeTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeTelemetry")
            .field("requests", &self.requests.get())
            .field("lwes", &self.lwes.get())
            .field("pings", &self.pings.get())
            .field("errors", &self.errors.get())
            .finish()
    }
}

/// Flattens a registry snapshot into `(scoped name, u64)` stats entries:
/// counters and gauges verbatim, histograms as `_count` and `_sum`.
/// Labeled series append their label *values* to the name (the stats wire
/// format is a flat name → u64 map), so
/// `heap_corruption_detected_total{layer="crc"}` travels as
/// `service_heap_corruption_detected_total_crc`.
fn flatten_snapshot(snap: &Snapshot, out: &mut Vec<(String, u64)>) {
    for e in &snap.entries {
        let mut name = format!("{}_{}", snap.scope, e.name);
        for (_, v) in &e.labels {
            name.push('_');
            name.push_str(v);
        }
        match &e.value {
            MetricValue::Counter(v) => out.push((name, *v)),
            MetricValue::Gauge(v) => out.push((name, *v as u64)),
            MetricValue::Histogram(h) => {
                out.push((format!("{name}_count"), h.count));
                out.push((format!("{name}_sum"), h.sum));
            }
        }
    }
}

/// Shared handle to a node's [`KeyCache`] of expanded bootstrappers.
///
/// Cloning shares the same cache and its telemetry registry (scope
/// `keycache`), so `heap-node-serve` hands one handle to
/// [`serve_keyless`] and exposes the same hit/miss/eviction counters on
/// its metrics endpoint.
#[derive(Clone)]
pub struct NodeKeyStore {
    cache: Arc<Mutex<KeyCache<Arc<Bootstrapper>>>>,
}

impl NodeKeyStore {
    /// A store evicting down to `budget_bytes` of encoded key material;
    /// `None` means unbounded.
    pub fn new(budget_bytes: Option<usize>) -> Self {
        Self {
            cache: Arc::new(Mutex::new(KeyCache::new(
                budget_bytes.unwrap_or(usize::MAX),
            ))),
        }
    }

    /// The telemetry registry behind the cache counters.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(self.lock().registry())
    }

    pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, KeyCache<Arc<Bootstrapper>>> {
        self.cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Default for NodeKeyStore {
    fn default() -> Self {
        Self::new(None)
    }
}

impl std::fmt::Debug for NodeKeyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.lock().fmt(f)
    }
}

/// Server-side knobs for [`serve`].
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Thread budget for this node's blind rotations (one FPGA's worth of
    /// compute in the paper's terms).
    pub parallelism: Parallelism,
    /// Failure injection: serve this many blind-rotate requests, then die
    /// — drop the in-flight connection without replying and refuse all
    /// future ones. `None` serves forever. For *transient* faults use
    /// [`ServeOptions::fault_plan`] instead.
    pub fail_after: Option<u64>,
    /// Scripted fault injection: one [`FaultAction`] consumed per
    /// blind-rotate request (across all connections); requests beyond the
    /// plan are served normally, so the node "recovers".
    pub fault_plan: Option<FaultPlan>,
    /// Counters the server updates as it serves. Pass a handle you keep
    /// (e.g. one backing a [`heap_telemetry::MetricsServer`], as
    /// `heap-node-serve --metrics-addr` does) to observe them from
    /// outside; `None` creates private counters, still reachable via
    /// `StatsReq`.
    pub telemetry: Option<NodeTelemetry>,
    /// Cache for wire-distributed evaluation keys. Pass a handle you
    /// keep (as `heap-node-serve` does for its metrics endpoint) to
    /// observe or bound it; `None` creates a private unbounded store.
    pub key_store: Option<NodeKeyStore>,
}

/// Serves blind-rotation requests on `listener` until the process exits,
/// with `boot` pre-loaded as the node's default key (what the `key_id 0`
/// sentinel resolves to).
///
/// Each connection gets its own thread; all share the node's key cache,
/// thread budget, and fault-injection state. Callable in-process
/// (benches spawn it on a background thread) or from the
/// `heap-node-serve` binary. The default key is also registered in the
/// key cache under its real content id, so wire-keyed clients holding
/// the same key skip the upload and the handshake advertises what the
/// node actually holds.
pub fn serve(
    listener: TcpListener,
    ctx: Arc<CkksContext>,
    boot: Arc<Bootstrapper>,
    mut opts: ServeOptions,
) -> std::io::Result<()> {
    let store = opts.key_store.take().unwrap_or_default();
    let set = EvalKeySet::from_bootstrapper(&ctx, &boot);
    let resident = set.strict_len(&ctx);
    let displaced = store.lock().insert(set.id(), Arc::clone(&boot), resident);
    drop(displaced);
    opts.key_store = Some(store);
    serve_inner(listener, ctx, Some(boot), opts)
}

/// [`serve`] without pre-loaded key material: every evaluation key
/// arrives over the wire (`KeyOffer`/`KeyUpload`) and batches riding the
/// default-key sentinel are refused with an `Error` frame. This is what
/// `heap-node-serve` runs unless `--insecure-seed` is given.
pub fn serve_keyless(
    listener: TcpListener,
    ctx: Arc<CkksContext>,
    opts: ServeOptions,
) -> std::io::Result<()> {
    serve_inner(listener, ctx, None, opts)
}

fn serve_inner(
    listener: TcpListener,
    ctx: Arc<CkksContext>,
    default_boot: Option<Arc<Bootstrapper>>,
    opts: ServeOptions,
) -> std::io::Result<()> {
    let state = Arc::new(ServerState {
        parallelism: opts.parallelism,
        fail_after: opts.fail_after,
        fault: opts.fault_plan.map(FaultState::new),
        served: AtomicU64::new(0),
        poisoned: AtomicBool::new(false),
        telemetry: opts.telemetry.unwrap_or_default(),
        default_boot,
        keys: opts.key_store.unwrap_or_default(),
    });
    for conn in listener.incoming() {
        let stream = conn?;
        if state.poisoned.load(Ordering::Relaxed) {
            // A "dead" node: accept() succeeded at the OS level but the
            // session is dropped before the handshake, so clients see EOF.
            drop(stream);
            continue;
        }
        let (ctx, state) = (Arc::clone(&ctx), Arc::clone(&state));
        std::thread::spawn(move || {
            let _ = handle_connection(stream, &ctx, &state);
        });
    }
    Ok(())
}

/// Per-listener state shared by every connection thread.
struct ServerState {
    parallelism: Parallelism,
    fail_after: Option<u64>,
    fault: Option<FaultState>,
    served: AtomicU64,
    poisoned: AtomicBool,
    telemetry: NodeTelemetry,
    /// What the `key_id 0` sentinel resolves to (insecure-seed path);
    /// `None` on keyless nodes.
    default_boot: Option<Arc<Bootstrapper>>,
    /// Wire-distributed keys by content id.
    keys: NodeKeyStore,
}

/// Maps a server-side frame failure (no deadlines are armed on the
/// server's reads) to a [`NodeError`] for the connection result.
pub(crate) fn server_frame_err(e: FrameError) -> NodeError {
    e.into_node("read", Duration::ZERO)
}

/// What a scripted fault does to one blind-rotate request.
#[derive(PartialEq)]
enum Tamper {
    None,
    /// Serve it, then flip one payload bit after the header CRC is
    /// computed.
    Flip,
    /// Serve it one accumulator short (internally-consistent reply).
    Truncate,
    /// The fault was the reply; the request is not served.
    Unserved,
}

/// The connection's result when a fault action plays dead.
fn played_dead() -> NodeError {
    NodeError::Io("connection closed by fault injection".into())
}

/// One accepted connection, past its handshake.
struct Conn<'a> {
    stream: TcpStream,
    ctx: &'a CkksContext,
    state: &'a ServerState,
}

fn handle_connection(
    mut stream: TcpStream,
    ctx: &CkksContext,
    state: &ServerState,
) -> Result<(), NodeError> {
    let ids: Vec<u64> = state.keys.lock().ids().iter().map(|id| id.0).collect();
    if let Err(e) = proto::server_handshake(&mut stream, Shape::of(ctx), Some(&ids)) {
        if matches!(e, FrameError::Refused(_)) {
            state.telemetry.errors.inc();
        }
        return Err(server_frame_err(e));
    }
    let mut conn = Conn { stream, ctx, state };
    loop {
        let (kind, payload, _) = proto::read_frame(&mut conn.stream).map_err(server_frame_err)?;
        match kind {
            FrameKind::BlindRotateReq => conn.blind_rotate(&payload)?,
            FrameKind::KeyOffer => conn.key_offer(&payload)?,
            FrameKind::KeyUpload => conn.key_upload(&payload)?,
            FrameKind::Ping => conn.ping()?,
            FrameKind::StatsReq => conn.stats()?,
            FrameKind::Shutdown => return Ok(()),
            other => return Err(conn.reject(format!("unexpected frame {other:?}"))),
        }
    }
}

impl Conn<'_> {
    fn reply(&mut self, kind: FrameKind, payload: &[u8]) -> Result<(), NodeError> {
        proto::write_frame(&mut self.stream, kind, payload)?;
        Ok(())
    }

    /// Refuses a well-formed request — counted, and the peer told why.
    /// The exchange is still in sync, so the connection goes on.
    fn refuse(&mut self, why: &str) -> Result<(), NodeError> {
        self.state.telemetry.errors.inc();
        self.reply(FrameKind::Error, why.as_bytes())
    }

    /// Refuses bytes that do not parse; the refusal is the connection's
    /// result.
    fn reject(&mut self, why: String) -> NodeError {
        let _ = self.refuse(&why);
        NodeError::Protocol(why)
    }

    /// Consumes this request's scripted fault, if a plan is loaded.
    fn next_fault(&mut self) -> Result<Tamper, NodeError> {
        let Some(fault) = &self.state.fault else {
            return Ok(Tamper::None);
        };
        match fault.next_action() {
            FaultAction::Pass => {}
            FaultAction::Fail => {
                self.refuse("injected fault: fail")?;
                return Ok(Tamper::Unserved);
            }
            // A stall is served normally too, just late.
            FaultAction::Delay(d) | FaultAction::Stall(d) => std::thread::sleep(d),
            FaultAction::Hang(d) => {
                // Go silent: the client's read deadline, not this server,
                // must end the exchange.
                std::thread::sleep(d.unwrap_or(HANG_FOREVER));
                return Err(played_dead());
            }
            FaultAction::Corrupt => {
                // A garbage header (full header-sized, wrong magic), then
                // close.
                let junk = [
                    0xDEu8, 0xAD, 0xBE, 0xEF, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                ];
                debug_assert_eq!(junk.len() as u64, FRAME_HEADER_BYTES);
                let _ = self.stream.write_all(&junk);
                let _ = self.stream.flush();
                return Err(played_dead());
            }
            FaultAction::Drop => return Err(played_dead()),
            // Silent wire corruption and shape truncation tamper with the
            // *reply*; the request is served normally first.
            FaultAction::Flip => return Ok(Tamper::Flip),
            FaultAction::Truncate => return Ok(Tamper::Truncate),
        }
        Ok(Tamper::None)
    }

    fn blind_rotate(&mut self, payload: &[u8]) -> Result<(), NodeError> {
        let state = self.state;
        if let Some(limit) = state.fail_after {
            if state.served.fetch_add(1, Ordering::Relaxed) >= limit {
                state.poisoned.store(true, Ordering::Relaxed);
                // Die mid-request: no reply, connection dropped.
                return Err(played_dead());
            }
        }
        let tamper = self.next_fault()?;
        if tamper == Tamper::Unserved {
            return Ok(());
        }
        let Ok((key_id, batch)) = proto::decode_prefixed(payload) else {
            return Err(self.reject("blind-rotate request missing key id".into()));
        };
        // Uncounted resolution: the KeyOffer preceding a keyed batch
        // already accounted the cache lookup.
        let boot = if key_id == 0 {
            state.default_boot.clone()
        } else {
            state.keys.lock().peek(KeyId(key_id)).cloned()
        };
        let Some(boot) = boot else {
            return self.refuse(&if key_id == 0 {
                "keyless node has no default key; upload one".to_string()
            } else {
                format!("key {key_id:016x} not resident")
            });
        };
        let lwes = match lwe_batch_from_wire(batch) {
            Ok(lwes) => lwes,
            Err(e) => return Err(self.reject(format!("bad LWE batch: {e:?}"))),
        };
        // Well-formed but not for this key: refused like a foreign key
        // upload, before the rotation's shape asserts can see it.
        if let Err(why) = check_lwes_fit(self.ctx, &boot, &lwes) {
            return self.refuse(why);
        }
        let mut accs = boot.blind_rotate_batch_par(self.ctx, &lwes, state.parallelism);
        if tamper == Tamper::Truncate {
            // The old shape-bug model: the digest covers the truncated
            // batch, so only the client's count check can catch it.
            accs.pop();
        }
        let batch = accumulators_to_wire(self.ctx, &accs);
        let mut resp = proto::encode_prefixed(heap_math::wire::fnv1a(&batch), &batch);
        if tamper == Tamper::Flip {
            // Silent wire corruption: the header (and its CRC) is computed
            // over the *correct* payload, then one payload bit is flipped
            // on the way out. The stream stays length-synced, so only the
            // client's checksum can tell.
            let header = proto::frame_header(FrameKind::BlindRotateResp, &resp);
            let mid = resp.len() / 2;
            resp[mid] ^= 1;
            self.stream.write_all(&header)?;
            self.stream.write_all(&resp)?;
            self.stream.flush()?;
        } else {
            self.reply(FrameKind::BlindRotateResp, &resp)?;
        }
        state.telemetry.requests.inc();
        state.telemetry.lwes.add(lwes.len() as u64);
        Ok(())
    }

    fn key_offer(&mut self, payload: &[u8]) -> Result<(), NodeError> {
        let Ok((id, _)) = proto::decode_prefixed(payload) else {
            return Err(self.reject(format!("key offer carried {} bytes", payload.len())));
        };
        // The one counted lookup per batch: hits/misses must match the
        // driven workload one-to-one.
        let hit = self.state.keys.lock().lookup(KeyId(id)).is_some();
        let reply = if hit {
            FrameKind::KeyAck
        } else {
            FrameKind::KeyNeed
        };
        self.reply(reply, &proto::encode_prefixed(id, &[]))
    }

    fn key_upload(&mut self, payload: &[u8]) -> Result<(), NodeError> {
        let Ok((id, encoded)) = proto::decode_prefixed(payload) else {
            return Err(self.reject("key upload missing id".into()));
        };
        let set = match EvalKeySet::from_wire(self.ctx, encoded) {
            Ok(set) => set,
            Err(e) => return self.refuse(&format!("bad key upload: {e:?}")),
        };
        // The parity oracle: the id recomputed from the strict re-encoding
        // of the expanded keys must equal the offer.
        if set.id().0 != id {
            return self.refuse(&format!(
                "key id parity failure: offered {id:016x}, expanded to {}",
                set.id()
            ));
        }
        let boot = Arc::new(set.into_bootstrapper(self.ctx));
        // The guard is a temporary of this statement: the evicted
        // bootstrappers are freed after it, not while every other
        // connection's `peek` waits on the lock.
        let evicted = self
            .state
            .keys
            .lock()
            .insert(KeyId(id), boot, encoded.len());
        drop(evicted);
        self.reply(FrameKind::KeyAck, &proto::encode_prefixed(id, &[]))
    }

    fn ping(&mut self) -> Result<(), NodeError> {
        self.reply(FrameKind::Pong, &[])?;
        self.state.telemetry.pings.inc();
        Ok(())
    }

    /// Node counters, the key cache, then per-stage histograms from the
    /// default key's bootstrapper (or, keyless, the most recently used
    /// cached one) — the same registries a local metrics endpoint would
    /// expose.
    fn stats(&mut self) -> Result<(), NodeError> {
        let state = self.state;
        let mut entries = Vec::new();
        flatten_snapshot(&state.telemetry.registry.snapshot(), &mut entries);
        flatten_snapshot(&state.keys.registry().snapshot(), &mut entries);
        let stage_boot = state.default_boot.clone().or_else(|| {
            let cache = state.keys.lock();
            cache.ids().first().and_then(|id| cache.peek(*id).cloned())
        });
        if let Some(boot) = stage_boot {
            flatten_snapshot(&boot.stage_metrics().registry().snapshot(), &mut entries);
        }
        self.reply(FrameKind::StatsResp, &proto::encode_stats(&entries))
    }
}
