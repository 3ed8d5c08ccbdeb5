//! The node server: what `heap-node-serve` runs.
//!
//! [`serve`] (default key pre-loaded) and [`serve_keyless`] (every key
//! arrives over the wire) answer a [`crate::RemoteNode`]'s requests, one
//! thread per connection, all sharing the node's [`NodeKeyStore`], thread
//! budget, [`NodeTelemetry`] and scripted faults
//! ([`ServeOptions::fault_plan`] — the socket half of the deterministic
//! fault-injection harness). The bytes are `proto`'s and what each frame
//! means is `conn`'s node machine; this file holds the listener, a thread
//! per connection, and the work behind the machine (rotations, the key
//! cache, the stats).

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use heap_ckks::CkksContext;
use heap_core::{Bootstrapper, StageMetrics};
use heap_keys::{EvalKeySet, KeyCache, KeyId};
use heap_parallel::Parallelism;
use heap_telemetry::{MetricValue, Registry, Snapshot};
use heap_tfhe::lwe_batch_from_wire;

use crate::conn::{failure, Backend, NodeDoor, NodeShared, Out};
use crate::fault::{FaultPlan, FaultState};
use crate::node::{accumulators_to_wire, lwe_shape, NodeError};
use crate::proto::{self, Shape};

heap_telemetry::metric_table! {
    /// Server-side telemetry for one listener: what a node has served, and
    /// how long its rotations took under any key.
    ///
    /// Shared by every connection thread of a [`serve`] call and exposed two
    /// ways, both reading [`NodeTelemetry::registries`]: flattened into
    /// `StatsResp` frames (so a client's [`crate::RemoteNode::fetch_stats`]
    /// sees it over HRT1) and on a local metrics endpoint (`heap-node-serve
    /// --metrics-addr`). Cloning shares the same underlying atomics.
    pub struct NodeTelemetry in "node" {
        /// A keyless node's stage histograms: every key it expands records
        /// its rotations here.
        stages: StageMetrics,
    };
    requests: Counter "heap_node_requests_total", "Blind-rotate requests this node served";
    lwes: Counter "heap_node_lwes_total", "LWE ciphertexts this node blind-rotated";
    pings: Counter "heap_node_pings_total", "Ping frames answered";
    errors: Counter "heap_node_errors_total", "Error frames sent to peers";
}

impl NodeTelemetry {
    /// The node's registries in exposition order — its counters, `keys`'
    /// cache, its stage histograms: what `StatsResp` flattens and what
    /// `heap-node-serve --metrics-addr` serves. `default` is the key a
    /// [`serve`]d node was started with (`None` for [`serve_keyless`]).
    pub fn registries(
        &self,
        keys: &NodeKeyStore,
        default: Option<&Bootstrapper>,
    ) -> [Arc<Registry>; 3] {
        [
            Arc::clone(self.registry()),
            keys.registry(),
            Arc::clone(self.stages(default).registry()),
        ]
    }

    /// The stage histograms every rotation of the node records into: a
    /// keyed node's are its `default` key's (shared with whatever else
    /// rotates with that bootstrapper, as `heap-node-serve`'s in-process
    /// service does), a keyless node's are its own.
    fn stages<'a>(&'a self, default: Option<&'a Bootstrapper>) -> &'a StageMetrics {
        default.map_or(&self.stages, Bootstrapper::stage_metrics)
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
    /// Scripted fault injection: one [`crate::FaultAction`] consumed per
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
    let telemetry = opts.telemetry.unwrap_or_default();
    let node = Arc::new(NodeShared {
        fault: opts.fault_plan.map(FaultState::new),
        fail_after: opts.fail_after,
        served: AtomicU64::new(0),
        dead: AtomicBool::new(false),
        telemetry: telemetry.clone(),
    });
    let backend = Arc::new(NodeBackend {
        ctx,
        parallelism: opts.parallelism,
        telemetry,
        default_boot,
        keys: opts.key_store.unwrap_or_default(),
    });
    for conn in listener.incoming() {
        let stream = conn?;
        if node.dead.load(Ordering::Relaxed) {
            drop(stream);
            continue;
        }
        let (node, backend) = (Arc::clone(&node), Arc::clone(&backend));
        std::thread::spawn(move || {
            let _ = serve_connection(stream, &node, &backend);
        });
    }
    Ok(())
}

/// One connection: frames in, the machine's outputs executed in order
/// (the node's output executor) until it closes or the socket fails.
/// Returns the connection's result.
fn serve_connection(
    mut stream: TcpStream,
    node: &NodeShared,
    backend: &NodeBackend,
) -> Result<(), NodeError> {
    proto::configure(&stream, proto::SERVER_TIMEOUTS)?;
    let mut door = NodeDoor::new(node, backend, Shape::of(&backend.ctx));
    loop {
        let frame =
            proto::read_frame(&mut stream).map_err(|e| failure("read", Duration::ZERO, e))?;
        for out in door.on_frame(&frame) {
            match out {
                Out::Frame(kind, payload) => {
                    proto::write_frame(&mut stream, kind, &payload)?;
                }
                Out::Raw(bytes) => {
                    proto::write_parts(&mut stream, &[&bytes])?;
                }
                Out::Sleep(d) => std::thread::sleep(d),
                Out::Close(result) => return result.map_or(Ok(()), Err),
                Out::Submit(_) => unreachable!("a node door submits no jobs"),
            }
        }
    }
}

/// What a node's connections ask of it: rotations under its keys, key
/// insertions, and its counters.
struct NodeBackend {
    ctx: Arc<CkksContext>,
    parallelism: Parallelism,
    telemetry: NodeTelemetry,
    /// What the `key_id 0` sentinel resolves to (insecure-seed path);
    /// `None` on keyless nodes.
    default_boot: Option<Arc<Bootstrapper>>,
    /// Wire-distributed keys by content id.
    keys: NodeKeyStore,
}

impl Backend for NodeBackend {
    fn key_ids(&self) -> Vec<u64> {
        self.keys.lock().ids().iter().map(|id| id.0).collect()
    }

    fn rotate(&self, key_id: u64, batch: &[u8], short: bool) -> Result<(Vec<u8>, u64), String> {
        // Uncounted resolution: the KeyOffer preceding a keyed batch
        // already accounted the cache lookup.
        let boot = match key_id {
            0 => self.default_boot.clone(),
            id => self.keys.lock().peek(KeyId(id)).cloned(),
        };
        let boot = boot.ok_or_else(|| match key_id {
            0 => "keyless node has no default key; upload one".to_string(),
            id => format!("key {id:016x} not resident"),
        })?;
        // Decoded against the resolved key, so a batch that is not for it
        // is refused before anything is unpacked.
        let (modulus, dim) = lwe_shape(&self.ctx, &boot);
        let lwes = lwe_batch_from_wire(batch, modulus, dim)
            .map_err(|e| format!("bad LWE batch: {e:?}"))?;
        let mut accs = boot.blind_rotate_batch_par(&self.ctx, &lwes, self.parallelism);
        if short {
            accs.pop();
        }
        Ok((accumulators_to_wire(&self.ctx, &accs), lwes.len() as u64))
    }

    fn has_key(&self, id: u64) -> bool {
        self.keys.lock().lookup(KeyId(id)).is_some()
    }

    fn insert_key(&self, id: u64, encoded: &[u8]) -> Result<(), String> {
        let set = EvalKeySet::from_wire(&self.ctx, encoded)
            .map_err(|e| format!("bad key upload: {e:?}"))?;
        // The parity oracle: the id recomputed from the strict re-encoding
        // of the expanded keys must equal the offer.
        if set.id().0 != id {
            return Err(format!(
                "key id parity failure: offered {id:016x}, expanded to {}",
                set.id()
            ));
        }
        let stages = self.telemetry.stages(self.default_boot.as_deref());
        let boot = Arc::new(
            set.into_bootstrapper(&self.ctx)
                .with_stage_metrics(stages.clone()),
        );
        // The guard is a temporary of this statement: the evicted
        // bootstrappers are freed after it, not while every other
        // connection's `peek` waits on the lock.
        let evicted = self.keys.lock().insert(KeyId(id), boot, encoded.len());
        drop(evicted);
        Ok(())
    }

    /// The node's registries, flattened.
    fn stats(&self) -> Vec<(String, u64)> {
        let mut entries = Vec::new();
        for registry in self
            .telemetry
            .registries(&self.keys, self.default_boot.as_deref())
        {
            flatten_snapshot(&registry.snapshot(), &mut entries);
        }
        entries
    }
}
