//! Remote compute nodes over TCP.
//!
//! [`RemoteNode`] turns any `heap-node-serve` process into a secondary:
//! it speaks a minimal length-prefixed frame protocol over
//! `std::net::TcpStream`, shipping LWE batches out with the `heap-tfhe`
//! wire encodings and reading accumulator batches back. Accumulators are
//! serialized verbatim in the evaluation domain, so a remote round trip
//! is bit-identical to local execution — the E2E tests assert it.
//!
//! Every socket operation runs under a deadline ([`NodeTimeouts`]):
//! connect uses `TcpStream::connect_timeout` and reads/writes carry
//! `set_read_timeout`/`set_write_timeout`, so a peer that *hangs* (rather
//! than errors) surfaces as a typed [`NodeError::Timeout`] instead of a
//! wedged shard. A node whose connection broke re-dials and re-runs the
//! Hello handshake on its next use — which is how the scheduler's health
//! prober readmits a recovered peer via [`RemoteNode::ping`].
//!
//! # Frame format
//!
//! Every frame is a 17-byte header followed by a payload:
//!
//! ```text
//! magic  "HRT1"  u32 LE   (protocol + version in one)
//! kind            u8      (Hello … Pong, below)
//! len             u64 LE  (payload bytes)
//! crc             u32 LE  (CRC-32 over kind, len, and payload)
//! ```
//!
//! The checksum covers the kind and length fields as well as the
//! payload, so a bit flip anywhere past the magic — including one that
//! turns the kind into another *valid* kind — surfaces as a typed
//! [`NodeError::Corrupt`] rather than a silently mis-decoded frame
//! (magic flips fail the magic check; crc-field flips fail their own
//! comparison). This is the wire-integrity layer; end-to-end content
//! integrity is the attestation digest below.
//!
//! # Result attestation
//!
//! Every `BlindRotateResp` payload leads with a `u64 LE` FNV-1a digest
//! of the accumulator batch's wire encoding, computed *server-side*
//! where the accumulators were produced. The client recomputes the
//! digest over the received payload (and the scheduler re-verifies over
//! the re-encoded accumulators), catching corruption the frame CRC
//! cannot see: bad node RAM, a buggy compute backend, anything between
//! the peer's checksum computation and this process's memory.
//!
//! A session is `Hello → HelloAck` (both directions validate the ring
//! shape: `N`, boot limbs, `q_0`; the ack additionally advertises the
//! key ids the node caches) followed by any number of
//! `BlindRotateReq → BlindRotateResp`, `Ping → Pong`, and
//! `StatsReq → StatsResp` exchanges. Either side may send `Error`
//! (UTF-8 reason) and hang up; `Shutdown` ends the session cleanly.
//!
//! # Key distribution
//!
//! Every `BlindRotateReq` payload leads with a `u64 LE` key id naming
//! the evaluation-key set the batch must run under. Id `0` is the
//! sentinel for the server's pre-loaded default key (the insecure-seed
//! compatibility path); any other id must be resident in the server's
//! [`heap_keys::KeyCache`] (see [`NodeKeyStore`]). A wire-keyed client
//! ([`RemoteNode::with_key`]) precedes each batch with a `KeyOffer`
//! carrying the id — the server's *one counted cache lookup per batch*,
//! so hit/miss telemetry matches the driven workload exactly — and
//! uploads the encoded [`heap_keys::EvalKeySet`] container only when the
//! server answers `KeyNeed`. The server expands the (typically
//! seed-expandable) container, verifies the recomputed content id
//! against the offered one, and answers `KeyAck`. Key frames land in
//! the ledger's dedicated key counters, separate from data and control.
//!
//! `StatsResp` carries the server's telemetry counters (see
//! [`NodeTelemetry`]) as a flat `name → u64` table, so a client can read
//! a remote node's request/LWE/ping tallies and per-stage histogram
//! totals without scraping its metrics endpoint — this is what
//! [`RemoteNode::fetch_stats`] returns.
//!
//! When a [`TransferLedger`] is attached, the node records the bytes it
//! *actually* writes to and reads from the socket — headers included —
//! turning the ledger from a model into a measurement. Scatter/gather
//! payload frames land in the payload counters; Hello/HelloAck, Ping/
//! Pong, Stats, Shutdown, and Error frames land in the *control* frame
//! counters, so framing overhead is measured rather than invisible. Use
//! [`RemoteNode::connect_with_ledger`] (not [`RemoteNode::with_ledger`])
//! when the handshake itself must be on the books.
//!
//! The server applies an optional [`FaultPlan`]
//! ([`ServeOptions::fault_plan`], `heap-node-serve --fault-plan`) to its
//! blind-rotate requests: scripted error frames, delays, hangs, corrupt
//! frames, silent payload bit-flips, stalls, truncated replies, and
//! dropped connections, consumed one action per request across all
//! connections — the socket half of the deterministic fault-injection
//! harness.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use heap_ckks::CkksContext;
use heap_core::{Bootstrapper, TransferLedger};
use heap_keys::{EvalKeySet, KeyCache, KeyId, KeyPackage};
use heap_parallel::Parallelism;
use heap_telemetry::{Counter, MetricValue, Registry, Snapshot};
use heap_tfhe::{
    lwe_batch_from_wire, lwe_batch_to_wire, rlwe_batch_from_wire, rlwe_batch_to_wire,
    LweCiphertext, RlweCiphertext,
};

use crate::fault::{FaultAction, FaultPlan, FaultState};
use crate::node::{AttestedBatch, NodeError, ServiceNode};

/// `"HRT1"` — HEAP runtime transport, version 1.
const FRAME_MAGIC: u32 = 0x4852_5431;
/// Header bytes preceding every payload (magic + kind + length + crc).
pub(crate) const FRAME_HEADER_BYTES: u64 = 4 + 1 + 8 + 4;
/// Bytes of the FNV-1a attestation digest leading every
/// `BlindRotateResp` payload.
pub(crate) const RESP_DIGEST_BYTES: u64 = 8;
/// Upper bound on a sane payload; anything larger is a corrupt peer.
const MAX_FRAME: u64 = 1 << 30;
/// Hello payload: `u32 n, u32 boot_limbs, u64 q0`.
const HELLO_BYTES: usize = 16;
/// How long a server-side `hang` action sleeps when the plan gives no
/// duration: far beyond any client deadline, i.e. "forever".
const HANG_FOREVER: Duration = Duration::from_secs(600);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrameKind {
    Hello = 0,
    HelloAck = 1,
    BlindRotateReq = 2,
    BlindRotateResp = 3,
    Error = 4,
    Shutdown = 5,
    Ping = 6,
    Pong = 7,
    StatsReq = 8,
    StatsResp = 9,
    /// Session multiplexing (`crate::session`): submit a tagged job.
    SubmitReq = 10,
    /// Session: submission refused (SLO, invalid, shutdown) — carries
    /// the tag, a status byte, and the refusal detail. *Only* sent on
    /// refusal; acceptance is implied by the eventual `JobDone`.
    SubmitAck = 11,
    /// Session: a tagged job finished (out-of-order completion stream).
    JobDone = 12,
    /// Key distribution: `u64 LE` key id the client wants to run under.
    KeyOffer = 13,
    /// Key distribution: the offered id is not resident — upload it.
    /// Payload echoes the id.
    KeyNeed = 14,
    /// Key distribution: `u64 LE` key id followed by the encoded
    /// `EvalKeySet` container (seed-expandable or strict).
    KeyUpload = 15,
    /// Key distribution: the id (echoed in the payload) is now resident.
    KeyAck = 16,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(FrameKind::Hello),
            1 => Some(FrameKind::HelloAck),
            2 => Some(FrameKind::BlindRotateReq),
            3 => Some(FrameKind::BlindRotateResp),
            4 => Some(FrameKind::Error),
            5 => Some(FrameKind::Shutdown),
            6 => Some(FrameKind::Ping),
            7 => Some(FrameKind::Pong),
            8 => Some(FrameKind::StatsReq),
            9 => Some(FrameKind::StatsResp),
            10 => Some(FrameKind::SubmitReq),
            11 => Some(FrameKind::SubmitAck),
            12 => Some(FrameKind::JobDone),
            13 => Some(FrameKind::KeyOffer),
            14 => Some(FrameKind::KeyNeed),
            15 => Some(FrameKind::KeyUpload),
            16 => Some(FrameKind::KeyAck),
            _ => None,
        }
    }

    /// The exact payload length of the kinds whose length the protocol
    /// fixes; `None` for variable-length kinds (bounded by [`MAX_FRAME`]).
    fn fixed_len(self) -> Option<u64> {
        match self {
            FrameKind::Hello => Some(HELLO_BYTES as u64),
            FrameKind::Ping | FrameKind::Pong | FrameKind::StatsReq | FrameKind::Shutdown => {
                Some(0)
            }
            FrameKind::KeyOffer | FrameKind::KeyNeed | FrameKind::KeyAck => Some(8),
            FrameKind::HelloAck
            | FrameKind::BlindRotateReq
            | FrameKind::BlindRotateResp
            | FrameKind::Error
            | FrameKind::StatsResp
            | FrameKind::SubmitReq
            | FrameKind::SubmitAck
            | FrameKind::JobDone
            | FrameKind::KeyUpload => None,
        }
    }
}

/// Deadlines applied to every socket operation of a [`RemoteNode`].
///
/// A duration of zero means "no deadline" for that operation. The read
/// deadline must cover the server's blind-rotation compute time for the
/// largest shard it will be handed, not just network latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeTimeouts {
    /// Deadline for `TcpStream::connect_timeout`.
    pub connect: Duration,
    /// Deadline for every read (handshake, response, pong).
    pub read: Duration,
    /// Deadline for every write (handshake, request, ping).
    pub write: Duration,
}

impl Default for NodeTimeouts {
    fn default() -> Self {
        Self {
            connect: Duration::from_secs(5),
            read: Duration::from_secs(30),
            write: Duration::from_secs(10),
        }
    }
}

impl NodeTimeouts {
    /// The same deadline for connect, read, and write — handy in tests.
    pub fn uniform(d: Duration) -> Self {
        Self {
            connect: d,
            read: d,
            write: d,
        }
    }
}

/// Zero means unbounded for the `set_*_timeout` APIs.
fn bounded(d: Duration) -> Option<Duration> {
    (d > Duration::ZERO).then_some(d)
}

/// Maps an I/O error to the typed node error for `phase`, turning the
/// deadline kinds (`WouldBlock` on Unix, `TimedOut` elsewhere) into
/// [`NodeError::Timeout`].
fn io_error(phase: &'static str, after: Duration, e: std::io::Error) -> NodeError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            NodeError::Timeout { phase, after }
        }
        _ => NodeError::Io(format!("{phase}: {e}")),
    }
}

/// A frame-level failure, before phase/deadline context is attached.
#[derive(Debug)]
pub(crate) enum FrameError {
    Io(std::io::Error),
    Protocol(String),
    /// The frame checksum did not match — bytes were flipped on the
    /// wire. `frame` names the (claimed) frame kind.
    Corrupt {
        frame: String,
    },
}

impl FrameError {
    pub(crate) fn into_node(self, phase: &'static str, after: Duration) -> NodeError {
        match self {
            FrameError::Io(e) => io_error(phase, after, e),
            FrameError::Protocol(p) => NodeError::Protocol(p),
            FrameError::Corrupt { frame } => NodeError::Corrupt {
                frame,
                phase: "crc",
            },
        }
    }
}

/// The frame checksum: CRC-32 over the kind byte, the length field, and
/// the payload (everything past the magic).
fn frame_crc(kind_byte: u8, payload: &[u8]) -> u32 {
    let mut crc = heap_math::wire::Crc32::new();
    crc.update(&[kind_byte]);
    crc.update(&(payload.len() as u64).to_le_bytes());
    crc.update(payload);
    crc.finalize()
}

/// Builds the 17-byte frame header for `payload`.
fn frame_header(kind: FrameKind, payload: &[u8]) -> [u8; FRAME_HEADER_BYTES as usize] {
    let mut header = [0u8; FRAME_HEADER_BYTES as usize];
    header[..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    header[4] = kind as u8;
    header[5..13].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    header[13..].copy_from_slice(&frame_crc(kind as u8, payload).to_le_bytes());
    header
}

/// Writes one frame; returns total bytes put on the wire.
pub(crate) fn write_frame(
    w: &mut impl Write,
    kind: FrameKind,
    payload: &[u8],
) -> std::io::Result<u64> {
    w.write_all(&frame_header(kind, payload))?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(FRAME_HEADER_BYTES + payload.len() as u64)
}

/// Reads one frame; returns kind, payload, and total bytes consumed.
pub(crate) fn read_frame(r: &mut impl Read) -> Result<(FrameKind, Vec<u8>, u64), FrameError> {
    let mut header = [0u8; FRAME_HEADER_BYTES as usize];
    r.read_exact(&mut header).map_err(FrameError::Io)?;
    let magic = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    if magic != FRAME_MAGIC {
        return Err(FrameError::Protocol(format!(
            "bad frame magic {magic:#010x}"
        )));
    }
    let kind = FrameKind::from_u8(header[4])
        .ok_or_else(|| FrameError::Protocol(format!("unknown frame kind {}", header[4])))?;
    let len = u64::from_le_bytes(header[5..13].try_into().expect("8 bytes"));
    // Both checks come before the payload buffer exists: the length is
    // unauthenticated input from a 17-byte header.
    match kind.fixed_len() {
        Some(fixed) if len != fixed => {
            return Err(FrameError::Protocol(format!(
                "{kind:?} frame announces {len} bytes, the protocol fixes {fixed}"
            )));
        }
        None if len > MAX_FRAME => {
            return Err(FrameError::Protocol(format!(
                "oversized frame ({len} bytes)"
            )));
        }
        _ => {}
    }
    let crc = u32::from_le_bytes(header[13..].try_into().expect("4 bytes"));
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    if frame_crc(header[4], &payload) != crc {
        return Err(FrameError::Corrupt {
            frame: format!("{kind:?}"),
        });
    }
    Ok((kind, payload, FRAME_HEADER_BYTES + len))
}

/// Server-side telemetry for one listener: what a node has served.
///
/// Shared by every connection thread of a [`serve`] call and exposed two
/// ways: flattened into `StatsResp` frames (so a client's
/// [`RemoteNode::fetch_stats`] sees it over HRT1) and via the registry
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

/// `StatsResp` payload: `u32 LE` entry count, then per entry a
/// `u16 LE` name length, the UTF-8 name, and a `u64 LE` value.
fn encode_stats(entries: &[(String, u64)]) -> Vec<u8> {
    let mut p = Vec::with_capacity(4 + entries.iter().map(|(n, _)| 2 + n.len() + 8).sum::<usize>());
    p.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (name, value) in entries {
        p.extend_from_slice(&(name.len() as u16).to_le_bytes());
        p.extend_from_slice(name.as_bytes());
        p.extend_from_slice(&value.to_le_bytes());
    }
    p
}

fn decode_stats(payload: &[u8]) -> Result<Vec<(String, u64)>, String> {
    let take = |p: &[u8], at: usize, n: usize| -> Result<Vec<u8>, String> {
        p.get(at..at + n)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| "truncated stats payload".to_string())
    };
    let count =
        u32::from_le_bytes(take(payload, 0, 4)?.try_into().expect("4 bytes just taken")) as usize;
    // The count is the peer's claim: bound it by what the payload can hold
    // (the smallest entry is 2 + 0 + 8 bytes) before allocating for it.
    if count > (payload.len() - 4) / 10 {
        return Err("truncated stats payload".to_string());
    }
    let mut at = 4;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let len = u16::from_le_bytes(
            take(payload, at, 2)?
                .try_into()
                .expect("2 bytes just taken"),
        ) as usize;
        at += 2;
        let name = String::from_utf8(take(payload, at, len)?)
            .map_err(|_| "stats name is not UTF-8".to_string())?;
        at += len;
        let value = u64::from_le_bytes(
            take(payload, at, 8)?
                .try_into()
                .expect("8 bytes just taken"),
        );
        at += 8;
        entries.push((name, value));
    }
    if at != payload.len() {
        return Err(format!("{} trailing stats bytes", payload.len() - at));
    }
    Ok(entries)
}

/// The ring shape both sides must agree on before any ciphertext moves.
pub(crate) fn hello_payload(ctx: &CkksContext) -> Vec<u8> {
    let mut p = Vec::with_capacity(HELLO_BYTES);
    p.extend_from_slice(&(ctx.n() as u32).to_le_bytes());
    p.extend_from_slice(&(ctx.boot_limbs() as u32).to_le_bytes());
    p.extend_from_slice(&ctx.q_modulus(0).value().to_le_bytes());
    p
}

/// Decodes a hello payload for diagnostics.
fn describe_hello(payload: &[u8]) -> String {
    if payload.len() != HELLO_BYTES {
        return format!("{} bytes", payload.len());
    }
    let n = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes"));
    let limbs = u32::from_le_bytes(payload[4..8].try_into().expect("4 bytes"));
    let q0 = u64::from_le_bytes(payload[8..].try_into().expect("8 bytes"));
    format!("(N={n}, limbs={limbs}, q0={q0})")
}

pub(crate) fn check_hello(local: &[u8], payload: &[u8]) -> Result<(), String> {
    if payload.len() != HELLO_BYTES {
        return Err(format!("hello payload is {} bytes", payload.len()));
    }
    if payload != local {
        return Err(format!(
            "ring shape mismatch: peer {} vs local {}",
            describe_hello(payload),
            describe_hello(local)
        ));
    }
    Ok(())
}

/// `HelloAck` payload: the ring shape followed by the key ids the node
/// caches (`u32 LE` count, then `u64 LE` ids, most recently used first).
fn hello_ack_payload(local_hello: &[u8], ids: &[KeyId]) -> Vec<u8> {
    let mut p = Vec::with_capacity(local_hello.len() + 4 + 8 * ids.len());
    p.extend_from_slice(local_hello);
    p.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for id in ids {
        p.extend_from_slice(&id.0.to_le_bytes());
    }
    p
}

/// Validates a `HelloAck` against the local ring shape and returns the
/// advertised cached key ids.
pub(crate) fn check_hello_ack(local: &[u8], payload: &[u8]) -> Result<Vec<u64>, String> {
    if payload.len() < HELLO_BYTES + 4 {
        return Err(format!("hello-ack payload is {} bytes", payload.len()));
    }
    check_hello(local, &payload[..HELLO_BYTES])?;
    let count = u32::from_le_bytes(
        payload[HELLO_BYTES..HELLO_BYTES + 4]
            .try_into()
            .expect("4 bytes"),
    ) as usize;
    let ids = &payload[HELLO_BYTES + 4..];
    if ids.len() != count.saturating_mul(8) {
        return Err(format!(
            "hello-ack advertises {count} keys but carries {} id bytes",
            ids.len()
        ));
    }
    Ok(ids
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect())
}

/// A `KeyAck`/`KeyNeed` reply payload is the echoed `u64 LE` key id.
fn check_key_reply(expected: u64, payload: &[u8]) -> Result<(), NodeError> {
    let bytes: [u8; 8] = payload
        .try_into()
        .map_err(|_| NodeError::Protocol(format!("key reply carried {} bytes", payload.len())))?;
    let got = u64::from_le_bytes(bytes);
    if got != expected {
        return Err(NodeError::Protocol(format!(
            "key reply echoed {got:016x}, offered {expected:016x}"
        )));
    }
    Ok(())
}

/// A secondary compute node reached over TCP.
///
/// The connection is request–response under an internal lock, so a
/// `RemoteNode` is safe to share; the scheduler gives each node one shard
/// per batch anyway. A failed exchange drops the connection, and the next
/// call (or [`RemoteNode::ping`] from the health prober) re-dials and
/// re-runs the Hello handshake — a restarted peer at the same address is
/// picked back up transparently.
pub struct RemoteNode {
    name: String,
    addr: String,
    /// The local ring shape, sent as `Hello` and expected back as the
    /// `HelloAck` prefix.
    hello: Vec<u8>,
    timeouts: NodeTimeouts,
    stream: Mutex<Option<TcpStream>>,
    ledger: Option<Arc<TransferLedger>>,
    /// The client's evaluation-key package; `None` rides the server's
    /// pre-loaded default key (the insecure-seed compatibility path).
    key: Option<Arc<KeyPackage>>,
    /// Key ids the server is known to hold: seeded from each `HelloAck`,
    /// extended by every `KeyAck`. Drives [`ServiceNode::holds_key`].
    known: Mutex<HashSet<u64>>,
}

impl RemoteNode {
    /// Connects and handshakes with the server at `addr` under
    /// [`NodeTimeouts::default`], validating that it serves the same ring
    /// shape as `ctx`.
    pub fn connect(addr: &str, ctx: &CkksContext) -> Result<Self, NodeError> {
        Self::connect_with(addr, ctx, NodeTimeouts::default())
    }

    /// [`RemoteNode::connect`] with explicit socket deadlines.
    pub fn connect_with(
        addr: &str,
        ctx: &CkksContext,
        timeouts: NodeTimeouts,
    ) -> Result<Self, NodeError> {
        Self::connect_inner(addr, ctx, timeouts, None)
    }

    /// [`RemoteNode::connect_with`], with the ledger attached *before*
    /// the first dial so the `Hello → HelloAck` handshake bytes are
    /// recorded as control frames. [`RemoteNode::with_ledger`] attaches
    /// after the constructor's handshake already happened, so exactness
    /// tests that account for every frame must use this instead.
    pub fn connect_with_ledger(
        addr: &str,
        ctx: &CkksContext,
        timeouts: NodeTimeouts,
        ledger: Arc<TransferLedger>,
    ) -> Result<Self, NodeError> {
        Self::connect_inner(addr, ctx, timeouts, Some(ledger))
    }

    fn connect_inner(
        addr: &str,
        ctx: &CkksContext,
        timeouts: NodeTimeouts,
        ledger: Option<Arc<TransferLedger>>,
    ) -> Result<Self, NodeError> {
        let node = Self {
            name: format!("remote-{addr}"),
            addr: addr.to_string(),
            hello: hello_payload(ctx),
            timeouts,
            stream: Mutex::new(None),
            ledger,
            key: None,
            known: Mutex::new(HashSet::new()),
        };
        let stream = node.dial()?;
        *node.lock_stream() = Some(stream);
        Ok(node)
    }

    /// Attaches a ledger; subsequent batches record measured socket bytes.
    pub fn with_ledger(mut self, ledger: Arc<TransferLedger>) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Attaches the evaluation-key package every batch must run under.
    /// Each batch is preceded by a `KeyOffer`; the encoded container is
    /// uploaded only when the server does not already cache the id.
    pub fn with_key(mut self, key: Arc<KeyPackage>) -> Self {
        self.key = Some(key);
        self
    }

    /// The key id this node's batches run under (`None` = server default).
    pub fn key_id(&self) -> Option<KeyId> {
        self.key.as_ref().map(|k| k.id)
    }

    /// The deadlines this node applies to its socket operations.
    pub fn timeouts(&self) -> NodeTimeouts {
        self.timeouts
    }

    /// A lock poisoned by a panicking peer thread still guards a valid
    /// `Option<TcpStream>`; recover it rather than cascading the panic.
    fn lock_stream(&self) -> std::sync::MutexGuard<'_, Option<TcpStream>> {
        self.stream
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_known(&self) -> std::sync::MutexGuard<'_, HashSet<u64>> {
        self.known
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Dials, applies deadlines, and runs the Hello handshake.
    fn dial(&self) -> Result<TcpStream, NodeError> {
        let t = self.timeouts;
        let sock = self
            .addr
            .to_socket_addrs()
            .map_err(|e| NodeError::Io(format!("resolve {}: {e}", self.addr)))?
            .next()
            .ok_or_else(|| NodeError::Io(format!("{} resolves to no address", self.addr)))?;
        let mut stream = match bounded(t.connect) {
            Some(d) => {
                TcpStream::connect_timeout(&sock, d).map_err(|e| io_error("connect", d, e))?
            }
            None => TcpStream::connect(sock).map_err(|e| io_error("connect", t.connect, e))?,
        };
        stream
            .set_nodelay(true)
            .map_err(|e| NodeError::Io(e.to_string()))?;
        stream
            .set_read_timeout(bounded(t.read))
            .map_err(|e| NodeError::Io(e.to_string()))?;
        stream
            .set_write_timeout(bounded(t.write))
            .map_err(|e| NodeError::Io(e.to_string()))?;
        let sent = write_frame(&mut stream, FrameKind::Hello, &self.hello)
            .map_err(|e| io_error("hello", t.write, e))?;
        let (kind, payload, received) =
            read_frame(&mut stream).map_err(|e| e.into_node("hello", t.read))?;
        if let Some(ledger) = &self.ledger {
            // Handshake frames in both directions are control traffic —
            // the reply counts whether it is a HelloAck or an Error.
            ledger.record_control_sent(sent);
            ledger.record_control_received(received);
        }
        match kind {
            FrameKind::HelloAck => {
                let ids = check_hello_ack(&self.hello, &payload).map_err(NodeError::Protocol)?;
                // A fresh handshake resets what we believe the server
                // holds — a restarted peer starts with an empty cache.
                let mut known = self.lock_known();
                known.clear();
                known.extend(ids);
            }
            FrameKind::Error => {
                return Err(NodeError::Remote(
                    String::from_utf8_lossy(&payload).into_owned(),
                ))
            }
            other => {
                return Err(NodeError::Protocol(format!(
                    "expected HelloAck, got {other:?}"
                )))
            }
        }
        Ok(stream)
    }

    /// One request–response exchange, (re)dialing first when no live
    /// connection is held. Any transport or framing failure drops the
    /// connection so the next call starts fresh; a well-formed `Error`
    /// frame keeps it (the session is still in sync).
    fn exchange(
        &self,
        request: FrameKind,
        payload: &[u8],
        expect: FrameKind,
    ) -> Result<(Vec<u8>, u64, u64), NodeError> {
        let (_, reply, sent, received) = self.exchange_any(request, payload, &[expect])?;
        Ok((reply, sent, received))
    }

    /// [`Self::exchange`] accepting any of several reply kinds — the key
    /// handshake's offer legitimately gets either `KeyAck` or `KeyNeed`.
    fn exchange_any(
        &self,
        request: FrameKind,
        payload: &[u8],
        expect: &[FrameKind],
    ) -> Result<(FrameKind, Vec<u8>, u64, u64), NodeError> {
        let t = self.timeouts;
        let mut guard = self.lock_stream();
        if guard.is_none() {
            *guard = Some(self.dial()?);
        }
        let stream = guard.as_mut().expect("stream just ensured");
        let result = (|| {
            let sent =
                write_frame(stream, request, payload).map_err(|e| io_error("write", t.write, e))?;
            let (kind, reply, received) =
                read_frame(stream).map_err(|e| e.into_node("read", t.read))?;
            match kind {
                k if expect.contains(&k) => Ok((k, reply, sent, received)),
                FrameKind::Error => {
                    // An Error frame is control traffic regardless of
                    // what the request was; keep it visible.
                    if let Some(ledger) = &self.ledger {
                        ledger.record_control_received(received);
                    }
                    Err(NodeError::Remote(
                        String::from_utf8_lossy(&reply).into_owned(),
                    ))
                }
                other => Err(NodeError::Protocol(format!(
                    "expected one of {expect:?}, got {other:?}"
                ))),
            }
        })();
        if !matches!(result, Ok(_) | Err(NodeError::Remote(_))) {
            *guard = None;
        }
        result
    }

    /// Ensures the server holds `key` before a batch: one `KeyOffer` per
    /// batch — the server's single *counted* cache lookup, so its
    /// hit/miss telemetry matches the driven workload one-to-one — and a
    /// `KeyUpload` of the encoded container only on `KeyNeed`. All key
    /// frames land in the ledger's key counters.
    fn offer_key(&self, key: &KeyPackage) -> Result<(), NodeError> {
        let offer = key.id.0.to_le_bytes();
        let (kind, reply, sent, received) = self.exchange_any(
            FrameKind::KeyOffer,
            &offer,
            &[FrameKind::KeyAck, FrameKind::KeyNeed],
        )?;
        if let Some(ledger) = &self.ledger {
            ledger.record_key_sent(sent);
            ledger.record_key_received(received);
        }
        check_key_reply(key.id.0, &reply)?;
        if kind == FrameKind::KeyAck {
            self.lock_known().insert(key.id.0);
            return Ok(());
        }
        let mut upload = Vec::with_capacity(8 + key.bytes.len());
        upload.extend_from_slice(&key.id.0.to_le_bytes());
        upload.extend_from_slice(&key.bytes);
        let (reply, sent, received) =
            self.exchange(FrameKind::KeyUpload, &upload, FrameKind::KeyAck)?;
        if let Some(ledger) = &self.ledger {
            ledger.record_key_sent(sent);
            ledger.record_key_received(received);
        }
        check_key_reply(key.id.0, &reply)?;
        self.lock_known().insert(key.id.0);
        Ok(())
    }

    /// Liveness round trip: reconnect + re-handshake if needed, then
    /// `Ping → Pong`. This is what the scheduler's health prober calls to
    /// decide readmission.
    pub fn ping(&self) -> Result<(), NodeError> {
        let (reply, sent, received) = self.exchange(FrameKind::Ping, &[], FrameKind::Pong)?;
        if let Some(ledger) = &self.ledger {
            ledger.record_control_sent(sent);
            ledger.record_control_received(received);
        }
        if reply.is_empty() {
            Ok(())
        } else {
            Err(NodeError::Protocol(format!(
                "pong carried {} unexpected bytes",
                reply.len()
            )))
        }
    }

    /// Fetches the server's telemetry counters over the session
    /// (`StatsReq → StatsResp`): the node's [`NodeTelemetry`] tallies
    /// plus its per-stage histogram `_count`/`_sum` totals, as flat
    /// `(name, value)` pairs in the server's registration order.
    pub fn fetch_stats(&self) -> Result<Vec<(String, u64)>, NodeError> {
        let (reply, sent, received) =
            self.exchange(FrameKind::StatsReq, &[], FrameKind::StatsResp)?;
        if let Some(ledger) = &self.ledger {
            ledger.record_control_sent(sent);
            ledger.record_control_received(received);
        }
        decode_stats(&reply).map_err(NodeError::Protocol)
    }

    /// One blind-rotate exchange: key offer (if keyed), request out,
    /// attested response back. The response payload leads with the
    /// server-computed FNV-1a digest; the digest is verified against the
    /// received payload bytes *here*, before decoding, so a flip the
    /// frame CRC window missed (or a corrupt server-side buffer) is a
    /// typed error instead of garbage accumulators.
    fn rotate_exchange(&self, lwes: &[LweCiphertext]) -> Result<AttestedBatch, NodeError> {
        let key_id = match &self.key {
            Some(key) => {
                self.offer_key(key)?;
                key.id.0
            }
            // Sentinel 0: run under the server's pre-loaded default key.
            None => 0,
        };
        let batch = lwe_batch_to_wire(lwes);
        let mut request = Vec::with_capacity(8 + batch.len());
        request.extend_from_slice(&key_id.to_le_bytes());
        request.extend_from_slice(&batch);
        let (payload, sent, received) = self.exchange(
            FrameKind::BlindRotateReq,
            &request,
            FrameKind::BlindRotateResp,
        )?;
        if let Some(ledger) = &self.ledger {
            ledger.record_scatter(lwes.len() as u64, sent);
        }
        if payload.len() < RESP_DIGEST_BYTES as usize {
            return Err(NodeError::Protocol(format!(
                "blind-rotate response carried {} bytes, no digest",
                payload.len()
            )));
        }
        let (digest_bytes, body) = payload.split_at(RESP_DIGEST_BYTES as usize);
        let digest = u64::from_le_bytes(digest_bytes.try_into().expect("8 bytes"));
        if heap_math::wire::fnv1a(body) != digest {
            return Err(NodeError::Corrupt {
                frame: "BlindRotateResp".to_string(),
                phase: "attest",
            });
        }
        let accs = rlwe_batch_from_wire(body)
            .map_err(|e| NodeError::Protocol(format!("bad accumulator batch: {e:?}")))?;
        if accs.len() != lwes.len() {
            return Err(NodeError::Mismatch("accumulator count != request count"));
        }
        if let Some(ledger) = &self.ledger {
            ledger.record_gather(accs.len() as u64, received);
        }
        Ok(AttestedBatch { accs, digest })
    }

    /// Best-effort clean session end (the server closes the connection).
    pub fn shutdown(&self) {
        if let Some(stream) = self.lock_stream().as_mut() {
            if let Ok(sent) = write_frame(stream, FrameKind::Shutdown, &[]) {
                if let Some(ledger) = &self.ledger {
                    ledger.record_control_sent(sent);
                }
            }
        }
    }
}

impl std::fmt::Debug for RemoteNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteNode")
            .field("name", &self.name)
            .field("timeouts", &self.timeouts)
            .finish()
    }
}

impl ServiceNode for RemoteNode {
    fn try_blind_rotate_batch(
        &self,
        _ctx: &CkksContext,
        _boot: &Bootstrapper,
        lwes: &[LweCiphertext],
    ) -> Result<Vec<RlweCiphertext>, NodeError> {
        self.rotate_exchange(lwes).map(|attested| attested.accs)
    }

    /// The attested batch carries the digest the *server* computed (the
    /// wire prefix), not a client-side recomputation — so the scheduler's
    /// verification spans the whole transport.
    fn try_blind_rotate_attested(
        &self,
        _ctx: &CkksContext,
        _boot: &Bootstrapper,
        lwes: &[LweCiphertext],
    ) -> Result<AttestedBatch, NodeError> {
        self.rotate_exchange(lwes)
    }

    fn probe(&self) -> Result<(), NodeError> {
        self.ping()
    }

    fn holds_key(&self) -> bool {
        match &self.key {
            // What the last HelloAck advertised plus every KeyAck since.
            Some(key) => self.lock_known().contains(&key.id.0),
            // Default-key batches never need an upload.
            None => true,
        }
    }

    fn name(&self) -> String {
        self.name.clone()
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
    let resident = set.to_strict_wire(&ctx).len();
    store.lock().insert(set.id(), Arc::clone(&boot), resident);
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
fn server_frame_err(e: FrameError) -> NodeError {
    e.into_node("read", Duration::ZERO)
}

/// How a fault action tampers with a blind-rotate reply that is
/// otherwise served normally.
#[derive(PartialEq)]
enum Tamper {
    None,
    /// Flip one payload bit after the header CRC is computed.
    Flip,
    /// Drop the last accumulator (internally-consistent short reply).
    Truncate,
}

fn handle_connection(
    mut stream: TcpStream,
    ctx: &CkksContext,
    state: &ServerState,
) -> Result<(), NodeError> {
    stream
        .set_nodelay(true)
        .map_err(|e| NodeError::Io(e.to_string()))?;
    // A dead or stalled *client* must not wedge this connection thread
    // forever on a blocked write; reads stay unbounded (idle sessions —
    // e.g. a prober holding a connection open — are normal).
    stream
        .set_write_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| NodeError::Io(e.to_string()))?;
    let local_hello = hello_payload(ctx);
    let (kind, payload, _) = read_frame(&mut stream).map_err(server_frame_err)?;
    if kind != FrameKind::Hello {
        state.telemetry.errors.inc();
        let _ = write_frame(&mut stream, FrameKind::Error, b"expected Hello");
        return Err(NodeError::Protocol("expected Hello".into()));
    }
    if let Err(why) = check_hello(&local_hello, &payload) {
        state.telemetry.errors.inc();
        let _ = write_frame(&mut stream, FrameKind::Error, why.as_bytes());
        return Err(NodeError::Protocol(why));
    }
    let ack = hello_ack_payload(&local_hello, &state.keys.lock().ids());
    write_frame(&mut stream, FrameKind::HelloAck, &ack)
        .map_err(|e| NodeError::Io(e.to_string()))?;
    let moduli: Vec<u64> = (0..ctx.boot_limbs())
        .map(|j| ctx.rns().modulus(j).value())
        .collect();
    loop {
        let (kind, payload, _) = read_frame(&mut stream).map_err(server_frame_err)?;
        match kind {
            FrameKind::BlindRotateReq => {
                if let Some(limit) = state.fail_after {
                    if state.served.fetch_add(1, Ordering::Relaxed) >= limit {
                        state.poisoned.store(true, Ordering::Relaxed);
                        // Die mid-request: no reply, connection dropped.
                        return Ok(());
                    }
                }
                let mut tamper = Tamper::None;
                if let Some(fault) = &state.fault {
                    match fault.next_action() {
                        FaultAction::Pass => {}
                        FaultAction::Fail => {
                            state.telemetry.errors.inc();
                            write_frame(&mut stream, FrameKind::Error, b"injected fault: fail")
                                .map_err(|e| NodeError::Io(e.to_string()))?;
                            continue;
                        }
                        FaultAction::Delay(d) => std::thread::sleep(d),
                        FaultAction::Hang(d) => {
                            // Go silent: the client's read deadline, not
                            // this server, must end the exchange.
                            std::thread::sleep(d.unwrap_or(HANG_FOREVER));
                            return Ok(());
                        }
                        FaultAction::Corrupt => {
                            // A garbage header (full header-sized, wrong
                            // magic), then close.
                            let junk = [
                                0xDEu8, 0xAD, 0xBE, 0xEF, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                12,
                            ];
                            debug_assert_eq!(junk.len() as u64, FRAME_HEADER_BYTES);
                            let _ = stream.write_all(&junk);
                            let _ = stream.flush();
                            return Ok(());
                        }
                        FaultAction::Drop => return Ok(()),
                        // Silent wire corruption and shape truncation
                        // tamper with the *reply*; the request is served
                        // normally first. A stall is served normally too,
                        // just late.
                        FaultAction::Flip => tamper = Tamper::Flip,
                        FaultAction::Truncate => tamper = Tamper::Truncate,
                        FaultAction::Stall(d) => std::thread::sleep(d),
                    }
                }
                if payload.len() < 8 {
                    let why = "blind-rotate request missing key id".to_string();
                    state.telemetry.errors.inc();
                    let _ = write_frame(&mut stream, FrameKind::Error, why.as_bytes());
                    return Err(NodeError::Protocol(why));
                }
                let key_id = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
                // Uncounted resolution: the KeyOffer preceding a keyed
                // batch already accounted the cache lookup.
                let boot = if key_id == 0 {
                    state.default_boot.clone()
                } else {
                    state.keys.lock().peek(KeyId(key_id)).cloned()
                };
                let Some(boot) = boot else {
                    let why = if key_id == 0 {
                        "keyless node has no default key; upload one".to_string()
                    } else {
                        format!("key {key_id:016x} not resident")
                    };
                    state.telemetry.errors.inc();
                    write_frame(&mut stream, FrameKind::Error, why.as_bytes())
                        .map_err(|e| NodeError::Io(e.to_string()))?;
                    continue;
                };
                let lwes = match lwe_batch_from_wire(&payload[8..]) {
                    Ok(lwes) => lwes,
                    Err(e) => {
                        let why = format!("bad LWE batch: {e:?}");
                        state.telemetry.errors.inc();
                        let _ = write_frame(&mut stream, FrameKind::Error, why.as_bytes());
                        return Err(NodeError::Protocol(why));
                    }
                };
                let mut accs = boot.blind_rotate_batch_par(ctx, &lwes, state.parallelism);
                if tamper == Tamper::Truncate {
                    // The old shape-bug model: one accumulator short,
                    // but internally consistent (the digest covers the
                    // truncated batch), so only the client's count check
                    // can catch it.
                    accs.pop();
                }
                let body = rlwe_batch_to_wire(&accs, &moduli);
                let mut resp = Vec::with_capacity(RESP_DIGEST_BYTES as usize + body.len());
                resp.extend_from_slice(&heap_math::wire::fnv1a(&body).to_le_bytes());
                resp.extend_from_slice(&body);
                if tamper == Tamper::Flip {
                    // Silent wire corruption: the header (and its CRC)
                    // is computed over the *correct* payload, then one
                    // payload bit is flipped on the way out. The stream
                    // stays length-synced, so only the client's checksum
                    // can tell.
                    let header = frame_header(FrameKind::BlindRotateResp, &resp);
                    let mid = resp.len() / 2;
                    resp[mid] ^= 1;
                    stream
                        .write_all(&header)
                        .and_then(|()| stream.write_all(&resp))
                        .and_then(|()| stream.flush())
                        .map_err(|e| NodeError::Io(e.to_string()))?;
                } else {
                    write_frame(&mut stream, FrameKind::BlindRotateResp, &resp)
                        .map_err(|e| NodeError::Io(e.to_string()))?;
                }
                state.telemetry.requests.inc();
                state.telemetry.lwes.add(lwes.len() as u64);
            }
            FrameKind::KeyOffer => {
                let id = match <[u8; 8]>::try_from(payload.as_slice()) {
                    Ok(b) => u64::from_le_bytes(b),
                    Err(_) => {
                        let why = format!("key offer carried {} bytes", payload.len());
                        state.telemetry.errors.inc();
                        let _ = write_frame(&mut stream, FrameKind::Error, why.as_bytes());
                        return Err(NodeError::Protocol(why));
                    }
                };
                // The one counted lookup per batch: hits/misses must
                // match the driven workload one-to-one.
                let hit = state.keys.lock().lookup(KeyId(id)).is_some();
                let reply = if hit {
                    FrameKind::KeyAck
                } else {
                    FrameKind::KeyNeed
                };
                write_frame(&mut stream, reply, &id.to_le_bytes())
                    .map_err(|e| NodeError::Io(e.to_string()))?;
            }
            FrameKind::KeyUpload => {
                if payload.len() < 8 {
                    let why = "key upload missing id".to_string();
                    state.telemetry.errors.inc();
                    let _ = write_frame(&mut stream, FrameKind::Error, why.as_bytes());
                    return Err(NodeError::Protocol(why));
                }
                let id = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
                let encoded = &payload[8..];
                let set = match EvalKeySet::from_wire(ctx, encoded) {
                    Ok(set) => set,
                    Err(e) => {
                        // Session stays in sync: Error frame, keep going.
                        let why = format!("bad key upload: {e:?}");
                        state.telemetry.errors.inc();
                        write_frame(&mut stream, FrameKind::Error, why.as_bytes())
                            .map_err(|e| NodeError::Io(e.to_string()))?;
                        continue;
                    }
                };
                // The parity oracle: the id recomputed from the strict
                // re-encoding of the expanded keys must equal the offer.
                if set.id().0 != id {
                    let why = format!(
                        "key id parity failure: offered {id:016x}, expanded to {}",
                        set.id()
                    );
                    state.telemetry.errors.inc();
                    write_frame(&mut stream, FrameKind::Error, why.as_bytes())
                        .map_err(|e| NodeError::Io(e.to_string()))?;
                    continue;
                }
                let bytes = encoded.len();
                let boot = Arc::new(set.into_bootstrapper(ctx));
                state.keys.lock().insert(KeyId(id), boot, bytes);
                write_frame(&mut stream, FrameKind::KeyAck, &id.to_le_bytes())
                    .map_err(|e| NodeError::Io(e.to_string()))?;
            }
            FrameKind::Ping => {
                write_frame(&mut stream, FrameKind::Pong, &[])
                    .map_err(|e| NodeError::Io(e.to_string()))?;
                state.telemetry.pings.inc();
            }
            FrameKind::StatsReq => {
                // Node counters, the key cache, then per-stage histograms
                // from the default key's bootstrapper (or, keyless, the
                // most recently used cached one) — the same registries a
                // local metrics endpoint would expose.
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
                write_frame(&mut stream, FrameKind::StatsResp, &encode_stats(&entries))
                    .map_err(|e| NodeError::Io(e.to_string()))?;
            }
            FrameKind::Shutdown => return Ok(()),
            other => {
                let why = format!("unexpected frame {other:?}");
                state.telemetry.errors.inc();
                let _ = write_frame(&mut stream, FrameKind::Error, why.as_bytes());
                return Err(NodeError::Protocol(why));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preset::{insecure_deterministic_setup, DeterministicSetup, ParamPreset};
    use std::sync::OnceLock;

    fn setup() -> &'static DeterministicSetup {
        static SETUP: OnceLock<DeterministicSetup> = OnceLock::new();
        SETUP.get_or_init(|| insecure_deterministic_setup(ParamPreset::Tiny, 99))
    }

    /// Binds an ephemeral port, spawns the server, returns its address.
    fn spawn_server(opts: ServeOptions) -> String {
        let s = setup();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let (ctx, boot) = (Arc::clone(&s.ctx), Arc::clone(&s.boot));
        std::thread::spawn(move || serve(listener, ctx, boot, opts));
        addr
    }

    fn test_lwes(count: usize) -> Vec<LweCiphertext> {
        let s = setup();
        let two_n = 2 * s.ctx.n() as u64;
        (0..count)
            .map(|i| LweCiphertext {
                a: (0..s.boot.config().n_t)
                    .map(|j| ((i * 31 + j * 7) as u64) % two_n)
                    .collect(),
                b: (i as u64 * 13) % two_n,
                modulus: two_n,
            })
            .collect()
    }

    #[test]
    fn fixed_length_kinds_are_refused_on_the_header_alone() {
        // One wrong announcement per length class; the 1 GiB one would
        // pass the `MAX_FRAME` bound a variable-length kind gets.
        for (kind, announced) in [
            (FrameKind::Ping, MAX_FRAME),
            (FrameKind::Pong, 1),
            (FrameKind::StatsReq, 1),
            (FrameKind::Shutdown, 1),
            (FrameKind::Hello, MAX_FRAME),
            (FrameKind::Hello, 0),
            (FrameKind::KeyOffer, MAX_FRAME),
            (FrameKind::KeyNeed, 9),
            (FrameKind::KeyAck, 0),
        ] {
            let mut wire = frame_header(kind, &[]).to_vec();
            wire[5..13].copy_from_slice(&announced.to_le_bytes());
            wire.extend_from_slice(&[0u8; 64]);
            let mut r = std::io::Cursor::new(wire);
            match read_frame(&mut r) {
                Err(FrameError::Protocol(why)) => assert!(why.contains("fixes"), "{why}"),
                other => panic!("{kind:?} announcing {announced}: {other:?}"),
            }
            assert_eq!(r.position(), FRAME_HEADER_BYTES, "{kind:?}: payload read");
        }
        // The right lengths still parse.
        for (kind, payload) in [
            (FrameKind::Ping, &[][..]),
            (FrameKind::Hello, &[7u8; HELLO_BYTES][..]),
            (FrameKind::KeyOffer, &[7u8; 8][..]),
        ] {
            let mut wire = Vec::new();
            write_frame(&mut wire, kind, payload).expect("write");
            let (got, body, _) = read_frame(&mut wire.as_slice()).expect("read");
            assert_eq!((got, body.as_slice()), (kind, payload));
        }
    }

    #[test]
    fn remote_round_trip_is_bit_identical_to_local() {
        let s = setup();
        let addr = spawn_server(ServeOptions {
            parallelism: Parallelism::with_threads(2),
            ..ServeOptions::default()
        });
        let node = RemoteNode::connect(&addr, &s.ctx).expect("connect");
        let lwes = test_lwes(5);
        let remote = node
            .try_blind_rotate_batch(&s.ctx, &s.boot, &lwes)
            .expect("remote batch");
        let local = s
            .boot
            .blind_rotate_batch_par(&s.ctx, &lwes, Parallelism::serial());
        let moduli: Vec<u64> = (0..s.ctx.boot_limbs())
            .map(|j| s.ctx.rns().modulus(j).value())
            .collect();
        assert_eq!(remote.len(), local.len());
        for (r, l) in remote.iter().zip(&local) {
            assert_eq!(r.to_wire(&moduli), l.to_wire(&moduli));
        }
        node.shutdown();
    }

    #[test]
    fn ledger_measures_actual_socket_bytes() {
        let s = setup();
        let addr = spawn_server(ServeOptions::default());
        let ledger = Arc::new(TransferLedger::default());
        let node = RemoteNode::connect(&addr, &s.ctx)
            .expect("connect")
            .with_ledger(Arc::clone(&ledger));
        let lwes = test_lwes(3);
        let accs = node
            .try_blind_rotate_batch(&s.ctx, &s.boot, &lwes)
            .expect("remote batch");
        let moduli: Vec<u64> = (0..s.ctx.boot_limbs())
            .map(|j| s.ctx.rns().modulus(j).value())
            .collect();
        assert_eq!(ledger.lwe_sent(), 3);
        assert_eq!(ledger.rlwe_received(), 3);
        // Measured bytes = frame header + the 8-byte key id + the exact
        // encoded payload (replies additionally lead with the 8-byte
        // attestation digest).
        assert_eq!(
            ledger.lwe_bytes_sent(),
            FRAME_HEADER_BYTES + 8 + heap_tfhe::lwe_batch_wire_size(&lwes) as u64
        );
        assert_eq!(
            ledger.rlwe_bytes_received(),
            FRAME_HEADER_BYTES
                + RESP_DIGEST_BYTES
                + heap_tfhe::rlwe_batch_wire_size(&accs, &moduli) as u64
        );
        node.shutdown();
    }

    #[test]
    fn stats_round_trip_reports_served_work() {
        let s = setup();
        let telemetry = NodeTelemetry::new();
        let addr = spawn_server(ServeOptions {
            parallelism: Parallelism::serial(),
            telemetry: Some(telemetry.clone()),
            ..ServeOptions::default()
        });
        let node = RemoteNode::connect(&addr, &s.ctx).expect("connect");
        node.try_blind_rotate_batch(&s.ctx, &s.boot, &test_lwes(3))
            .expect("batch");
        node.ping().expect("ping");
        let stats = node.fetch_stats().expect("stats");
        let get = |name: &str| {
            stats
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("stat '{name}' missing from {stats:?}"))
                .1
        };
        assert_eq!(get("node_heap_node_requests_total"), 1);
        assert_eq!(get("node_heap_node_lwes_total"), 3);
        assert_eq!(get("node_heap_node_pings_total"), 1);
        assert_eq!(get("node_heap_node_errors_total"), 0);
        // The remote report reads the same atomics as the local handle.
        assert_eq!(telemetry.requests.get(), 1);
        assert_eq!(telemetry.lwes.get(), 3);
        // Per-stage histograms ride along. The bootstrapper (and hence
        // its stage registry) is shared by every test in this module, so
        // only lower-bound the count.
        assert!(get("core_heap_stage_blind_rotate_ns_count") >= 1);
        assert!(get("core_heap_stage_blind_rotate_ns_sum") > 0);
        node.shutdown();
    }

    #[test]
    fn stats_encoding_round_trips() {
        let entries = vec![
            ("a".to_string(), 0u64),
            ("heap_node_requests_total".to_string(), u64::MAX),
            ("x_y".to_string(), 42),
        ];
        assert_eq!(decode_stats(&encode_stats(&entries)).unwrap(), entries);
        assert_eq!(decode_stats(&encode_stats(&[])).unwrap(), vec![]);
        assert!(decode_stats(&[1, 0, 0, 0]).is_err(), "truncated");
        // A hostile count must be a typed error, not a 137 GB allocation.
        assert!(decode_stats(&[0xFF; 4]).is_err(), "count with no entries");
        let mut overcount = encode_stats(&entries);
        overcount[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_stats(&overcount).is_err(), "count beyond entries");
        let mut trailing = encode_stats(&entries);
        trailing.push(0);
        assert!(decode_stats(&trailing).is_err(), "trailing bytes");
    }

    #[test]
    fn ledger_records_control_frames_including_handshake() {
        let s = setup();
        let addr = spawn_server(ServeOptions::default());
        let ledger = Arc::new(TransferLedger::default());
        let node = RemoteNode::connect_with_ledger(
            &addr,
            &s.ctx,
            NodeTimeouts::default(),
            Arc::clone(&ledger),
        )
        .expect("connect");
        // Handshake: Hello out (16-byte shape), HelloAck back (shape +
        // u32 count + one advertised key id — `serve` registers its
        // default key in the cache).
        assert_eq!(ledger.control_frames_sent(), 1);
        assert_eq!(ledger.control_frames_received(), 1);
        assert_eq!(ledger.control_bytes_sent(), FRAME_HEADER_BYTES + 16);
        assert_eq!(
            ledger.control_bytes_received(),
            FRAME_HEADER_BYTES + 16 + 4 + 8
        );
        // Ping/Pong: empty payloads, header-only frames.
        node.ping().expect("ping");
        assert_eq!(ledger.control_frames_sent(), 2);
        assert_eq!(ledger.control_frames_received(), 2);
        assert_eq!(ledger.control_bytes_sent(), 2 * FRAME_HEADER_BYTES + 16);
        // Payload counters stay untouched by control traffic.
        assert_eq!(ledger.lwe_bytes_sent(), 0);
        assert_eq!(ledger.rlwe_bytes_received(), 0);
        node.shutdown();
        assert_eq!(ledger.control_frames_sent(), 3);
    }

    #[test]
    fn ledger_counts_error_frames_as_control() {
        let s = setup();
        let addr = spawn_server(ServeOptions {
            parallelism: Parallelism::serial(),
            fault_plan: Some("fail".parse().expect("plan")),
            ..ServeOptions::default()
        });
        let ledger = Arc::new(TransferLedger::default());
        let node = RemoteNode::connect_with_ledger(
            &addr,
            &s.ctx,
            NodeTimeouts::default(),
            Arc::clone(&ledger),
        )
        .expect("connect");
        let before = ledger.control_frames_received();
        node.try_blind_rotate_batch(&s.ctx, &s.boot, &test_lwes(1))
            .expect_err("injected fail");
        assert_eq!(
            ledger.control_frames_received(),
            before + 1,
            "the Error frame must be visible as control traffic"
        );
        node.shutdown();
    }

    #[test]
    fn fail_after_drops_connection_mid_stream() {
        let s = setup();
        let addr = spawn_server(ServeOptions {
            parallelism: Parallelism::serial(),
            fail_after: Some(1),
            ..ServeOptions::default()
        });
        let node = RemoteNode::connect(&addr, &s.ctx).expect("connect");
        let lwes = test_lwes(2);
        node.try_blind_rotate_batch(&s.ctx, &s.boot, &lwes)
            .expect("first batch served");
        let err = node
            .try_blind_rotate_batch(&s.ctx, &s.boot, &lwes)
            .expect_err("second batch must fail");
        assert!(matches!(err, NodeError::Io(_)), "got {err:?}");
        // The node is dead for new connections too (the next attempt
        // re-dials internally and sees EOF before HelloAck).
        assert!(node.ping().is_err());
    }

    #[test]
    fn handshake_rejects_wrong_ring_shape() {
        let s = setup();
        let addr = spawn_server(ServeOptions::default());
        // Speak the protocol directly with a bogus Hello (wrong N).
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let mut bogus = hello_payload(&s.ctx);
        bogus[0] ^= 0xFF;
        write_frame(&mut stream, FrameKind::Hello, &bogus).expect("write hello");
        let (kind, payload, _) = read_frame(&mut stream)
            .map_err(server_frame_err)
            .expect("read reply");
        assert_eq!(kind, FrameKind::Error);
        assert!(String::from_utf8_lossy(&payload).contains("mismatch"));
    }

    #[test]
    fn connect_to_closed_port_fails_cleanly() {
        let s = setup();
        // Bind then drop: the port is (momentarily) closed.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        assert!(matches!(
            RemoteNode::connect(&addr, &s.ctx),
            Err(NodeError::Io(_))
        ));
    }

    #[test]
    fn ping_pong_round_trips_and_survives_reconnect() {
        let s = setup();
        let addr = spawn_server(ServeOptions::default());
        let node = RemoteNode::connect(&addr, &s.ctx).expect("connect");
        node.ping().expect("first ping");
        // Break the held connection; ping must transparently re-dial and
        // re-handshake.
        *node.lock_stream() = None;
        node.ping().expect("ping after reconnect");
        assert!(ServiceNode::probe(&node).is_ok());
        node.shutdown();
    }

    #[test]
    fn hung_server_surfaces_as_read_timeout() {
        let s = setup();
        let addr = spawn_server(ServeOptions {
            parallelism: Parallelism::serial(),
            fault_plan: Some("hang".parse().expect("plan")),
            ..ServeOptions::default()
        });
        let timeouts = NodeTimeouts {
            read: Duration::from_millis(200),
            ..NodeTimeouts::default()
        };
        let node = RemoteNode::connect_with(&addr, &s.ctx, timeouts).expect("connect");
        let err = node
            .try_blind_rotate_batch(&s.ctx, &s.boot, &test_lwes(1))
            .expect_err("hung server must time out");
        assert_eq!(
            err,
            NodeError::Timeout {
                phase: "read",
                after: Duration::from_millis(200)
            }
        );
    }

    #[test]
    fn connect_to_unroutable_peer_times_out() {
        let s = setup();
        // RFC 5737 TEST-NET-1: guaranteed unroutable, so connect hangs
        // until the deadline rather than being refused.
        let timeouts = NodeTimeouts {
            connect: Duration::from_millis(150),
            ..NodeTimeouts::default()
        };
        match RemoteNode::connect_with("192.0.2.1:7001", &s.ctx, timeouts) {
            Err(NodeError::Timeout { phase, after }) => {
                assert_eq!(phase, "connect");
                assert_eq!(after, Duration::from_millis(150));
            }
            // Some sandboxed environments refuse instead of dropping.
            Err(NodeError::Io(_)) => {}
            other => panic!("expected connect timeout, got {other:?}"),
        }
    }

    #[test]
    fn fault_plan_error_frame_is_typed_remote_error() {
        let s = setup();
        let addr = spawn_server(ServeOptions {
            parallelism: Parallelism::serial(),
            fault_plan: Some("fail".parse().expect("plan")),
            ..ServeOptions::default()
        });
        let node = RemoteNode::connect(&addr, &s.ctx).expect("connect");
        let err = node
            .try_blind_rotate_batch(&s.ctx, &s.boot, &test_lwes(1))
            .expect_err("injected fail");
        assert!(
            matches!(err, NodeError::Remote(ref m) if m.contains("injected")),
            "{err:?}"
        );
        // The plan is spent: the same node now serves correctly, on the
        // same session (Error frames keep the connection).
        node.try_blind_rotate_batch(&s.ctx, &s.boot, &test_lwes(1))
            .expect("served after plan exhausted");
    }

    #[test]
    fn fault_plan_corrupt_frame_is_protocol_error_then_recovers() {
        let s = setup();
        let addr = spawn_server(ServeOptions {
            parallelism: Parallelism::serial(),
            fault_plan: Some("corrupt".parse().expect("plan")),
            ..ServeOptions::default()
        });
        let node = RemoteNode::connect(&addr, &s.ctx).expect("connect");
        let err = node
            .try_blind_rotate_batch(&s.ctx, &s.boot, &test_lwes(1))
            .expect_err("corrupt frame");
        assert!(matches!(err, NodeError::Protocol(_)), "{err:?}");
        // Reconnect picks the node back up once the plan is exhausted.
        node.try_blind_rotate_batch(&s.ctx, &s.boot, &test_lwes(1))
            .expect("served after reconnect");
    }

    #[test]
    fn flip_plan_is_detected_at_crc_layer_then_recovers() {
        let s = setup();
        let addr = spawn_server(ServeOptions {
            parallelism: Parallelism::serial(),
            fault_plan: Some("flip".parse().expect("plan")),
            ..ServeOptions::default()
        });
        let node = RemoteNode::connect(&addr, &s.ctx).expect("connect");
        let err = node
            .try_blind_rotate_batch(&s.ctx, &s.boot, &test_lwes(2))
            .expect_err("flipped payload bit");
        assert_eq!(
            err,
            NodeError::Corrupt {
                frame: "BlindRotateResp".to_string(),
                phase: "crc"
            }
        );
        // The connection was dropped on the integrity failure; the next
        // call re-dials and the exhausted plan serves correctly.
        node.try_blind_rotate_batch(&s.ctx, &s.boot, &test_lwes(2))
            .expect("served after plan exhausted");
    }

    #[test]
    fn stall_plan_replies_correctly_just_late() {
        let s = setup();
        let addr = spawn_server(ServeOptions {
            parallelism: Parallelism::serial(),
            fault_plan: Some("stall:300".parse().expect("plan")),
            ..ServeOptions::default()
        });
        let node = RemoteNode::connect(&addr, &s.ctx).expect("connect");
        let lwes = test_lwes(2);
        let t0 = std::time::Instant::now();
        let stalled = node
            .try_blind_rotate_batch(&s.ctx, &s.boot, &lwes)
            .expect("stalled reply is still correct");
        assert!(t0.elapsed() >= Duration::from_millis(300));
        let reference = s
            .boot
            .blind_rotate_batch_par(&s.ctx, &lwes, Parallelism::serial());
        let moduli: Vec<u64> = (0..s.ctx.boot_limbs())
            .map(|j| s.ctx.rns().modulus(j).value())
            .collect();
        for (got, want) in stalled.iter().zip(&reference) {
            assert_eq!(got.to_wire(&moduli), want.to_wire(&moduli));
        }
        node.shutdown();
    }

    #[test]
    fn truncate_plan_is_a_shape_mismatch() {
        let s = setup();
        let addr = spawn_server(ServeOptions {
            parallelism: Parallelism::serial(),
            fault_plan: Some("truncate".parse().expect("plan")),
            ..ServeOptions::default()
        });
        let node = RemoteNode::connect(&addr, &s.ctx).expect("connect");
        // The truncated reply is internally consistent (CRC and digest
        // both cover the short batch), so only the count check fires —
        // the regression guard for the old `corrupt` pop-one semantics.
        let err = node
            .try_blind_rotate_batch(&s.ctx, &s.boot, &test_lwes(2))
            .expect_err("short reply");
        assert_eq!(
            err,
            NodeError::Mismatch("accumulator count != request count")
        );
    }

    /// Attestation catches what the frame CRC cannot: corruption that
    /// happens *before* the wire checksum is computed (bad node RAM, a
    /// buggy backend). The rogue server here flips an accumulator bit
    /// and then frames the tampered payload honestly — CRC valid,
    /// digest stale.
    #[test]
    fn attestation_catches_corruption_the_crc_misses() {
        let s = setup();
        let moduli: Vec<u64> = (0..s.ctx.boot_limbs())
            .map(|j| s.ctx.rns().modulus(j).value())
            .collect();
        let lwes = test_lwes(2);
        let accs = s
            .boot
            .blind_rotate_batch_par(&s.ctx, &lwes, Parallelism::serial());
        let body = rlwe_batch_to_wire(&accs, &moduli);
        let digest = heap_math::wire::fnv1a(&body);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let local_hello = hello_payload(&s.ctx);
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let (kind, _, _) = read_frame(&mut stream).expect("hello");
            assert_eq!(kind, FrameKind::Hello);
            let ack = hello_ack_payload(&local_hello, &[]);
            write_frame(&mut stream, FrameKind::HelloAck, &ack).expect("ack");
            let (kind, _, _) = read_frame(&mut stream).expect("request");
            assert_eq!(kind, FrameKind::BlindRotateReq);
            // Corrupt the accumulators, keep the stale digest, frame
            // honestly: the CRC covers the tampered bytes and passes.
            let mut resp = digest.to_le_bytes().to_vec();
            let mut tampered = body.clone();
            let at = tampered.len() / 3;
            tampered[at] ^= 0x10;
            resp.extend_from_slice(&tampered);
            write_frame(&mut stream, FrameKind::BlindRotateResp, &resp).expect("resp");
        });
        let node = RemoteNode::connect(&addr, &s.ctx).expect("connect");
        let err = node
            .try_blind_rotate_batch(&s.ctx, &s.boot, &lwes)
            .expect_err("stale digest must be caught");
        assert_eq!(
            err,
            NodeError::Corrupt {
                frame: "BlindRotateResp".to_string(),
                phase: "attest"
            }
        );
        server.join().expect("rogue server");
    }

    /// Binds an ephemeral port, spawns a *keyless* server, returns its
    /// address.
    fn spawn_keyless(opts: ServeOptions) -> String {
        let s = setup();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let ctx = Arc::clone(&s.ctx);
        std::thread::spawn(move || serve_keyless(listener, ctx, opts));
        addr
    }

    /// A fresh seed-expandable key set, its upload package, and a local
    /// bootstrapper built from the identical keys.
    fn wire_key(master: u64, rng_seed: u64) -> (Arc<KeyPackage>, Bootstrapper) {
        use heap_core::{generate_keys_reseeded, BootstrapConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let s = setup();
        let config = BootstrapConfig::test_small();
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let sk = heap_ckks::SecretKey::generate(&s.ctx, &mut rng);
        let keys = generate_keys_reseeded(&s.ctx, &sk, config, master, &mut rng);
        let set = EvalKeySet::new(&s.ctx, config, keys, Some(master));
        let pkg = Arc::new(set.package(&s.ctx));
        (pkg, set.into_bootstrapper(&s.ctx))
    }

    #[test]
    fn wire_distributed_key_is_bit_identical_and_cached() {
        let s = setup();
        let (pkg, local) = wire_key(0xBEEF, 4242);
        let store = NodeKeyStore::new(None);
        let addr = spawn_keyless(ServeOptions {
            parallelism: Parallelism::serial(),
            key_store: Some(store.clone()),
            ..ServeOptions::default()
        });
        let ledger = Arc::new(TransferLedger::default());
        let node = RemoteNode::connect_with_ledger(
            &addr,
            &s.ctx,
            NodeTimeouts::default(),
            Arc::clone(&ledger),
        )
        .expect("connect")
        .with_key(Arc::clone(&pkg));
        assert!(
            !ServiceNode::holds_key(&node),
            "fresh keyless node advertises nothing"
        );
        let lwes = test_lwes(4);
        let remote = node
            .try_blind_rotate_batch(&s.ctx, &s.boot, &lwes)
            .expect("cold keyed batch");
        let reference = local.blind_rotate_batch_par(&s.ctx, &lwes, Parallelism::serial());
        let moduli: Vec<u64> = (0..s.ctx.boot_limbs())
            .map(|j| s.ctx.rns().modulus(j).value())
            .collect();
        assert_eq!(remote.len(), reference.len());
        for (r, l) in remote.iter().zip(&reference) {
            assert_eq!(r.to_wire(&moduli), l.to_wire(&moduli));
        }
        assert!(ServiceNode::holds_key(&node), "KeyAck recorded");
        // Cold batch: KeyOffer + KeyUpload out, KeyNeed + KeyAck back.
        assert_eq!(ledger.key_frames_sent(), 2);
        assert_eq!(ledger.key_frames_received(), 2);
        assert_eq!(
            ledger.key_bytes_sent(),
            2 * (FRAME_HEADER_BYTES + 8) + pkg.bytes.len() as u64
        );
        assert_eq!(ledger.key_bytes_received(), 2 * (FRAME_HEADER_BYTES + 8));
        // Warm batch: one KeyOffer/KeyAck, no upload.
        node.try_blind_rotate_batch(&s.ctx, &s.boot, &lwes)
            .expect("warm keyed batch");
        assert_eq!(ledger.key_frames_sent(), 3);
        assert_eq!(
            ledger.key_bytes_sent(),
            3 * (FRAME_HEADER_BYTES + 8) + pkg.bytes.len() as u64
        );
        // Server cache accounting matches the driven workload exactly.
        let snap = store.registry().snapshot();
        let counter = |name: &str| snap.counter(name).unwrap_or(0);
        assert_eq!(counter("heap_keycache_misses_total"), 1);
        assert_eq!(counter("heap_keycache_hits_total"), 1);
        assert_eq!(counter("heap_keycache_inserts_total"), 1);
        assert_eq!(counter("heap_keycache_evictions_total"), 0);
        // A second client connecting now learns the id at handshake.
        let node2 = RemoteNode::connect(&addr, &s.ctx)
            .expect("connect")
            .with_key(pkg);
        assert!(ServiceNode::holds_key(&node2), "advertised in HelloAck");
        node.shutdown();
        node2.shutdown();
    }

    #[test]
    fn keyless_server_refuses_default_key_batches() {
        let s = setup();
        let addr = spawn_keyless(ServeOptions::default());
        let node = RemoteNode::connect(&addr, &s.ctx).expect("connect");
        let err = node
            .try_blind_rotate_batch(&s.ctx, &s.boot, &test_lwes(1))
            .expect_err("no default key on a keyless node");
        assert!(
            matches!(err, NodeError::Remote(ref m) if m.contains("default key")),
            "{err:?}"
        );
        node.shutdown();
    }

    #[test]
    fn default_path_leaves_key_counters_untouched() {
        let s = setup();
        let addr = spawn_server(ServeOptions::default());
        let ledger = Arc::new(TransferLedger::default());
        let node = RemoteNode::connect_with_ledger(
            &addr,
            &s.ctx,
            NodeTimeouts::default(),
            Arc::clone(&ledger),
        )
        .expect("connect");
        node.try_blind_rotate_batch(&s.ctx, &s.boot, &test_lwes(2))
            .expect("default-key batch");
        assert_eq!(ledger.key_frames_sent(), 0);
        assert_eq!(ledger.key_frames_received(), 0);
        assert_eq!(ledger.key_bytes_sent(), 0);
        assert!(ServiceNode::holds_key(&node), "default path needs no key");
        node.shutdown();
    }

    #[test]
    fn corrupt_or_mismatched_key_upload_is_rejected_session_survives() {
        let s = setup();
        let addr = spawn_keyless(ServeOptions::default());
        // Speak the protocol directly.
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let local = hello_payload(&s.ctx);
        write_frame(&mut stream, FrameKind::Hello, &local).expect("hello");
        let (kind, payload, _) = read_frame(&mut stream)
            .map_err(server_frame_err)
            .expect("ack");
        assert_eq!(kind, FrameKind::HelloAck);
        assert!(
            check_hello_ack(&local, &payload)
                .expect("valid ack")
                .is_empty(),
            "keyless node advertises no ids"
        );
        // Offer an id the server lacks → KeyNeed echoing the id.
        write_frame(&mut stream, FrameKind::KeyOffer, &7u64.to_le_bytes()).expect("offer");
        let (kind, reply, _) = read_frame(&mut stream)
            .map_err(server_frame_err)
            .expect("need");
        assert_eq!(kind, FrameKind::KeyNeed);
        assert_eq!(reply, 7u64.to_le_bytes());
        // Garbage container under that id → Error, session keeps going.
        let mut upload = 7u64.to_le_bytes().to_vec();
        upload.extend_from_slice(b"not an EKS container");
        write_frame(&mut stream, FrameKind::KeyUpload, &upload).expect("upload");
        let (kind, reply, _) = read_frame(&mut stream)
            .map_err(server_frame_err)
            .expect("reject");
        assert_eq!(kind, FrameKind::Error);
        assert!(String::from_utf8_lossy(&reply).contains("bad key upload"));
        // A *valid* container under the wrong id → parity failure.
        let set = EvalKeySet::from_bootstrapper(&s.ctx, &s.boot);
        let mut upload = 42u64.to_le_bytes().to_vec();
        upload.extend_from_slice(&set.to_strict_wire(&s.ctx));
        write_frame(&mut stream, FrameKind::KeyUpload, &upload).expect("upload");
        let (kind, reply, _) = read_frame(&mut stream)
            .map_err(server_frame_err)
            .expect("reject");
        assert_eq!(kind, FrameKind::Error);
        assert!(String::from_utf8_lossy(&reply).contains("parity"));
        // The session survived both rejections.
        write_frame(&mut stream, FrameKind::Ping, &[]).expect("ping");
        let (kind, _, _) = read_frame(&mut stream)
            .map_err(server_frame_err)
            .expect("pong");
        assert_eq!(kind, FrameKind::Pong);
    }

    /// The frame-integrity contract: a single bit flipped *anywhere* in
    /// an encoded HRT1 frame — magic, kind, length, CRC field, payload —
    /// yields a typed error from `read_frame`. Never a panic, never a
    /// silently-decoded frame.
    mod frame_flip_fuzz {
        use super::*;
        use proptest::prelude::*;
        use std::io::Cursor;

        /// `payload` cut or zero-padded to the length `kind` fixes, if any.
        fn sized_for(kind: FrameKind, mut payload: Vec<u8>) -> Vec<u8> {
            if let Some(fixed) = kind.fixed_len() {
                payload.resize(fixed as usize, 0);
            }
            payload
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn any_single_bit_flip_is_a_typed_error(
                payload in prop::collection::vec(any::<u8>(), 0..64),
                kind_byte in 0u8..17,
                bit_seed in any::<u64>(),
            ) {
                let kind = FrameKind::from_u8(kind_byte).expect("valid kind");
                let payload = sized_for(kind, payload);
                let mut buf = Vec::new();
                write_frame(&mut buf, kind, &payload).expect("encode");
                let bit = (bit_seed % (buf.len() as u64 * 8)) as usize;
                buf[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(
                    read_frame(&mut Cursor::new(&buf)).is_err(),
                    "flip at bit {bit} decoded silently"
                );
            }

            #[test]
            fn untampered_frames_round_trip(
                payload in prop::collection::vec(any::<u8>(), 0..64),
                kind_byte in 0u8..17,
            ) {
                let kind = FrameKind::from_u8(kind_byte).expect("valid kind");
                let payload = sized_for(kind, payload);
                let mut buf = Vec::new();
                write_frame(&mut buf, kind, &payload).expect("encode");
                let (got_kind, got_payload, consumed) =
                    read_frame(&mut Cursor::new(&buf)).expect("decode");
                prop_assert_eq!(got_kind, kind);
                prop_assert_eq!(got_payload, payload);
                prop_assert_eq!(consumed, buf.len() as u64);
            }
        }
    }

    /// Adversarial-input hardening of the key-distribution frame payload
    /// decoders — same contract as the other wire fuzz suites: truncated
    /// prefixes error cleanly, arbitrary bytes never panic.
    mod key_frame_fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn hello_ack_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
                let s = setup();
                let local = hello_payload(&s.ctx);
                let _ = check_hello_ack(&local, &bytes);
            }

            #[test]
            fn hello_ack_roundtrips_and_rejects_prefixes(
                ids in prop::collection::vec(any::<u64>(), 0..8),
                cut in 0usize..1 << 16,
            ) {
                let s = setup();
                let local = hello_payload(&s.ctx);
                let key_ids: Vec<KeyId> = ids.iter().copied().map(KeyId).collect();
                let payload = hello_ack_payload(&local, &key_ids);
                prop_assert_eq!(check_hello_ack(&local, &payload).unwrap(), ids);
                let cut = cut % payload.len();
                prop_assert!(check_hello_ack(&local, &payload[..cut]).is_err());
                // Strict parse: nothing may follow the id list.
                let mut trailing = payload;
                trailing.push(cut as u8);
                prop_assert!(check_hello_ack(&local, &trailing).is_err());
            }

            #[test]
            fn key_reply_decode_never_panics(
                expected in any::<u64>(),
                bytes in prop::collection::vec(any::<u8>(), 0..32),
            ) {
                let ok = check_key_reply(expected, &bytes).is_ok();
                let valid = bytes.len() == 8
                    && u64::from_le_bytes(bytes[..8].try_into().unwrap()) == expected;
                prop_assert_eq!(ok, valid);
            }
        }
    }
}
