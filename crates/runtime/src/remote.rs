//! The client half of a node connection.
//!
//! [`RemoteNode`] turns any `heap-node-serve` process into a secondary:
//! it ships LWE batches out in the `heap-tfhe` wire encodings and reads
//! accumulator batches back. Accumulators are serialized verbatim in the
//! evaluation domain, so a remote round trip is bit-identical to local
//! execution — the E2E tests assert it. The bytes are `proto`'s, the peer
//! is `server`'s.
//!
//! Every socket operation runs under a deadline ([`NodeTimeouts`]), so a
//! peer that *hangs* (rather than errors) surfaces as a typed
//! [`NodeError::Timeout`] instead of a wedged shard. With a
//! [`TransferLedger`] attached, every frame that crosses the socket is
//! booked — headers and failed exchanges included — which turns the
//! ledger from a model into a measurement.

use std::collections::HashSet;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

use heap_ckks::CkksContext;
use heap_core::{Bootstrapper, TransferLedger};
use heap_keys::{KeyId, KeyPackage};
use heap_tfhe::{lwe_batch_to_wire, rlwe_batch_from_wire, LweCiphertext, RlweCiphertext};

use crate::node::{AttestedBatch, NodeError, ServiceNode};
use crate::proto::{self, Class, Dir, FrameKind, Shape};
use std::time::Duration;

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

/// A `KeyAck`/`KeyNeed` reply payload is the echoed key id and nothing
/// else.
fn check_key_reply(expected: u64, payload: &[u8]) -> Result<(), NodeError> {
    match proto::decode_prefixed(payload) {
        Ok((got, [])) if got == expected => Ok(()),
        Ok((got, rest)) => Err(NodeError::Protocol(format!(
            "key reply echoed {got:016x} (+{} bytes), offered {expected:016x}",
            rest.len()
        ))),
        Err(e) => Err(NodeError::Protocol(format!("bad key reply: {e}"))),
    }
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
    /// The local ring shape, sent as `Hello` and expected back in the
    /// `HelloAck`.
    shape: Shape,
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
            shape: Shape::of(ctx),
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

    /// Books one frame that crossed the socket under its kind's class.
    /// Item counts (`lwe_sent`, `rlwe_received`) are not bytes:
    /// [`Self::rotate_exchange`] adds them once a batch has succeeded.
    fn book(&self, dir: Dir, kind: FrameKind, bytes: u64) {
        let Some(ledger) = &self.ledger else { return };
        match (kind.class(), dir) {
            (Class::Data, Dir::Sent) => ledger.record_scatter(0, bytes),
            (Class::Data, Dir::Received) => ledger.record_gather(0, bytes),
            (Class::Control, Dir::Sent) => ledger.record_control_sent(bytes),
            (Class::Control, Dir::Received) => ledger.record_control_received(bytes),
            (Class::Key, Dir::Sent) => ledger.record_key_sent(bytes),
            (Class::Key, Dir::Received) => ledger.record_key_received(bytes),
        }
    }

    /// Dials, applies deadlines, and runs the Hello handshake.
    fn dial(&self) -> Result<TcpStream, NodeError> {
        let book = |dir, kind, bytes| self.book(dir, kind, bytes);
        let (stream, ids) =
            proto::client_handshake(self.addr.as_str(), self.shape, self.timeouts, &book)?;
        let ids = ids.ok_or_else(|| {
            NodeError::Protocol(
                "HelloAck carries no key-id list: the peer is a session listener, not a node"
                    .into(),
            )
        })?;
        // A fresh handshake resets what we believe the server holds — a
        // restarted peer starts with an empty cache.
        let mut known = self.lock_known();
        known.clear();
        known.extend(ids);
        Ok(stream)
    }

    /// One request–response exchange, (re)dialing first when no live
    /// connection is held; the reply may be any kind in `expect` (the key
    /// handshake's offer legitimately gets either `KeyAck` or `KeyNeed`).
    /// Every frame is booked as it crosses the socket. Any transport or
    /// framing failure drops the connection so the next call starts
    /// fresh; a well-formed `Error` frame keeps it (the session is still
    /// in sync).
    fn exchange(
        &self,
        request: FrameKind,
        payload: &[u8],
        expect: &[FrameKind],
    ) -> Result<(FrameKind, Vec<u8>), NodeError> {
        let mut guard = self.lock_stream();
        if guard.is_none() {
            *guard = Some(self.dial()?);
        }
        let stream = guard.as_mut().expect("stream just ensured");
        let book = |dir, kind, bytes| self.book(dir, kind, bytes);
        let result = proto::round_trip(stream, request, payload, expect, self.timeouts, &book);
        if !matches!(result, Ok(_) | Err(NodeError::Remote(_))) {
            *guard = None;
        }
        result
    }

    /// Ensures the server holds `key` before a batch: one `KeyOffer` per
    /// batch — the server's single *counted* cache lookup, so its
    /// hit/miss telemetry matches the driven workload one-to-one — and a
    /// `KeyUpload` of the encoded container only on `KeyNeed`.
    fn offer_key(&self, key: &KeyPackage) -> Result<(), NodeError> {
        let id = key.id.0;
        let (kind, reply) = self.exchange(
            FrameKind::KeyOffer,
            &proto::encode_prefixed(id, &[]),
            &[FrameKind::KeyAck, FrameKind::KeyNeed],
        )?;
        check_key_reply(id, &reply)?;
        if kind == FrameKind::KeyNeed {
            let upload = proto::encode_prefixed(id, &key.bytes);
            let (_, reply) = self.exchange(FrameKind::KeyUpload, &upload, &[FrameKind::KeyAck])?;
            check_key_reply(id, &reply)?;
        }
        self.lock_known().insert(id);
        Ok(())
    }

    /// Liveness round trip: reconnect + re-handshake if needed, then
    /// `Ping → Pong`. This is what the scheduler's health prober calls to
    /// decide readmission.
    pub fn ping(&self) -> Result<(), NodeError> {
        self.exchange(FrameKind::Ping, &[], &[FrameKind::Pong])
            .map(|_| ())
    }

    /// Fetches the server's telemetry counters over the session
    /// (`StatsReq → StatsResp`): the node's [`crate::NodeTelemetry`]
    /// tallies plus its per-stage histogram `_count`/`_sum` totals, as
    /// flat `(name, value)` pairs in the server's registration order.
    pub fn fetch_stats(&self) -> Result<Vec<(String, u64)>, NodeError> {
        let (_, reply) = self.exchange(FrameKind::StatsReq, &[], &[FrameKind::StatsResp])?;
        proto::decode_stats(&reply).map_err(|e| NodeError::Protocol(format!("bad stats: {e}")))
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
        let request = proto::encode_prefixed(key_id, &lwe_batch_to_wire(lwes));
        let (_, payload) = self.exchange(
            FrameKind::BlindRotateReq,
            &request,
            &[FrameKind::BlindRotateResp],
        )?;
        let (digest, body) = proto::decode_prefixed(&payload)
            .map_err(|e| NodeError::Protocol(format!("bad blind-rotate response: {e}")))?;
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
            ledger.record_scatter(lwes.len() as u64, 0);
            ledger.record_gather(accs.len() as u64, 0);
        }
        Ok(AttestedBatch { accs, digest })
    }

    /// Best-effort clean session end (the server closes the connection).
    pub fn shutdown(&self) {
        if let Some(stream) = self.lock_stream().as_mut() {
            if let Ok(sent) = proto::write_frame(stream, FrameKind::Shutdown, &[]) {
                self.book(Dir::Sent, FrameKind::Shutdown, sent);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preset::{insecure_deterministic_setup, DeterministicSetup, ParamPreset};
    use crate::proto::{
        decode_hello_ack, encode_hello_ack, read_frame, write_frame, FRAME_HEADER_BYTES,
    };
    use crate::server::{
        serve, serve_keyless, server_frame_err, NodeKeyStore, NodeTelemetry, ServeOptions,
    };
    use heap_keys::EvalKeySet;
    use heap_parallel::Parallelism;
    use heap_tfhe::rlwe_batch_to_wire;
    use std::net::TcpListener;
    use std::sync::OnceLock;

    /// Bytes of the FNV-1a attestation digest leading every
    /// `BlindRotateResp` payload.
    const RESP_DIGEST_BYTES: u64 = 8;

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
            FRAME_HEADER_BYTES + 8 + lwe_batch_to_wire(&lwes).len() as u64
        );
        assert_eq!(
            ledger.rlwe_bytes_received(),
            FRAME_HEADER_BYTES
                + RESP_DIGEST_BYTES
                + rlwe_batch_to_wire(&accs, &moduli).len() as u64
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
            fault_plan: Some("fail,flip,drop".parse().expect("plan")),
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
        let lwes = test_lwes(1);
        node.try_blind_rotate_batch(&s.ctx, &s.boot, &lwes)
            .expect_err("injected fail");
        assert_eq!(
            ledger.control_frames_received(),
            before + 1,
            "the Error frame must be visible as control traffic"
        );
        // The refused request crossed the socket all the same: header +
        // key id + batch, booked as data although nothing ever answers it.
        let request = FRAME_HEADER_BYTES + 8 + lwe_batch_to_wire(&lwes).len() as u64;
        assert_eq!(ledger.lwe_bytes_sent(), request);
        assert_eq!(ledger.rlwe_bytes_received(), 0);
        assert_eq!(
            ledger.total_bytes_sent(),
            ledger.lwe_bytes_sent() + ledger.control_bytes_sent() + ledger.key_bytes_sent()
        );
        // So does a reply read whole that then fails its CRC (`flip`) …
        let err = node
            .try_blind_rotate_batch(&s.ctx, &s.boot, &lwes)
            .expect_err("flipped reply");
        assert!(
            matches!(err, NodeError::Corrupt { phase: "crc", .. }),
            "{err:?}"
        );
        let reply = ledger.rlwe_bytes_received();
        assert!(reply > FRAME_HEADER_BYTES + RESP_DIGEST_BYTES, "{reply}");
        // … and a request written to a peer that hangs up on it (`drop`).
        node.try_blind_rotate_batch(&s.ctx, &s.boot, &lwes)
            .expect_err("dropped connection");
        assert_eq!(ledger.lwe_bytes_sent(), 3 * request);
        assert_eq!(ledger.rlwe_bytes_received(), reply);
        // Item counts are for batches served.
        assert_eq!((ledger.lwe_sent(), ledger.rlwe_received()), (0, 0));
        node.shutdown();
    }

    /// `HelloAck` has two forms; each client accepts exactly one, so
    /// dialling the wrong kind of listener is a typed handshake error on
    /// both sides — not a hang, and not a misread key list.
    #[test]
    fn dialling_the_wrong_listener_is_a_typed_handshake_error() {
        use crate::{BootstrapService, RuntimeConfig, SessionClient, SessionServer};
        let s = setup();
        let service = Arc::new(
            BootstrapService::start(
                Arc::clone(&s.ctx),
                Arc::clone(&s.boot),
                RuntimeConfig::default(),
            )
            .expect("service"),
        );
        let mut sessions = SessionServer::serve("127.0.0.1:0", service).expect("session listener");
        let timeouts = NodeTimeouts::uniform(Duration::from_secs(10));
        match RemoteNode::connect_with(&sessions.addr().to_string(), &s.ctx, timeouts) {
            Err(NodeError::Protocol(why)) => assert!(why.contains("session listener"), "{why}"),
            other => panic!("node client against a session listener: {other:?}"),
        }
        sessions.stop();
        let node_addr = spawn_server(ServeOptions::default());
        match SessionClient::connect(node_addr.as_str(), &s.ctx) {
            Err(crate::RuntimeError::Transport(why)) => {
                assert!(why.contains("node listener"), "{why}")
            }
            Err(other) => panic!("session client against a node listener: {other:?}"),
            Ok(_) => panic!("session client accepted a node listener"),
        }
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
        let mut bogus = Shape::of(&s.ctx).encode();
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

    /// A well-formed batch whose LWE does not fit the key used to panic
    /// the connection thread in the rotation's shape assert; it is now a
    /// typed refusal and the connection serves on.
    #[test]
    fn wrong_dimension_batch_is_refused_and_the_connection_serves_on() {
        let s = setup();
        let addr = spawn_server(ServeOptions {
            parallelism: Parallelism::serial(),
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
        let mut crafted = test_lwes(3);
        crafted[1].a.pop();
        let err = node
            .try_blind_rotate_batch(&s.ctx, &s.boot, &crafted)
            .expect_err("wrong dimension");
        assert!(
            matches!(err, NodeError::Remote(ref m) if m.contains("dimension")),
            "{err:?}"
        );
        let lwes = test_lwes(2);
        let served = node
            .try_blind_rotate_batch(&s.ctx, &s.boot, &lwes)
            .expect("honest batch after the refusal");
        assert_eq!(served.len(), 2);
        // One Hello in total: the refusal kept the connection.
        assert_eq!(ledger.control_frames_sent(), 1);
        node.shutdown();
    }

    /// A 1 MiB `LBT1` batch of one modulus-2 LWE: 8 Mi one-bit residues,
    /// 64 MiB once unpacked into `u64`s.
    fn modulus_two_batch() -> Vec<u8> {
        let bytes = 1 << 20;
        let mut w = heap_math::wire::WireWriter::new();
        w.put_u32(0x4C42_5431); // "LBT1"
        w.put_u32(1);
        w.put_u32(0x4C57_4531); // "LWE1"
        w.put_u64(2);
        w.put_u32(8 * bytes - 1);
        let mut batch = w.into_bytes();
        batch.resize(batch.len() + bytes as usize, 0);
        batch
    }

    /// A batch whose header does not match the key is refused by the
    /// decoder before it unpacks anything, with an `Error` reply; the
    /// connection then serves an honest batch.
    #[test]
    fn modulus_two_batch_is_refused_and_the_connection_serves_on() {
        let s = setup();
        let addr = spawn_server(ServeOptions {
            parallelism: Parallelism::serial(),
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
        let request = proto::encode_prefixed(0, &modulus_two_batch());
        let err = node
            .exchange(
                FrameKind::BlindRotateReq,
                &request,
                &[FrameKind::BlindRotateResp],
            )
            .expect_err("modulus-2 batch");
        assert!(
            matches!(err, NodeError::Remote(ref m) if m.contains("modulus")),
            "{err:?}"
        );
        let served = node
            .try_blind_rotate_batch(&s.ctx, &s.boot, &test_lwes(2))
            .expect("honest batch after the refusal");
        assert_eq!(served.len(), 2);
        // One Hello in total: the refusal kept the connection.
        assert_eq!(ledger.control_frames_sent(), 1);
        node.shutdown();
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
        let shape = Shape::of(&s.ctx);
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let (kind, _, _) = read_frame(&mut stream).expect("hello");
            assert_eq!(kind, FrameKind::Hello);
            let ack = encode_hello_ack(shape, Some(&[]));
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
        let local = Shape::of(&s.ctx);
        write_frame(&mut stream, FrameKind::Hello, &local.encode()).expect("hello");
        let (kind, payload, _) = read_frame(&mut stream)
            .map_err(server_frame_err)
            .expect("ack");
        assert_eq!(kind, FrameKind::HelloAck);
        assert_eq!(
            decode_hello_ack(&payload).expect("valid ack"),
            (local, Some(vec![])),
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
        // A seeded container under its own id with one body bit flipped —
        // still in range, so it decodes; the CRC covers the flipped byte,
        // so the frame is honest: only the id recomputed over the
        // expanded keys tells the node these are not the offered bits.
        let (pkg, _) = wire_key(0xF11B, 77);
        let mut upload = pkg.id.0.to_le_bytes().to_vec();
        upload.extend_from_slice(&pkg.bytes);
        *upload.last_mut().expect("non-empty") ^= 0x01;
        write_frame(&mut stream, FrameKind::KeyUpload, &upload).expect("upload");
        let (kind, reply, _) = read_frame(&mut stream)
            .map_err(server_frame_err)
            .expect("reject");
        assert_eq!(kind, FrameKind::Error);
        assert!(
            String::from_utf8_lossy(&reply).contains("parity"),
            "{}",
            String::from_utf8_lossy(&reply)
        );
        // The same container announcing 2^24-word key-switch masks (header
        // `n_t` at byte 5, the section's `target_dim` at byte 38): believed,
        // 80 GiB of PRG output; refused on the header.
        let mut upload = pkg.id.0.to_le_bytes().to_vec();
        upload.extend_from_slice(&pkg.bytes);
        for at in [8 + 5, 8 + 38] {
            upload[at..at + 4].copy_from_slice(&(1u32 << 24).to_le_bytes());
        }
        write_frame(&mut stream, FrameKind::KeyUpload, &upload).expect("upload");
        let (kind, reply, _) = read_frame(&mut stream)
            .map_err(server_frame_err)
            .expect("reject");
        assert_eq!(kind, FrameKind::Error);
        assert!(String::from_utf8_lossy(&reply).contains("bad key upload"));
        // The session survived every rejection.
        write_frame(&mut stream, FrameKind::Ping, &[]).expect("ping");
        let (kind, _, _) = read_frame(&mut stream)
            .map_err(server_frame_err)
            .expect("pong");
        assert_eq!(kind, FrameKind::Pong);
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
