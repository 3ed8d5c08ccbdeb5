//! HRT1 connections as pure machines, one per role.
//!
//! `proto` turns bytes into [`Frame`]s; this module decides what each
//! frame means on a connection, with no socket, thread or clock in sight:
//!
//! - [`NodeDoor`], a node server connection: the handshake, the
//!   blind-rotate / key / ping / stats handlers, and what each
//!   [`FaultAction`] and `fail_after` put on the wire;
//! - [`SessionDoor`], a session server connection: submission checks,
//!   duplicate tags, and when a draining connection may close;
//! - [`NodeCall`], one [`crate::RemoteNode`] call: the reply kinds it
//!   accepts, key echoes, the attestation digest and the count;
//! - [`SessionRoutes`], a [`crate::SessionClient`]'s routing of
//!   completions to waiters, and whether the session is still alive.
//!
//! A machine answers each frame with [`Out`] values. The shells in
//! `server.rs`, `session.rs` and `remote.rs` keep the sockets, threads,
//! locks and deadlines and execute those values; the work a frame asks for
//! (a rotation, a key insertion, a job) goes through [`Backend`], which a
//! test stubs.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use heap_math::wire::fnv1a;
use heap_tfhe::{lwe_batch_to_wire, rlwe_batch_from_wire_in, LweCiphertext};

use crate::fault::{FaultAction, FaultState};
use crate::node::{AttestedBatch, NodeError};
use crate::proto::{self, Frame, FrameError, FrameKind, JobOutcome, Shape, SubmitReq};
use crate::server::NodeTelemetry;
use crate::RuntimeError;

/// How long a server-side `hang` action sleeps when the plan gives no
/// duration: far beyond any client deadline, i.e. "forever".
const HANG_FOREVER: Duration = Duration::from_secs(600);

/// What a `corrupt` action sends before it closes: a full header's worth
/// of bytes under a wrong magic.
const JUNK_HEADER: [u8; proto::FRAME_HEADER_BYTES as usize] = [
    0xDE, 0xAD, 0xBE, 0xEF, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
];

/// One thing a server machine wants done, in order.
pub(crate) enum Out<'f> {
    Frame(FrameKind, Vec<u8>),
    /// Bytes a fault plan puts on the wire outside the codec.
    Raw(Vec<u8>),
    Sleep(Duration),
    /// End the connection; the error, if any, is its result.
    Close(Option<NodeError>),
    /// Hand a checked session job to [`Backend::submit`] (outside any
    /// lock); a refusal comes back through [`SessionDoor::refused`].
    Submit(SubmitReq<'f>),
}

/// The work behind a connection. The node server implements the first
/// five, the session server `submit`; a test stubs all six.
pub(crate) trait Backend {
    /// Key ids held, most recently used first (the node `HelloAck`).
    fn key_ids(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Blind-rotates an `LBT1` batch under `key_id` (`0` = the default
    /// key), one accumulator short when `short`: the accumulator batch's
    /// bytes and the LWE count, or the refusal.
    fn rotate(&self, _key_id: u64, _batch: &[u8], _short: bool) -> Result<(Vec<u8>, u64), String> {
        Err("no rotations here".into())
    }

    /// The one *counted* key-cache lookup per batch.
    fn has_key(&self, _id: u64) -> bool {
        false
    }

    /// Expands and caches an uploaded `EKS1` container offered as `id`.
    fn insert_key(&self, _id: u64, _encoded: &[u8]) -> Result<(), String> {
        Err("no keys here".into())
    }

    fn stats(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    fn submit(&self, _job: &SubmitReq<'_>) -> Result<(), RuntimeError> {
        Err(RuntimeError::Invalid("no jobs here"))
    }
}

/// A frame-level failure as the typed error of `phase`, whose deadline
/// was `after`: the deadline kinds (`WouldBlock` on Unix, `TimedOut`
/// elsewhere) become [`NodeError::Timeout`].
pub(crate) fn failure(phase: &'static str, after: Duration, e: FrameError) -> NodeError {
    use std::io::ErrorKind::{TimedOut, WouldBlock};
    match e {
        FrameError::Io(e) if matches!(e.kind(), WouldBlock | TimedOut) => {
            NodeError::Timeout { phase, after }
        }
        FrameError::Io(e) => NodeError::Io(format!("{phase}: {e}")),
        FrameError::Protocol(why) => NodeError::Protocol(why),
        FrameError::Corrupt { kind, .. } => NodeError::Corrupt {
            frame: format!("{kind:?}"),
            phase: "crc",
        },
    }
}

/// A server's answer to a connection's first frame: `HelloAck` (with
/// `key_ids` from a node listener), or an `Error` and the close.
fn greet(
    local: Shape,
    frame: &Frame,
    key_ids: impl FnOnce() -> Option<Vec<u64>>,
) -> Result<Out<'static>, String> {
    match frame.kind {
        FrameKind::Hello => Shape::decode(&frame.payload)
            .map_err(|e| format!("bad Hello: {e}"))
            .and_then(|peer| local.check_peer(&peer))?,
        _ => return Err("expected Hello".into()),
    }
    let ack = proto::encode_hello_ack(local, key_ids().as_deref());
    Ok(Out::Frame(FrameKind::HelloAck, ack))
}

fn error_frame(why: &str) -> Out<'static> {
    Out::Frame(FrameKind::Error, why.as_bytes().to_vec())
}

/// What every connection of one node listener shares: the fault script,
/// the `fail_after` budget, and the counters. Once `dead` (a spent
/// `fail_after`), the listener drops each new connection before its
/// handshake, so clients see EOF.
pub(crate) struct NodeShared {
    pub fault: Option<FaultState>,
    pub fail_after: Option<u64>,
    pub served: AtomicU64,
    pub dead: AtomicBool,
    pub telemetry: NodeTelemetry,
}

/// The connection's result when a fault action plays dead.
fn dead() -> Out<'static> {
    Out::Close(Some(NodeError::Io(
        "connection closed by fault injection".into(),
    )))
}

/// One node server connection.
pub(crate) struct NodeDoor<'a, B> {
    node: &'a NodeShared,
    backend: &'a B,
    shape: Shape,
    greeted: bool,
}

impl<'a, B: Backend> NodeDoor<'a, B> {
    pub(crate) fn new(node: &'a NodeShared, backend: &'a B, shape: Shape) -> Self {
        Self {
            node,
            backend,
            shape,
            greeted: false,
        }
    }

    pub(crate) fn on_frame(&mut self, frame: &Frame) -> Vec<Out<'static>> {
        let mut out = Vec::new();
        let payload = &frame.payload[..];
        if !self.greeted {
            match greet(self.shape, frame, || Some(self.backend.key_ids())) {
                Ok(ack) => out.push(ack),
                Err(why) => self.reject(why, &mut out),
            }
            self.greeted = true;
            return out;
        }
        match frame.kind {
            FrameKind::BlindRotateReq => self.blind_rotate(payload, &mut out),
            FrameKind::KeyOffer | FrameKind::KeyUpload => self.key(frame, &mut out),
            FrameKind::Ping => {
                self.node.telemetry.pings.inc();
                out.push(Out::Frame(FrameKind::Pong, Vec::new()));
            }
            FrameKind::StatsReq => {
                let stats = proto::encode_stats(&self.backend.stats());
                out.push(Out::Frame(FrameKind::StatsResp, stats));
            }
            FrameKind::Shutdown => out.push(Out::Close(None)),
            other => self.reject(format!("unexpected frame {other:?}"), &mut out),
        }
        out
    }

    /// Refuses a well-formed request — counted, and the peer told why.
    /// The exchange is still in step, so the connection goes on.
    fn refuse(&self, why: &str, out: &mut Vec<Out<'static>>) {
        self.node.telemetry.errors.inc();
        out.push(error_frame(why));
    }

    /// Refuses bytes that do not parse, and closes.
    fn reject(&self, why: String, out: &mut Vec<Out<'static>>) {
        self.refuse(&why, out);
        out.push(Out::Close(Some(NodeError::Protocol(why))));
    }

    /// An offer is the one counted cache lookup per batch; an upload is
    /// expanded and checked against the id it was offered under.
    fn key(&self, frame: &Frame, out: &mut Vec<Out<'static>>) {
        let Ok((id, encoded)) = proto::decode_prefixed(&frame.payload) else {
            let len = frame.payload.len();
            return self.reject(
                format!("{:?} of {len} bytes has no key id", frame.kind),
                out,
            );
        };
        let reply = match frame.kind {
            FrameKind::KeyOffer if !self.backend.has_key(id) => FrameKind::KeyNeed,
            FrameKind::KeyOffer => FrameKind::KeyAck,
            _ => match self.backend.insert_key(id, encoded) {
                Ok(()) => FrameKind::KeyAck,
                Err(why) => return self.refuse(&why, out),
            },
        };
        out.push(Out::Frame(reply, proto::encode_prefixed(id, &[])));
    }

    /// `fail_after` and the fault script act before the request is even
    /// decoded, so each request consumes its action whatever it holds.
    fn blind_rotate(&self, payload: &[u8], out: &mut Vec<Out<'static>>) {
        let node = self.node;
        if node
            .fail_after
            .is_some_and(|limit| node.served.fetch_add(1, Ordering::Relaxed) >= limit)
        {
            // Die mid-request: no reply, and no connection after this one.
            node.dead.store(true, Ordering::Relaxed);
            return out.push(dead());
        }
        let action = node
            .fault
            .as_ref()
            .map_or(FaultAction::Pass, FaultState::next_action);
        match action {
            FaultAction::Fail => return self.refuse("injected fault: fail", out),
            // A stall is served normally too, just late.
            FaultAction::Delay(d) | FaultAction::Stall(d) => out.push(Out::Sleep(d)),
            // Go silent: the client's read deadline, not this server,
            // must end the exchange.
            FaultAction::Hang(d) => {
                return out.extend([Out::Sleep(d.unwrap_or(HANG_FOREVER)), dead()])
            }
            FaultAction::Corrupt => return out.extend([Out::Raw(JUNK_HEADER.to_vec()), dead()]),
            FaultAction::Drop => return out.push(dead()),
            // Silent wire corruption and shape truncation tamper with the
            // *reply*; the request is served normally first.
            FaultAction::Pass | FaultAction::Flip | FaultAction::Truncate => {}
        }
        let Ok((key_id, batch)) = proto::decode_prefixed(payload) else {
            return self.reject("blind-rotate request missing key id".into(), out);
        };
        // The old shape-bug model: the digest covers the short batch, so
        // only the client's count check can catch it.
        let short = action == FaultAction::Truncate;
        let (accs, lwes) = match self.backend.rotate(key_id, batch, short) {
            Ok(served) => served,
            Err(why) => return self.refuse(&why, out),
        };
        let resp = proto::encode_prefixed(fnv1a(&accs), &accs);
        out.push(if action == FaultAction::Flip {
            // The header (and its CRC) covers the *correct* payload, then
            // one payload bit flips on the way out. The stream stays in
            // step, so only the client's checksum can tell.
            let mut raw = [
                &proto::frame_header(FrameKind::BlindRotateResp, &resp)[..],
                &resp,
            ]
            .concat();
            raw[proto::FRAME_HEADER_BYTES as usize + resp.len() / 2] ^= 1;
            Out::Raw(raw)
        } else {
            Out::Frame(FrameKind::BlindRotateResp, resp)
        });
        node.telemetry.requests.inc();
        node.telemetry.lwes.add(lwes);
    }
}

/// One session server connection. Accepted tags are pending until their
/// `JobDone`; once the client stops sending (`Shutdown`, EOF, a frame that
/// does not belong), the connection drains them and then closes.
pub(crate) struct SessionDoor {
    shape: Shape,
    greeted: bool,
    pending: HashSet<u64>,
    draining: bool,
}

impl SessionDoor {
    pub(crate) fn new(shape: Shape) -> Self {
        Self {
            shape,
            greeted: false,
            pending: HashSet::new(),
            draining: false,
        }
    }

    /// Whether the client's frames are still read.
    pub(crate) fn reading(&self) -> bool {
        !self.draining
    }

    pub(crate) fn on_frame<'f>(&mut self, frame: &'f Frame) -> Vec<Out<'f>> {
        let mut out = Vec::new();
        let refusal = match frame.kind {
            _ if !self.greeted => greet(self.shape, frame, || None)
                .map(|ack| out.push(ack))
                .err(),
            FrameKind::SubmitReq => return self.submit(&frame.payload).into_iter().collect(),
            FrameKind::Ping => return vec![Out::Frame(FrameKind::Pong, Vec::new())],
            FrameKind::Shutdown => return self.on_eof(),
            other => Some(format!("unexpected session frame {other:?}")),
        };
        self.greeted = true;
        if let Some(why) = refusal {
            out.push(error_frame(&why));
            out.extend(self.on_eof());
        }
        out
    }

    /// A `SubmitReq` too short to carry its tag has no one to refuse and
    /// is dropped; anything else wrong is refused to its tag.
    fn submit<'f>(&mut self, payload: &'f [u8]) -> Option<Out<'f>> {
        let req = SubmitReq::decode(payload).ok()?;
        let refusal = match (req.priority, req.kind) {
            (None, _) => RuntimeError::Invalid("bad priority byte"),
            (_, None) => RuntimeError::Transport("bad request kind byte".into()),
            _ if !self.pending.insert(req.tag) => RuntimeError::Invalid("duplicate tag"),
            _ => return Some(Out::Submit(req)),
        };
        Some(refuse_submit(req.tag, &refusal))
    }

    /// The backend refused a submission this door passed on.
    pub(crate) fn refused(&mut self, tag: u64, why: &RuntimeError) -> Vec<Out<'static>> {
        self.pending.remove(&tag);
        let mut out = vec![refuse_submit(tag, why)];
        out.extend(self.close_if_drained());
        out
    }

    /// A job finished: its `JobDone`, if its tag is still owed one.
    pub(crate) fn on_done(&mut self, tag: u64, outcome: &JobOutcome<'_>) -> Vec<Out<'static>> {
        let mut out = Vec::new();
        if self.pending.remove(&tag) {
            out.push(Out::Frame(
                FrameKind::JobDone,
                proto::encode_job_done(tag, outcome),
            ));
        }
        out.extend(self.close_if_drained());
        out
    }

    /// The client sends no more: drain what was accepted, then close.
    pub(crate) fn on_eof(&mut self) -> Vec<Out<'static>> {
        self.draining = true;
        self.close_if_drained().into_iter().collect()
    }

    fn close_if_drained(&self) -> Option<Out<'static>> {
        (self.draining && self.pending.is_empty()).then_some(Out::Close(None))
    }
}

fn refuse_submit(tag: u64, why: &RuntimeError) -> Out<'static> {
    Out::Frame(FrameKind::SubmitAck, proto::encode_submit_ack(tag, why))
}

/// One [`crate::RemoteNode`] call: the request that opens it, the replies
/// it accepts, and what each reply must carry. An `Error` reply is
/// [`NodeError::Remote`] (the exchange is still in step); any other wrong
/// kind is `Protocol`.
pub(crate) enum NodeCall<'a> {
    /// The ack must be the node form (`node`) or the session form, so
    /// dialling the wrong listener is a typed error.
    Hello {
        shape: Shape,
        node: bool,
    },
    Ping,
    Stats,
    /// `KeyOffer`, and on `KeyNeed` the upload of `key`.
    Key {
        id: u64,
        key: &'a [u8],
        uploading: bool,
    },
    /// The accumulators must come back over the basis of `n` coefficients
    /// and `moduli`, or they are refused before they are unpacked.
    Rotate {
        key_id: u64,
        lwes: &'a [LweCiphertext],
        n: usize,
        moduli: &'a [u64],
    },
}

/// What a [`NodeCall`] makes of a good reply: the frame to send next, or
/// the call's result.
#[derive(Debug)]
pub(crate) enum Reply {
    Send(FrameKind, Vec<u8>),
    /// A `HelloAck`'s key-id list (`None` from a session listener).
    Ids(Option<Vec<u64>>),
    Unit,
    Stats(Vec<(String, u64)>),
    Batch(AttestedBatch),
}

impl NodeCall<'_> {
    pub(crate) fn request(&self) -> (FrameKind, Vec<u8>) {
        match self {
            Self::Hello { shape, .. } => (FrameKind::Hello, shape.encode()),
            Self::Ping => (FrameKind::Ping, Vec::new()),
            Self::Stats => (FrameKind::StatsReq, Vec::new()),
            Self::Key { id, .. } => (FrameKind::KeyOffer, proto::encode_prefixed(*id, &[])),
            Self::Rotate { key_id, lwes, .. } => (
                FrameKind::BlindRotateReq,
                proto::encode_prefixed(*key_id, &lwe_batch_to_wire(lwes)),
            ),
        }
    }

    /// The (write, read) phase names a deadline is reported under.
    pub(crate) fn phases(&self) -> (&'static str, &'static str) {
        match self {
            Self::Hello { .. } => ("hello", "hello"),
            _ => ("write", "read"),
        }
    }

    fn expect(&self) -> &'static [FrameKind] {
        match self {
            Self::Hello { .. } => &[FrameKind::HelloAck],
            Self::Ping => &[FrameKind::Pong],
            Self::Stats => &[FrameKind::StatsResp],
            Self::Key {
                uploading: false, ..
            } => &[FrameKind::KeyAck, FrameKind::KeyNeed],
            Self::Key { .. } => &[FrameKind::KeyAck],
            Self::Rotate { .. } => &[FrameKind::BlindRotateResp],
        }
    }

    pub(crate) fn on_frame(&mut self, reply: Frame) -> Result<Reply, NodeError> {
        let protocol = |why: String| NodeError::Protocol(why);
        match reply.kind {
            kind if self.expect().contains(&kind) => {}
            FrameKind::Error => return Err(NodeError::Remote(proto::decode_error(&reply.payload))),
            other => {
                return Err(protocol(format!(
                    "expected one of {:?}, got {other:?}",
                    self.expect()
                )))
            }
        }
        Ok(match self {
            Self::Hello { shape, node } => {
                let (peer, ids) = proto::decode_hello_ack(&reply.payload)
                    .map_err(|e| protocol(format!("bad HelloAck: {e}")))?;
                shape.check_peer(&peer).map_err(protocol)?;
                if ids.is_some() != *node {
                    let (has, peer, local) = match node {
                        true => ("no", "session", "node"),
                        false => ("a", "node", "session"),
                    };
                    let why = format!("HelloAck carries {has} key-id list: the peer is a {peer} listener, not a {local}");
                    return Err(protocol(why));
                }
                Reply::Ids(ids)
            }
            Self::Ping => Reply::Unit,
            Self::Stats => Reply::Stats(
                proto::decode_stats(&reply.payload)
                    .map_err(|e| protocol(format!("bad stats: {e}")))?,
            ),
            Self::Key { id, key, uploading } => {
                check_key_reply(*id, &reply.payload)?;
                if reply.kind == FrameKind::KeyNeed {
                    *uploading = true;
                    return Ok(Reply::Send(
                        FrameKind::KeyUpload,
                        proto::encode_prefixed(*id, key),
                    ));
                }
                Reply::Unit
            }
            // The digest is checked against the received bytes *before*
            // decoding, so a flip the frame CRC window missed (or a
            // corrupt server-side buffer) is a typed error instead of
            // garbage accumulators.
            Self::Rotate {
                lwes, n, moduli, ..
            } => {
                let (digest, body) = proto::decode_prefixed(&reply.payload)
                    .map_err(|e| protocol(format!("bad blind-rotate response: {e}")))?;
                if fnv1a(body) != digest {
                    return Err(NodeError::Corrupt {
                        frame: "BlindRotateResp".to_string(),
                        phase: "attest",
                    });
                }
                let accs = rlwe_batch_from_wire_in(body, *n, moduli)
                    .map_err(|e| protocol(format!("bad accumulator batch: {e:?}")))?;
                if accs.len() != lwes.len() {
                    return Err(NodeError::Mismatch("accumulator count != request count"));
                }
                Reply::Batch(AttestedBatch { accs, digest })
            }
        })
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

/// A session client's waiters by tag. `None` once the session is lost:
/// "dead" and "pending" are one piece of state, so a submission either
/// lands before the loss (and is failed by it) or is refused after it.
pub(crate) struct SessionRoutes<T> {
    pending: Option<HashMap<u64, T>>,
    next_tag: u64,
}

/// A waiter and how its job ended.
pub(crate) type Routed<'f, T> = Vec<(T, JobOutcome<'f>)>;

impl<T> SessionRoutes<T> {
    pub(crate) fn new() -> Self {
        Self {
            pending: Some(HashMap::new()),
            next_tag: 0,
        }
    }

    /// Indexes `waiter` under a fresh tag before its frame can travel:
    /// the completion may come back before the write call even returns.
    pub(crate) fn submit(&mut self, waiter: T) -> Result<u64, RuntimeError> {
        let lost = || RuntimeError::Transport("session connection lost".into());
        let pending = self.pending.as_mut().ok_or_else(lost)?;
        let tag = self.next_tag;
        self.next_tag += 1;
        pending.insert(tag, waiter);
        Ok(tag)
    }

    /// Un-indexes a tag whose frame never left.
    pub(crate) fn cancel(&mut self, tag: u64) {
        self.pending.as_mut().map(|p| p.remove(&tag));
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.pending.as_ref().map_or(0, HashMap::len)
    }

    pub(crate) fn is_lost(&self) -> bool {
        self.pending.is_none()
    }

    pub(crate) fn on_frame<'f>(&mut self, frame: &'f Frame) -> Routed<'f, T> {
        let routed = match frame.kind {
            FrameKind::SubmitAck => proto::decode_submit_ack(&frame.payload)
                .map(|(tag, refused)| (tag, Err(refused)))
                .ok(),
            FrameKind::JobDone => proto::decode_job_done(&frame.payload).ok(),
            FrameKind::Pong => return Vec::new(),
            FrameKind::Error => {
                return self.lose(&format!(
                    "server error: {}",
                    proto::decode_error(&frame.payload)
                ))
            }
            _ => None,
        };
        // A frame too short to carry its tag has no job to fail: it ends
        // the session like any other frame that does not belong here.
        let Some((tag, outcome)) = routed else {
            return self.lose("unexpected frame on session");
        };
        let waiter = self.pending.as_mut().and_then(|p| p.remove(&tag));
        waiter.map(|w| (w, outcome)).into_iter().collect()
    }

    /// Fails every outstanding job; the session is unusable.
    pub(crate) fn lose(&mut self, why: &str) -> Routed<'static, T> {
        let pending = self.pending.take().unwrap_or_default();
        pending
            .into_values()
            .map(|w| (w, Err(RuntimeError::Transport(why.into()))))
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! The machines with no socket, thread or wall clock: a simulator that
    //! runs seeded fault plans through a node and its client, and a session
    //! server and its client, over in-memory pipes under a virtual clock;
    //! a frame-sequence fuzz of both server machines; and the client
    //! machines' own edge cases. Plans and frame sequences are drawn with
    //! the `proptest` shim's strategies from per-seed RNGs, so a failure
    //! names its seed and plan, and `node_scenario(seed)` /
    //! `session_scenario(seed)` replay it. The node pipe ([`NodeSim`]) and
    //! the plan's predicted outcomes ([`Script`]) also serve the scheduler's
    //! whole-fleet simulator in `policy::tests`.
    use super::*;
    use crate::fault::FaultPlan;
    use crate::job::Priority;
    use crate::proto::{write_frame, Decoder, JobKind};
    use heap_math::{Domain, RnsPoly};
    use heap_tfhe::{lwe_batch_from_wire, rlwe_batch_to_wire, RlweCiphertext};
    use proptest::prelude::*;
    use proptest::test_runner::TestRunner;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::{Cell, RefCell};
    use std::collections::BTreeSet;
    use std::io::ErrorKind::UnexpectedEof;
    use std::time::Instant;

    pub(crate) const SHAPE: Shape = Shape {
        n: 16,
        boot_limbs: 1,
        q0: 97,
    };
    /// The stub's LWE shape `(2N, n_t)` and its accumulators' basis: one
    /// coefficient over one modulus.
    const TWO_N: u64 = 32;
    const DIM: usize = 2;
    pub(crate) const ACC_Q: u64 = 97;
    pub(crate) const ACC_N: usize = 1;
    const KEY: u64 = 0xC0FF_EE00_0000_0001;
    /// The client's read deadline in every node scenario.
    pub(crate) const DEADLINE: Duration = Duration::from_millis(100);

    /// The `EKS1` container the stub accepts for `id`.
    fn key_bytes(id: u64) -> Vec<u8> {
        id.to_le_bytes().repeat(3)
    }

    pub(crate) fn lwes(count: usize, salt: u64) -> Vec<LweCiphertext> {
        (0..count as u64)
            .map(|i| LweCiphertext {
                a: vec![(i + salt) % TWO_N, (3 * i + 1) % TWO_N],
                b: (7 * i + salt) % TWO_N,
                modulus: TWO_N,
            })
            .collect()
    }

    /// The stub's exact answer: one single-limb accumulator per LWE.
    pub(crate) fn accs_for(lwes: &[LweCiphertext]) -> Vec<RlweCiphertext> {
        let limb = |v: u64| RnsPoly::from_limbs(vec![vec![v % ACC_Q]], Domain::Eval);
        let acc = |l: &LweCiphertext| RlweCiphertext {
            a: limb(l.b),
            b: limb(l.a[0] + 1),
        };
        lwes.iter().map(acc).collect()
    }

    /// What a session job's result body is: its request, reversed.
    fn job_answer(body: &[u8]) -> Vec<u8> {
        body.iter().rev().copied().collect()
    }

    /// The backend every machine runs against here.
    #[derive(Default)]
    pub(crate) struct Stub {
        /// Answers over a foreign basis: two coefficients, not one.
        pub foreign: bool,
        keys: RefCell<Vec<u64>>,
        lookups: Cell<u64>,
        /// Accepted session jobs, not yet finished: tag, kind, body.
        jobs: RefCell<Vec<(u64, JobKind, Vec<u8>)>>,
    }

    impl Backend for Stub {
        fn key_ids(&self) -> Vec<u64> {
            self.keys.borrow().clone()
        }

        fn rotate(&self, key_id: u64, batch: &[u8], short: bool) -> Result<(Vec<u8>, u64), String> {
            if key_id != 0 && !self.keys.borrow().contains(&key_id) {
                return Err(format!("key {key_id:016x} not resident"));
            }
            let lwes = lwe_batch_from_wire(batch, TWO_N, DIM).map_err(|e| format!("{e:?}"))?;
            let mut accs = accs_for(&lwes);
            if short {
                accs.pop();
            }
            if self.foreign {
                let wide =
                    |p: &RnsPoly| RnsPoly::from_limbs(vec![vec![p.limb(0)[0], 0]], Domain::Eval);
                let widen = |acc: &RlweCiphertext| RlweCiphertext {
                    a: wide(&acc.a),
                    b: wide(&acc.b),
                };
                accs = accs.iter().map(widen).collect();
            }
            Ok((rlwe_batch_to_wire(&accs, &[ACC_Q]), lwes.len() as u64))
        }

        fn has_key(&self, id: u64) -> bool {
            self.lookups.set(self.lookups.get() + 1);
            self.keys.borrow().contains(&id)
        }

        fn insert_key(&self, id: u64, encoded: &[u8]) -> Result<(), String> {
            if encoded != key_bytes(id) {
                return Err("key id parity failure".into());
            }
            self.keys.borrow_mut().push(id);
            Ok(())
        }

        fn stats(&self) -> Vec<(String, u64)> {
            vec![("stub_lookups".into(), self.lookups.get())]
        }

        /// Refuses a body that leads with `0xEE` (an SLO refusal).
        fn submit(&self, job: &SubmitReq<'_>) -> Result<(), RuntimeError> {
            if job.body.first() == Some(&0xEE) {
                let retry_after = Duration::from_millis(3);
                return Err(RuntimeError::Rejected { retry_after });
            }
            let kind = job.kind.expect("the door checks the kind");
            self.jobs
                .borrow_mut()
                .push((job.tag, kind, job.body.to_vec()));
            Ok(())
        }
    }

    fn wire(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, kind, payload).expect("in memory");
        bytes
    }

    /// Feeds `bytes` in seeded random chunks; the first frame they hold,
    /// which must also be their end (one answer per request).
    fn feed_chunks(
        dec: &mut Decoder,
        mut bytes: &[u8],
        rng: &mut StdRng,
    ) -> Result<Option<Frame>, FrameError> {
        while !bytes.is_empty() {
            let cut = rng.gen_range(1..=bytes.len().min(24));
            let mut chunk = &bytes[..cut];
            bytes = &bytes[cut..];
            if let Some(frame) = dec.feed(&mut chunk)? {
                assert!(
                    chunk.is_empty() && bytes.is_empty(),
                    "bytes past the answer"
                );
                return Ok(Some(frame));
            }
        }
        Ok(None)
    }

    /// The plan alphabet: every action, durations either side of
    /// [`DEADLINE`].
    pub(crate) fn action(code: u8, ms: u64) -> FaultAction {
        let d = Duration::from_millis(ms);
        match code {
            0 => FaultAction::Pass,
            1 => FaultAction::Fail,
            2 => FaultAction::Delay(d),
            3 => FaultAction::Stall(d),
            4 => FaultAction::Hang(None),
            5 => FaultAction::Hang(Some(d)),
            6 => FaultAction::Corrupt,
            7 => FaultAction::Flip,
            8 => FaultAction::Truncate,
            _ => FaultAction::Drop,
        }
    }

    /// A client's calls: ping, stats, or a batch of `n` LWEs, keyed or on
    /// the default key.
    #[derive(Debug, Clone, Copy)]
    enum Call {
        Ping,
        Stats,
        Rotate { n: usize, keyed: bool },
    }

    /// What the call must come to, from the plan alone.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(crate) enum Expect {
        Served,
        Remote,
        Protocol,
        Crc,
        Mismatch,
        Timeout,
        Io,
    }

    pub(crate) fn classify<T>(result: &Result<T, NodeError>) -> Expect {
        match result {
            Ok(_) => Expect::Served,
            Err(NodeError::Remote(_)) => Expect::Remote,
            Err(NodeError::Protocol(_)) => Expect::Protocol,
            Err(NodeError::Corrupt { phase: "crc", .. }) => Expect::Crc,
            Err(NodeError::Mismatch(_)) => Expect::Mismatch,
            Err(NodeError::Timeout { .. }) => Expect::Timeout,
            Err(NodeError::Io(_)) => Expect::Io,
            Err(other) => panic!("untyped outcome {other:?}"),
        }
    }

    /// A node's plan and `fail_after` read ahead of the node: the action
    /// each rotation request gets, and what the call then comes to.
    pub(crate) struct Script<'p> {
        actions: std::slice::Iter<'p, FaultAction>,
        fail_after: Option<u64>,
        served: u64,
        pub dead: bool,
    }

    impl<'p> Script<'p> {
        pub(crate) fn new(plan: &'p FaultPlan, fail_after: Option<u64>) -> Self {
            Self {
                actions: plan.actions().iter(),
                fail_after,
                served: 0,
                dead: false,
            }
        }

        /// The next rotation's action: `Drop` once `fail_after` has
        /// killed the node.
        pub(crate) fn next(&mut self) -> FaultAction {
            let killed = self.fail_after.is_some_and(|limit| {
                self.served += 1;
                self.served > limit
            });
            let action = match killed || self.dead {
                true => FaultAction::Drop,
                false => self.actions.next().copied().unwrap_or(FaultAction::Pass),
            };
            self.dead |= killed;
            action
        }

        /// What a rotation under `action` comes to.
        pub(crate) fn expect(&self, action: FaultAction) -> Expect {
            let late = |d: Duration| match d > DEADLINE {
                true => Expect::Timeout,
                false => Expect::Served,
            };
            match action {
                _ if self.dead => Expect::Io,
                FaultAction::Pass => Expect::Served,
                FaultAction::Fail => Expect::Remote,
                FaultAction::Delay(d) | FaultAction::Stall(d) => late(d),
                FaultAction::Hang(d) if d.unwrap_or(HANG_FOREVER) > DEADLINE => Expect::Timeout,
                FaultAction::Hang(_) | FaultAction::Drop => Expect::Io,
                FaultAction::Corrupt => Expect::Protocol,
                FaultAction::Flip => Expect::Crc,
                FaultAction::Truncate => Expect::Mismatch,
            }
        }
    }

    /// One client connection: the node machine behind the pipe, and a
    /// decoder at each end.
    struct Link<'a> {
        door: NodeDoor<'a, Stub>,
        at_server: Decoder,
        at_client: Decoder,
    }

    /// A node, its client, and the virtual clock between them.
    pub(crate) struct NodeSim<'a> {
        node: &'a NodeShared,
        stub: &'a Stub,
        rng: StdRng,
        pub clock: Duration,
        link: Option<Link<'a>>,
    }

    impl<'a> NodeSim<'a> {
        pub(crate) fn new(node: &'a NodeShared, stub: &'a Stub, rng: StdRng) -> Self {
            Self {
                node,
                stub,
                rng,
                clock: Duration::ZERO,
                link: None,
            }
        }

        /// One call the way `RemoteNode::exchange` makes it: dial when no
        /// connection is held, and drop it on anything but success or an
        /// `Error` reply.
        pub(crate) fn call(&mut self, call: NodeCall<'_>) -> Result<Reply, NodeError> {
            let mut link = match self.link.take() {
                Some(link) => link,
                None => self.dial()?,
            };
            let result = self.run(&mut link, call);
            if matches!(result, Ok(_) | Err(NodeError::Remote(_))) {
                self.link = Some(link);
            }
            result
        }

        fn dial(&mut self) -> Result<Link<'a>, NodeError> {
            if self.node.dead.load(Ordering::Relaxed) {
                // Accepted, then dropped before the handshake.
                let eof = FrameError::Io(UnexpectedEof.into());
                return Err(failure("hello", DEADLINE, eof));
            }
            let mut link = Link {
                door: NodeDoor::new(self.node, self.stub, SHAPE),
                at_server: Decoder::default(),
                at_client: Decoder::default(),
            };
            let hello = NodeCall::Hello {
                shape: SHAPE,
                node: true,
            };
            match self.run(&mut link, hello)? {
                Reply::Ids(Some(ids)) => assert_eq!(ids, self.stub.key_ids()),
                other => panic!("handshake ended in {other:?}"),
            }
            Ok(link)
        }

        /// The client executor over pipes: each frame through the server
        /// machine and its answer back, until the call ends.
        fn run(&mut self, link: &mut Link<'a>, mut call: NodeCall<'_>) -> Result<Reply, NodeError> {
            let reading = call.phases().1;
            let (mut kind, mut payload) = call.request();
            loop {
                let sent = wire(kind, &payload);
                let frame = feed_chunks(&mut link.at_server, &sent, &mut self.rng)
                    .expect("a client frame decodes")
                    .expect("a client frame is whole");
                let (mut back, mut waited, mut closed) = (Vec::new(), Duration::ZERO, false);
                for out in link.door.on_frame(&frame) {
                    match out {
                        Out::Frame(kind, payload) => back.extend(wire(kind, &payload)),
                        Out::Raw(bytes) => back.extend(bytes),
                        Out::Sleep(d) if back.is_empty() => waited += d,
                        Out::Sleep(_) => {}
                        Out::Close(_) => {
                            closed = true;
                            break;
                        }
                        Out::Submit(_) => panic!("a node door submitted a job"),
                    }
                }
                if waited > DEADLINE {
                    self.clock += DEADLINE;
                    return Err(NodeError::Timeout {
                        phase: reading,
                        after: DEADLINE,
                    });
                }
                self.clock += waited;
                let reply = match feed_chunks(&mut link.at_client, &back, &mut self.rng) {
                    Ok(Some(frame)) => frame,
                    Ok(None) if closed => {
                        let eof = FrameError::Io(UnexpectedEof.into());
                        return Err(failure(reading, DEADLINE, eof));
                    }
                    Ok(None) => panic!("the server neither answered nor closed"),
                    Err(e) => return Err(failure(reading, DEADLINE, e)),
                };
                match call.on_frame(reply)? {
                    Reply::Send(next, body) => (kind, payload) = (next, body),
                    done => return Ok(done),
                }
            }
        }
    }

    /// What the plan says a node's counters end at.
    #[derive(Debug, Default, PartialEq)]
    struct Counts {
        requests: u64,
        lwes: u64,
        pings: u64,
        errors: u64,
    }

    /// One seeded node scenario: a plan, an optional `fail_after`, and a
    /// client's calls, each checked against the outcome the plan implies;
    /// then the node's counters against what the plan injected.
    fn node_scenario(seed: u64) -> [usize; 7] {
        let mut rng = StdRng::seed_from_u64(seed);
        let codes = prop::collection::vec((0u8..10, 0u64..200), 0..8).generate(&mut rng);
        let plan = FaultPlan::new(codes.iter().map(|&(c, ms)| action(c, ms)).collect());
        let fail_after = rng.gen_bool(0.2).then(|| rng.gen_range(0..6u64));
        let calls: Vec<Call> = (0..rng.gen_range(1..12))
            .map(|_| match rng.gen_range(0..6) {
                0 => Call::Ping,
                1 => Call::Stats,
                r => Call::Rotate {
                    n: rng.gen_range(1..4),
                    keyed: r == 5,
                },
            })
            .collect();
        let node = NodeShared {
            fault: Some(FaultState::new(plan.clone())),
            fail_after,
            served: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            telemetry: NodeTelemetry::new(),
        };
        let stub = Stub::default();
        let mut sim = NodeSim::new(&node, &stub, rng);
        let mut script = Script::new(&plan, fail_after);
        let (mut want, mut seen) = (Counts::default(), [0; 7]);
        let key = key_bytes(KEY);
        for (i, call) in calls.iter().enumerate() {
            let why = || {
                format!(
                    "seed {seed}: plan '{plan}', fail_after {fail_after:?}, call {i} of {calls:?}"
                )
            };
            let (expect, result) = match *call {
                Call::Ping => {
                    want.pings += u64::from(!script.dead);
                    (Expect::Served, sim.call(NodeCall::Ping))
                }
                Call::Stats => (Expect::Served, sim.call(NodeCall::Stats)),
                Call::Rotate { n, keyed } => {
                    let batch = lwes(n, seed);
                    let key_id = if keyed { KEY } else { 0 };
                    if keyed && !script.dead {
                        let offer = NodeCall::Key {
                            id: KEY,
                            key: &key,
                            uploading: false,
                        };
                        assert_eq!(classify(&sim.call(offer)), Expect::Served, "{}", why());
                    }
                    let action = script.next();
                    let (dead, expect) = (script.dead, script.expect(action));
                    if !dead
                        && !matches!(
                            action,
                            FaultAction::Fail
                                | FaultAction::Hang(_)
                                | FaultAction::Corrupt
                                | FaultAction::Drop
                        )
                    {
                        want.requests += 1;
                        want.lwes += n as u64;
                    }
                    want.errors += u64::from(!dead && action == FaultAction::Fail);
                    let result = sim.call(NodeCall::Rotate {
                        key_id,
                        lwes: &batch,
                        n: ACC_N,
                        moduli: &[ACC_Q],
                    });
                    if let Ok(Reply::Batch(got)) = &result {
                        let exact = rlwe_batch_to_wire(&accs_for(&batch), &[ACC_Q]);
                        assert_eq!(rlwe_batch_to_wire(&got.accs, &[ACC_Q]), exact, "{}", why());
                        assert_eq!(got.digest, fnv1a(&exact), "{}", why());
                    }
                    (expect, result)
                }
            };
            let expect = if script.dead && !matches!(call, Call::Rotate { .. }) {
                Expect::Io
            } else {
                expect
            };
            assert_eq!(classify(&result), expect, "{}: {result:?}", why());
            seen[expect as usize] += 1;
        }
        let t = &node.telemetry;
        let got = Counts {
            requests: t.requests.get(),
            lwes: t.lwes.get(),
            pings: t.pings.get(),
            errors: t.errors.get(),
        };
        assert_eq!(
            got, want,
            "seed {seed}: plan '{plan}', fail_after {fail_after:?}, calls {calls:?}"
        );
        seen
    }

    /// Session client waiters are numbered; raw frames a test injects past
    /// the client carry tags from here up.
    const RAW_TAGS: u64 = 1 << 40;

    /// A session server, its client, and the frames between them.
    struct SessionSim {
        door: SessionDoor,
        stub: Stub,
        routes: SessionRoutes<u64>,
        rng: StdRng,
        at_server: Decoder,
        at_client: Decoder,
        /// Whether the client still reads (an EOF cuts it off).
        connected: bool,
        closed: bool,
        /// What each waiter got.
        settled: HashMap<u64, Result<Vec<u8>, RuntimeError>>,
        /// Accepted submissions still owed their one `JobDone`.
        accepted: HashSet<u64>,
    }

    impl SessionSim {
        fn send(&mut self, kind: FrameKind, payload: &[u8]) {
            let sent = wire(kind, payload);
            let frame = feed_chunks(&mut self.at_server, &sent, &mut self.rng)
                .expect("decodes")
                .expect("whole");
            assert!(self.door.reading(), "a draining door gets no frames");
            let outs = self.door.on_frame(&frame);
            self.execute(outs);
        }

        /// The session executor over pipes.
        fn execute(&mut self, outs: Vec<Out<'_>>) {
            for out in outs {
                assert!(!self.closed, "output after Close");
                match out {
                    Out::Frame(kind, payload) => self.deliver(kind, &payload),
                    Out::Submit(job) => match self.stub.submit(&job) {
                        Ok(()) => assert!(self.accepted.insert(job.tag), "tag accepted twice"),
                        Err(e) => {
                            let outs = self.door.refused(job.tag, &e);
                            self.execute(outs);
                        }
                    },
                    Out::Close(why) => {
                        assert!(why.is_none(), "{why:?}");
                        self.closed = true;
                    }
                    Out::Raw(_) | Out::Sleep(_) => panic!("a session door sent a fault"),
                }
            }
        }

        fn deliver(&mut self, kind: FrameKind, payload: &[u8]) {
            if kind == FrameKind::JobDone {
                let (tag, _) = proto::decode_job_done(payload).expect("tagged");
                assert!(
                    self.accepted.remove(&tag),
                    "JobDone for tag {tag} nobody is owed"
                );
            }
            if !self.connected {
                return;
            }
            let sent = wire(kind, payload);
            let frame = feed_chunks(&mut self.at_client, &sent, &mut self.rng)
                .expect("decodes")
                .expect("whole");
            let routed = self.routes.on_frame(&frame);
            let routed: Vec<_> = routed
                .into_iter()
                .map(|(w, o)| (w, o.map(|(_, b)| b.to_vec())))
                .collect();
            self.settle(routed);
        }

        fn settle(&mut self, routed: Vec<(u64, Result<Vec<u8>, RuntimeError>)>) {
            for (waiter, outcome) in routed {
                assert!(
                    self.settled.insert(waiter, outcome).is_none(),
                    "waiter {waiter} settled twice"
                );
            }
        }

        /// Finishes one accepted job (its stub answer, or a failure).
        fn complete(&mut self, pick: usize, fail: bool) {
            let (tag, kind, body) = {
                let mut jobs = self.stub.jobs.borrow_mut();
                let at = pick % jobs.len();
                jobs.swap_remove(at)
            };
            let answer = job_answer(&body);
            let outcome = match fail {
                true => Err(RuntimeError::AllNodesFailed("node-b: timeout".into())),
                false => Ok((kind, answer.as_slice())),
            };
            let outs = self.door.on_done(tag, &outcome);
            self.execute(outs);
        }
    }

    /// One seeded session scenario: client submissions (some the stub
    /// refuses), raw frames no client sends, completions in any order, and
    /// a `Shutdown` or a lost connection somewhere in between. Every waiter
    /// settles exactly once with its exact answer or its typed error, and
    /// every accepted tag gets exactly one `JobDone`.
    fn session_scenario(seed: u64) -> usize {
        let mut rng = StdRng::seed_from_u64(seed);
        let steps = prop::collection::vec((0u8..8, any::<u64>()), 1..30).generate(&mut rng);
        let mut sim = SessionSim {
            door: SessionDoor::new(SHAPE),
            stub: Stub::default(),
            routes: SessionRoutes::new(),
            rng,
            at_server: Decoder::default(),
            at_client: Decoder::default(),
            connected: true,
            closed: false,
            settled: HashMap::new(),
            accepted: HashSet::new(),
        };
        sim.send(FrameKind::Hello, &SHAPE.encode());
        let mut bodies: HashMap<u64, Vec<u8>> = HashMap::new();
        let (mut waiters, mut raw_tag) = (0u64, RAW_TAGS);
        for &(step, x) in &steps {
            let why = format!("seed {seed}: steps {steps:?}");
            match step {
                0..=2 if sim.door.reading() => {
                    let waiter = waiters;
                    waiters += 1;
                    let body = x.to_le_bytes()[..1 + (x % 7) as usize].to_vec();
                    let Ok(tag) = sim.routes.submit(waiter) else {
                        sim.settle(vec![(
                            waiter,
                            Err(RuntimeError::Transport("refused".into())),
                        )]);
                        continue;
                    };
                    assert_eq!(tag, waiter, "{why}");
                    bodies.insert(waiter, body.clone());
                    let req = SubmitReq {
                        tag,
                        tenant: x % 3,
                        priority: Some(Priority::Normal),
                        kind: Some(JobKind::BlindRotate),
                        body: &body,
                    };
                    sim.send(FrameKind::SubmitReq, &req.encode());
                }
                3 if sim.door.reading() => {
                    // What no client sends: a bad priority or kind byte, a
                    // duplicate of a raw tag, a tagless stub.
                    let mut req = SubmitReq {
                        tag: raw_tag,
                        tenant: 0,
                        priority: Some(Priority::High),
                        kind: Some(JobKind::Bootstrap),
                        body: &[1, 2, 3],
                    }
                    .encode();
                    match x % 5 {
                        0 => req[16] = 9,
                        1 => req[17] = 9,
                        2 => raw_tag += 1,
                        3 => req[..8].copy_from_slice(&raw_tag.saturating_sub(1).to_le_bytes()),
                        _ => req.truncate(7),
                    }
                    sim.send(FrameKind::SubmitReq, &req);
                }
                4 if sim.door.reading() => sim.send(FrameKind::Ping, &[]),
                5 | 6 if !sim.stub.jobs.borrow().is_empty() => sim.complete(x as usize, step == 6),
                7 if sim.door.reading() && x % 3 == 0 => {
                    // The connection is lost: the client fails every waiter,
                    // the server drains.
                    let lost = sim.routes.lose("session connection lost");
                    let lost = lost
                        .into_iter()
                        .map(|(w, o)| (w, o.map(|(_, b)| b.to_vec())))
                        .collect();
                    sim.settle(lost);
                    sim.connected = false;
                    let outs = sim.door.on_eof();
                    sim.execute(outs);
                }
                7 if sim.door.reading() => sim.send(FrameKind::Shutdown, &[]),
                _ => {}
            }
        }
        if sim.door.reading() {
            sim.send(FrameKind::Shutdown, &[]);
        }
        while !sim.stub.jobs.borrow().is_empty() {
            sim.complete(0, false);
        }
        let why = format!("seed {seed}: steps {steps:?}");
        assert!(sim.closed, "drained but never closed: {why}");
        assert!(
            sim.accepted.is_empty(),
            "owed JobDones {:?}: {why}",
            sim.accepted
        );
        for waiter in 0..waiters {
            let body = bodies.get(&waiter);
            match (sim.settled.get(&waiter), body) {
                (Some(Ok(got)), Some(body)) => assert_eq!(got, &job_answer(body), "{why}"),
                (Some(Err(RuntimeError::Rejected { .. })), Some(body)) => {
                    assert_eq!(body[0], 0xEE, "{why}")
                }
                (Some(Err(RuntimeError::AllNodesFailed(_) | RuntimeError::Transport(_))), _) => {}
                other => panic!("waiter {waiter}: {other:?}: {why}"),
            }
        }
        assert_eq!(sim.routes.in_flight(), 0, "{why}");
        steps.len()
    }

    /// A payload for `kind`: well formed (`variant` 0), cut short (1),
    /// garbage (2) or empty (3).
    fn payload(kind: FrameKind, variant: u8, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let id = [0, KEY, seed][rng.gen_range(0..3usize)];
        let batch = lwe_batch_to_wire(&lwes(rng.gen_range(0..3), seed));
        let good = match kind {
            FrameKind::Hello => SHAPE.encode(),
            FrameKind::HelloAck => proto::encode_hello_ack(SHAPE, None),
            FrameKind::BlindRotateReq | FrameKind::BlindRotateResp => {
                proto::encode_prefixed(id, &batch)
            }
            FrameKind::KeyOffer | FrameKind::KeyNeed | FrameKind::KeyAck => {
                proto::encode_prefixed(id, &[])
            }
            FrameKind::KeyUpload => proto::encode_prefixed(id, &key_bytes(id)),
            FrameKind::SubmitReq => SubmitReq {
                tag: seed % 4,
                tenant: 1,
                priority: Some(Priority::Normal),
                kind: Some(JobKind::BlindRotate),
                body: &[(seed % 2) as u8 * 0xEE, 1],
            }
            .encode(),
            FrameKind::SubmitAck => proto::encode_submit_ack(seed % 4, &RuntimeError::Shutdown),
            FrameKind::JobDone => proto::encode_job_done(seed % 4, &Err(RuntimeError::Shutdown)),
            FrameKind::StatsResp => proto::encode_stats(&[("x".into(), seed)]),
            FrameKind::Error => b"why".to_vec(),
            _ => Vec::new(),
        };
        match variant {
            0 => good,
            1 => good[..rng.gen_range(0..=good.len())].to_vec(),
            2 => (0..rng.gen_range(0..48))
                .map(|_| rng.gen::<u64>() as u8)
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Arbitrary frame sequences, every kind in every state: the node door
    /// replies only with kinds legal for what it was sent and never panics;
    /// the session door answers each `SubmitReq` at most once and owes a
    /// `JobDone` only to what it accepted. Prints the state × kind cells
    /// reached.
    #[test]
    fn frame_sequences_get_only_legal_replies() {
        use FrameKind as K;
        let runner = TestRunner::new(ProptestConfig::with_cases(3_000), "frame_sequences");
        let steps = prop::collection::vec((0u8..17, 0u8..4, any::<u64>(), 0u8..30), 0..40);
        let mut cells = BTreeSet::new();
        for case in 0..runner.cases() {
            let mut rng = runner.rng_for_case(case);
            let steps = steps.generate(&mut rng);
            let why = format!("case {case}: {steps:?}");
            let node = NodeShared {
                fault: Some(FaultState::new(FaultPlan::new(
                    (0..10).map(|c| action(c, 0)).collect(),
                ))),
                fail_after: Some(24),
                served: AtomicU64::new(0),
                dead: AtomicBool::new(false),
                telemetry: NodeTelemetry::new(),
            };
            let stub = Stub::default();
            let mut door = NodeDoor::new(&node, &stub, SHAPE);
            let mut session = SessionDoor::new(SHAPE);
            let mut owed: HashMap<u64, u32> = HashMap::new();
            for &(byte, variant, seed, extra) in &steps {
                let drawn = FrameKind::from_u8(byte).expect("0..17");
                // Mostly what a door expects next, so sequences get past
                // the handshake and stay open; otherwise the drawn kind.
                let next = |greeted: bool, usual: FrameKind| {
                    let (kind, variant) = match (greeted, extra % 3) {
                        (_, 0) => (drawn, variant),
                        (false, _) => (K::Hello, variant % 2),
                        (true, _) => (usual, variant % 2),
                    };
                    let payload = payload(kind, variant, seed);
                    Frame { kind, payload }
                };
                // The node door.
                let frame = next(door.greeted, drawn);
                let kind = frame.kind;
                cells.insert(("node", door.greeted, kind as u8));
                let greeted = door.greeted;
                let outs = door.on_frame(&frame);
                let legal: &[FrameKind] = match kind {
                    _ if !greeted => &[K::HelloAck, K::Error],
                    K::BlindRotateReq => &[K::BlindRotateResp, K::Error],
                    K::KeyOffer => &[K::KeyAck, K::KeyNeed, K::Error],
                    K::KeyUpload => &[K::KeyAck, K::Error],
                    K::Ping => &[K::Pong],
                    K::StatsReq => &[K::StatsResp],
                    K::Shutdown => &[],
                    _ => &[K::Error],
                };
                let mut replies = 0;
                for out in &outs {
                    match out {
                        Out::Frame(k, _) => {
                            assert!(legal.contains(k), "node sent {k:?} for {kind:?}: {why}")
                        }
                        Out::Raw(_) => assert_eq!(kind, K::BlindRotateReq, "{why}"),
                        Out::Submit(_) => panic!("node submitted: {why}"),
                        Out::Sleep(_) | Out::Close(_) => continue,
                    }
                    replies += 1;
                }
                assert!(replies <= 1, "{replies} replies to {kind:?}: {why}");
                if outs.iter().any(|o| matches!(o, Out::Close(_))) {
                    door = NodeDoor::new(&node, &stub, SHAPE);
                }
                // The session door, with a job finishing now and then.
                if extra % 4 == 1 && !stub.jobs.borrow().is_empty() {
                    let (tag, kind, body) = stub.jobs.borrow_mut().remove(0);
                    let outs = session.on_done(tag, &Ok((kind, &body)));
                    for out in outs {
                        if let Out::Frame(K::JobDone, _) = out {
                            let n = owed.get_mut(&tag).expect("owed a JobDone");
                            *n -= 1;
                        }
                    }
                }
                if !session.reading() {
                    session = SessionDoor::new(SHAPE);
                    stub.jobs.borrow_mut().clear();
                    owed.clear();
                }
                let frame = next(session.greeted, K::SubmitReq);
                let kind = frame.kind;
                cells.insert(("session", session.greeted, kind as u8));
                let greeted = session.greeted;
                let outs = session.on_frame(&frame);
                let legal: &[FrameKind] = match kind {
                    _ if !greeted => &[K::HelloAck, K::Error],
                    K::SubmitReq => &[K::SubmitAck],
                    K::Ping => &[K::Pong],
                    K::Shutdown => &[],
                    _ => &[K::Error],
                };
                let mut answers = Vec::new();
                for out in outs {
                    match out {
                        Out::Frame(k, p) => {
                            assert!(legal.contains(&k), "session sent {k:?} for {kind:?}: {why}");
                            answers.push(k);
                            let _ = p;
                        }
                        Out::Submit(job) => match stub.submit(&job) {
                            Ok(()) => *owed.entry(job.tag).or_default() += 1,
                            Err(e) => {
                                for out in session.refused(job.tag, &e) {
                                    if let Out::Frame(k, _) = out {
                                        answers.push(k);
                                    }
                                }
                            }
                        },
                        Out::Close(_) => {}
                        Out::Raw(_) | Out::Sleep(_) => panic!("session fault output: {why}"),
                    }
                }
                assert!(answers.len() <= 1, "{answers:?} for one {kind:?}: {why}");
                assert!(owed.values().all(|&n| n <= 1), "a tag owed twice: {why}");
            }
        }
        let mut reached = [[0; 2]; 2];
        for (role, greeted, _) in &cells {
            reached[usize::from(*role == "session")][usize::from(*greeted)] += 1;
        }
        println!(
            "state x kind cells reached (fresh, greeted): node {:?}, session {:?}",
            reached[0], reached[1]
        );
        assert_eq!(cells.len(), 2 * 2 * 17, "a cell the sequences never reach");
    }

    /// The order that used to strand a job: the session is lost between a
    /// submitter's liveness check and its insert. With one state for both,
    /// the loss either fails a waiter it finds or refuses a later submit.
    #[test]
    fn a_lost_session_fails_or_refuses_every_submission() {
        let mut routes = SessionRoutes::new();
        let tag = routes.submit("early").expect("alive");
        let failed = routes.lose("session connection lost");
        let lost = RuntimeError::Transport("session connection lost".into());
        assert_eq!(failed, vec![("early", Err(lost.clone()))]);
        assert_eq!(routes.submit("late"), Err(lost));
        assert_eq!(routes.in_flight(), 0);
        // A completion that still arrives for the early tag finds no one.
        let done = Frame {
            kind: FrameKind::JobDone,
            payload: proto::encode_job_done(tag, &Err(RuntimeError::Shutdown)),
        };
        assert!(routes.on_frame(&done).is_empty());
    }

    /// Adversarial-input hardening of the key-distribution frame payload
    /// decoders — same contract as the other wire fuzz suites: truncated
    /// prefixes error cleanly, arbitrary bytes never panic.
    mod key_frame_fuzz {
        use super::*;

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

    /// The simulator's CI budget: at least 10,000 seeded scenarios in
    /// under 10 s.
    /// The `NodeCall` mirror of heap-tfhe's
    /// `batch_held_to_its_basis_refuses_foreign_members`: a secondary's
    /// accumulators are decoded against the caller's basis, so a member
    /// with another length, another limb count or a one-bit modulus (which
    /// would unpack 64 residues per wire word) is refused on its header.
    #[test]
    fn rotate_reply_held_to_the_basis_refuses_foreign_members() {
        let batch = lwes(1, 0);
        let reply = |accs: &[RlweCiphertext], moduli: &[u64]| {
            let body = rlwe_batch_to_wire(accs, moduli);
            let payload = proto::encode_prefixed(fnv1a(&body), &body);
            let mut call = NodeCall::Rotate {
                key_id: 0,
                lwes: &batch,
                n: ACC_N,
                moduli: &[ACC_Q],
            };
            call.on_frame(Frame {
                kind: FrameKind::BlindRotateResp,
                payload,
            })
        };
        let own = accs_for(&batch);
        assert!(matches!(reply(&own, &[ACC_Q]), Ok(Reply::Batch(_))));
        let acc = |limbs: Vec<Vec<u64>>| RlweCiphertext {
            a: RnsPoly::from_limbs(limbs.clone(), Domain::Eval),
            b: RnsPoly::from_limbs(limbs, Domain::Eval),
        };
        let foreign = [
            (acc(vec![vec![1, 2]]), vec![ACC_Q]),
            (acc(vec![vec![1], vec![2]]), vec![ACC_Q, 89]),
            (acc(vec![vec![1]]), vec![89]),
            (acc(vec![vec![1; 4096]]), vec![2]),
        ];
        for (member, moduli) in foreign {
            let got = reply(&[member], &moduli);
            assert!(
                matches!(got, Err(NodeError::Protocol(_))),
                "{moduli:?}: {got:?}"
            );
        }
    }

    #[test]
    fn simulated_scenarios_settle_as_their_plans_say() {
        let start = Instant::now();
        let mut calls = [0; 7];
        for seed in 0..10_000 {
            let seen = node_scenario(seed);
            calls
                .iter_mut()
                .zip(seen)
                .for_each(|(total, n)| *total += n);
        }
        let steps: usize = (0..10_000).map(session_scenario).sum();
        let took = start.elapsed();
        // Served, Remote, Protocol, Crc, Mismatch, Timeout, Io.
        println!(
            "20000 scenarios in {took:?}: node calls by outcome {calls:?}, {steps} session steps"
        );
        assert!(
            calls.iter().all(|&n| n > 100),
            "an outcome the plans never reach: {calls:?}"
        );
        assert!(took < Duration::from_secs(10), "{took:?}");
    }
}
