//! HRT1 — the runtime's wire protocol, written once.
//!
//! Everything in `heap-runtime` that knows a byte of the protocol is in
//! this file: the 17-byte header, the [frame table](FrameKind), the one
//! parser ([`Decoder`]) and the one writer ([`write_parts`]), one
//! encode/decode pair per payload, and the socket options. What a frame
//! *means* on a connection — which kinds are legal when, what a reply
//! must echo, what a fault puts on the wire — is `conn`'s; the socket
//! loops in `server.rs`, `session.rs` and `remote.rs` move bytes between
//! a socket and those machines and slice nothing themselves. `heap-hw`
//! prices the same bytes from an independent model;
//! `tests/ledger_vs_model.rs` holds the two together.
//!
//! ```text
//! magic  "HRT1"  u32 LE   (protocol + version in one)
//! kind            u8      (a row of the frame table)
//! len             u64 LE  (payload bytes)
//! crc             u32 LE  (CRC-32 over kind, len, and payload)
//! ```
//!
//! The checksum covers the kind and length fields as well as the
//! payload, so a bit flip anywhere past the magic — including one that
//! turns the kind into another *valid* kind — surfaces as a typed error
//! rather than a silently mis-decoded frame: a
//! [`NodeError::Corrupt`](crate::NodeError::Corrupt) whenever the header
//! still fits its kind's row, a header refusal when it does not (magic
//! flips fail the magic check; crc-field flips fail their own
//! comparison). The announced length is unauthenticated input: it is held
//! against the kind's row before any buffer exists, and the buffer then
//! grows with the bytes that actually arrive.
//!
//! **The ledger rule.** Each kind's [`Class`] names the `TransferLedger`
//! counters its bytes belong to. A client books a frame *at the socket* —
//! the request once written, whether or not a reply ever comes; the reply
//! once read, even when it then fails its CRC or turns out to be an
//! `Error`.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use heap_ckks::CkksContext;
use heap_math::wire::{Crc32, WireError, WireReader, WireWriter};

use crate::job::Priority;
use crate::remote::NodeTimeouts;
use crate::RuntimeError;

/// `"HRT1"` — HEAP runtime transport, version 1.
const FRAME_MAGIC: u32 = 0x4852_5431;
/// Header bytes preceding every payload (magic + kind + length + crc).
pub(crate) const FRAME_HEADER_BYTES: u64 = 4 + 1 + 8 + 4;
/// Bound on the bulk kinds (ciphertext batches, key containers);
/// anything larger is a corrupt peer.
const MAX_FRAME: u64 = 1 << 30;
/// Bound on the kinds that carry a reason, a refusal or a key-id list.
const SMALL_FRAME: u64 = 64 << 10;
/// Bound on `StatsResp` (a few dozen `name → u64` entries today).
const STATS_FRAME: u64 = 1 << 20;
/// The most [`Decoder`] reserves before payload bytes arrive.
const READ_RESERVE: u64 = 1 << 20;

/// Which `TransferLedger` counters a frame's bytes belong to: ciphertexts
/// (the §V scatter and gather), control, or key distribution (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    Data,
    Control,
    Key,
}

/// What the protocol says about a kind's payload length; [`Decoder`]
/// checks it on the header alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Len {
    Fixed(u64),
    AtMost(u64),
}

/// Direction of a frame relative to this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dir {
    Sent,
    Received,
}

/// Declares [`FrameKind`] and everything read per kind from one listing,
/// so a kind cannot exist without a byte, a class and a length bound.
macro_rules! frame_table {
    ($($(#[$doc:meta])* $kind:ident = $byte:literal, $class:ident, $len:expr;)*) => {
        /// The HRT1 frame kinds — the protocol's one table. Each row is
        /// `kind = byte, ledger class, payload length`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum FrameKind {
            $($(#[$doc])* $kind = $byte,)*
        }

        impl FrameKind {
            pub(crate) fn from_u8(byte: u8) -> Option<Self> {
                match byte {
                    $($byte => Some(Self::$kind),)*
                    _ => None,
                }
            }

            pub(crate) fn class(self) -> Class {
                match self {
                    $(Self::$kind => Class::$class,)*
                }
            }

            pub(crate) fn len(self) -> Len {
                match self {
                    $(Self::$kind => $len,)*
                }
            }
        }
    };
}

frame_table! {
    /// The client's ring [`Shape`]; first frame of every connection.
    Hello = 0, Control, Len::Fixed(Shape::BYTES);
    /// The server's [`Shape`] — alone from a session listener, followed by
    /// the key ids it caches from a node listener ([`encode_hello_ack`]).
    /// `RemoteNode` requires the list and `SessionClient` its absence, so
    /// dialling the wrong listener is a typed error.
    HelloAck = 1, Control, Len::AtMost(SMALL_FRAME);
    /// Key id (`0` = the server's pre-loaded default key) ‖ LWE batch.
    BlindRotateReq = 2, Data, Len::AtMost(MAX_FRAME);
    /// FNV-1a digest of the accumulator batch that follows it, computed
    /// where the accumulators were produced: the attestation layer above
    /// the CRC.
    BlindRotateResp = 3, Data, Len::AtMost(MAX_FRAME);
    /// UTF-8 reason. A node connection survives it when the request was
    /// well-formed (the exchange is still in sync).
    Error = 4, Control, Len::AtMost(SMALL_FRAME);
    Shutdown = 5, Control, Len::Fixed(0);
    Ping = 6, Control, Len::Fixed(0);
    Pong = 7, Control, Len::Fixed(0);
    StatsReq = 8, Control, Len::Fixed(0);
    /// A flat `name → u64` table ([`encode_stats`]).
    StatsResp = 9, Control, Len::AtMost(STATS_FRAME);
    /// Session: submit a tagged job ([`SubmitReq`]).
    SubmitReq = 10, Data, Len::AtMost(MAX_FRAME);
    /// Session: submission refused ([`encode_submit_ack`]). *Only* sent on
    /// refusal; acceptance is implied by the eventual `JobDone`.
    SubmitAck = 11, Control, Len::AtMost(SMALL_FRAME);
    /// Session: a tagged job finished ([`encode_job_done`]).
    JobDone = 12, Data, Len::AtMost(MAX_FRAME);
    /// The key id the client wants to run under — the server's one
    /// *counted* cache lookup per batch.
    KeyOffer = 13, Key, Len::Fixed(8);
    /// The offered id (echoed) is not resident — upload it.
    KeyNeed = 14, Key, Len::Fixed(8);
    /// Key id ‖ encoded `EvalKeySet` container.
    KeyUpload = 15, Key, Len::AtMost(MAX_FRAME);
    /// The id (echoed) is now resident.
    KeyAck = 16, Key, Len::Fixed(8);
}

impl FrameKind {
    /// Holds an announced payload length against the row.
    fn check_len(self, len: u64) -> Result<(), String> {
        match self.len() {
            Len::Fixed(fixed) if len != fixed => Err(format!(
                "{self:?} frame announces {len} bytes, the protocol fixes {fixed}"
            )),
            Len::AtMost(most) if len > most => Err(format!(
                "{self:?} frame announces {len} bytes, the protocol allows {most}"
            )),
            _ => Ok(()),
        }
    }
}

/// A frame-level failure; [`crate::conn::failure`] types it for a phase.
#[derive(Debug)]
pub(crate) enum FrameError {
    Io(std::io::Error),
    Protocol(String),
    /// The frame checksum did not match — bytes were flipped on the
    /// wire. The whole frame was read, so `wire_bytes` crossed the socket.
    Corrupt {
        kind: FrameKind,
        wire_bytes: u64,
    },
}

/// One whole, checked frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Frame {
    pub kind: FrameKind,
    pub payload: Vec<u8>,
}

impl Frame {
    /// What the frame cost on the wire, header included.
    pub(crate) fn wire_bytes(&self) -> u64 {
        FRAME_HEADER_BYTES + self.payload.len() as u64
    }
}

/// Builds the 17-byte frame header for `payload`.
pub(crate) fn frame_header(kind: FrameKind, payload: &[u8]) -> [u8; HEADER] {
    let mut header = [0u8; HEADER];
    header[..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    header[4] = kind as u8;
    header[5..13].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(&header[4..13]);
    crc.update(payload);
    header[13..].copy_from_slice(&crc.finalize().to_le_bytes());
    header
}

/// Writes one frame; returns total bytes put on the wire.
pub(crate) fn write_frame(
    w: &mut impl Write,
    kind: FrameKind,
    payload: &[u8],
) -> std::io::Result<u64> {
    write_parts(w, &[&frame_header(kind, payload), payload])
}

/// The one writer under every frame and every fault's raw bytes: `parts`
/// in order, then a flush; returns the bytes written.
pub(crate) fn write_parts(w: &mut impl Write, parts: &[&[u8]]) -> std::io::Result<u64> {
    for part in parts {
        w.write_all(part)?;
    }
    w.flush()?;
    Ok(parts.iter().map(|p| p.len() as u64).sum())
}

/// The one HRT1 parser. Bytes go into [`Decoder::window`] — straight into
/// the frame's own buffer once the header is in — and
/// [`Decoder::advance`] takes them in: the header is held against its
/// kind's row the moment its 17th byte lands, and the CRC folds over each
/// chunk as it arrives. Memory follows the bytes delivered, not the length
/// announced: a 17-byte header can claim `MAX_FRAME`, so the window grows
/// by at most 1 MiB, or as much again as has already arrived, and its last
/// step is exact, so a whole frame costs its own length. An error resets
/// the decoder, but the stream behind it is out of step: drop it.
#[derive(Default)]
pub(crate) struct Decoder {
    header: [u8; HEADER],
    /// Bytes taken in so far, header included.
    have: usize,
    /// Set once the header checks out, with its length and CRC.
    kind: Option<FrameKind>,
    len: u64,
    crc: u32,
    running: Crc32,
    payload: Vec<u8>,
}

const HEADER: usize = FRAME_HEADER_BYTES as usize;

impl Decoder {
    /// Where the next bytes go: the rest of the header, or the payload's
    /// next stretch.
    pub(crate) fn window(&mut self) -> &mut [u8] {
        let Some(filled) = self.have.checked_sub(HEADER) else {
            return &mut self.header[self.have..];
        };
        if filled == self.payload.len() {
            let step = (self.len - filled as u64).min(READ_RESERVE.max(filled as u64));
            self.payload.reserve_exact(step as usize);
            self.payload.resize(filled + step as usize, 0);
        }
        &mut self.payload[filled..]
    }

    /// Takes in the `n` bytes just written to [`Decoder::window`]; yields
    /// the frame they complete, if any.
    pub(crate) fn advance(&mut self, n: usize) -> Result<Option<Frame>, FrameError> {
        let start = self.have;
        self.have += n;
        match start.checked_sub(HEADER) {
            _ if self.have < HEADER => return Ok(None),
            None => self
                .check_header()
                .inspect_err(|_| *self = Self::default())?,
            Some(from) => self.running.update(&self.payload[from..from + n]),
        }
        if ((self.have - HEADER) as u64) < self.len {
            return Ok(None);
        }
        let done = std::mem::take(self);
        let kind = done.kind.expect("a checked header");
        if done.running.finalize() != done.crc {
            let wire_bytes = FRAME_HEADER_BYTES + done.len;
            return Err(FrameError::Corrupt { kind, wire_bytes });
        }
        let payload = done.payload;
        Ok(Some(Frame { kind, payload }))
    }

    fn check_header(&mut self) -> Result<(), FrameError> {
        let mut h = WireReader::new(&self.header);
        let (Ok(magic), Ok(kind_byte), Ok(len), Ok(crc)) =
            (h.get_u32(), h.get_u8(), h.get_u64(), h.get_u32())
        else {
            unreachable!("the header buffer holds all four fields");
        };
        if magic != FRAME_MAGIC {
            return Err(FrameError::Protocol(format!(
                "bad frame magic {magic:#010x}"
            )));
        }
        let kind = FrameKind::from_u8(kind_byte)
            .ok_or_else(|| FrameError::Protocol(format!("unknown frame kind {kind_byte}")))?;
        kind.check_len(len).map_err(FrameError::Protocol)?;
        (self.kind, self.len, self.crc) = (Some(kind), len, crc);
        self.running.update(&self.header[4..13]);
        Ok(())
    }
}

/// Reads one frame, and not a byte past it.
pub(crate) fn read_frame(r: &mut impl Read) -> Result<Frame, FrameError> {
    let mut decoder = Decoder::default();
    loop {
        let n = match r.read(decoder.window()) {
            Ok(0) => return Err(FrameError::Io(ErrorKind::UnexpectedEof.into())),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        };
        if let Some(frame) = decoder.advance(n)? {
            return Ok(frame);
        }
    }
}

/// The ring shape both sides must agree on before any ciphertext moves:
/// the `Hello` payload and the head of every `HelloAck`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Shape {
    pub n: u32,
    pub boot_limbs: u32,
    pub q0: u64,
}

impl Shape {
    const BYTES: u64 = 4 + 4 + 8;

    pub(crate) fn of(ctx: &CkksContext) -> Self {
        Self {
            n: ctx.n() as u32,
            boot_limbs: ctx.boot_limbs() as u32,
            q0: ctx.q_modulus(0).value(),
        }
    }

    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u32(self.n);
        w.put_u32(self.boot_limbs);
        w.put_u64(self.q0);
        w.into_bytes()
    }

    pub(crate) fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(payload);
        let shape = Self {
            n: r.get_u32()?,
            boot_limbs: r.get_u32()?,
            q0: r.get_u64()?,
        };
        // Like every schema without a trailing body, a strict parse.
        r.finish()?;
        Ok(shape)
    }

    /// The handshake's one comparison, worded from the local side.
    pub(crate) fn check_peer(&self, peer: &Shape) -> Result<(), String> {
        if peer != self {
            return Err(format!(
                "ring shape mismatch: peer {peer:?} vs local {self:?}"
            ));
        }
        Ok(())
    }
}

/// The most key ids a node advertises: what fits `HelloAck`'s bound. The
/// list is most-recently-used first, so the tail is what goes.
const MAX_ADVERTISED_IDS: usize = ((SMALL_FRAME - Shape::BYTES - 4) / 8) as usize;

/// `HelloAck` payload: the server's shape, then — from a node listener
/// only, where `key_ids` is `Some` (possibly empty) — `u32` count and
/// that many `u64` ids.
pub(crate) fn encode_hello_ack(shape: Shape, key_ids: Option<&[u64]>) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_raw(&shape.encode());
    if let Some(ids) = key_ids {
        let ids = &ids[..ids.len().min(MAX_ADVERTISED_IDS)];
        w.put_u32(ids.len() as u32);
        ids.iter().for_each(|id| w.put_u64(*id));
    }
    w.into_bytes()
}

/// The bare shape is the session form (`None`).
pub(crate) fn decode_hello_ack(payload: &[u8]) -> Result<(Shape, Option<Vec<u64>>), WireError> {
    let mut r = WireReader::new(payload);
    let shape = Shape::decode(r.get_raw(Shape::BYTES as usize)?)?;
    if r.remaining() == 0 {
        return Ok((shape, None));
    }
    let count = r.get_u32()? as usize;
    // The count is the peer's claim: hold it against what the payload
    // carries before allocating for it.
    if r.remaining() != count.saturating_mul(8) {
        return Err(WireError::Corrupt("hello-ack key count"));
    }
    let ids = (0..count).map(|_| r.get_u64()).collect::<Result<_, _>>()?;
    Ok((shape, Some(ids)))
}

/// `u64 ‖ bulk body`, the layout of `BlindRotateReq` (key id ‖ LWE
/// batch), `BlindRotateResp` (attestation digest ‖ accumulator batch) and
/// `KeyUpload` (key id ‖ `EKS1` container) — and, with an empty body, of
/// `KeyOffer` / `KeyNeed` / `KeyAck` (the key id alone).
pub(crate) fn encode_prefixed(word: u64, body: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(8 + body.len());
    w.put_u64(word);
    w.put_raw(body);
    w.into_bytes()
}

pub(crate) fn decode_prefixed(payload: &[u8]) -> Result<(u64, &[u8]), WireError> {
    let mut r = WireReader::new(payload);
    Ok((r.get_u64()?, r.rest()))
}

/// The reason an `Error` frame carries (its encoding is `str::as_bytes`).
pub(crate) fn decode_error(payload: &[u8]) -> String {
    String::from_utf8_lossy(payload).into_owned()
}

/// `StatsResp` payload: `u32` entry count, then per entry a `u16` name
/// length, the UTF-8 name, and a `u64` value.
pub(crate) fn encode_stats(entries: &[(String, u64)]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u32(entries.len() as u32);
    for (name, value) in entries {
        w.put_u16(name.len() as u16);
        w.put_raw(name.as_bytes());
        w.put_u64(*value);
    }
    w.into_bytes()
}

pub(crate) fn decode_stats(payload: &[u8]) -> Result<Vec<(String, u64)>, WireError> {
    let mut r = WireReader::new(payload);
    let count = r.get_u32()? as usize;
    // The count is the peer's claim: bound it by what the payload can hold
    // (the smallest entry is 2 + 0 + 8 bytes) before allocating for it.
    if count > r.remaining() / 10 {
        return Err(WireError::Truncated);
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let len = usize::from(r.get_u16()?);
        let name = std::str::from_utf8(r.get_raw(len)?)
            .map_err(|_| WireError::Corrupt("stats name is not UTF-8"))?;
        entries.push((name.to_string(), r.get_u64()?));
    }
    r.finish()?;
    Ok(entries)
}

/// What a session job asks for, and so what its body and its result are:
/// a CKKS ciphertext both ways, or an LWE batch in and accumulators out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobKind {
    Bootstrap,
    BlindRotate,
}

/// `Priority` and `JobKind` travel as one byte each: the variant's
/// position in its declaration, which these tables invert.
const PRIORITIES: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];
const JOB_KINDS: [JobKind; 2] = [JobKind::Bootstrap, JobKind::BlindRotate];

/// `SubmitReq` payload: `tag u64 | tenant u64 | priority u8 | kind u8 |
/// body`. An unknown priority or kind byte decodes to `None` rather than
/// failing, so the server can still address its refusal to the tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SubmitReq<'a> {
    pub tag: u64,
    pub tenant: u64,
    pub priority: Option<Priority>,
    pub kind: Option<JobKind>,
    pub body: &'a [u8],
}

impl<'a> SubmitReq<'a> {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(18 + self.body.len());
        w.put_u64(self.tag);
        w.put_u64(self.tenant);
        w.put_u8(self.priority.map_or(u8::MAX, |p| p as u8));
        w.put_u8(self.kind.map_or(u8::MAX, |k| k as u8));
        w.put_raw(self.body);
        w.into_bytes()
    }

    pub(crate) fn decode(payload: &'a [u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(payload);
        Ok(Self {
            tag: r.get_u64()?,
            tenant: r.get_u64()?,
            priority: PRIORITIES.get(usize::from(r.get_u8()?)).copied(),
            kind: JOB_KINDS.get(usize::from(r.get_u8()?)).copied(),
            body: r.rest(),
        })
    }
}

/// `SubmitAck` payload — why a submission was refused: `tag u64 | status
/// u8 | detail`. Status 1 is SLO admission control (detail: the retry
/// hint in `u64` nanoseconds), 3 a shutdown (no detail), 2 anything else
/// (detail: the reason).
pub(crate) fn encode_submit_ack(tag: u64, refusal: &RuntimeError) -> Vec<u8> {
    let (ns, other);
    let (status, detail) = match refusal {
        RuntimeError::Rejected { retry_after } => {
            ns = u64::try_from(retry_after.as_nanos())
                .unwrap_or(u64::MAX)
                .to_le_bytes();
            (1, &ns[..])
        }
        RuntimeError::Shutdown => (3, &[][..]),
        // The variants that are nothing but a reason travel as it.
        RuntimeError::Invalid(why) => (2, why.as_bytes()),
        RuntimeError::Transport(why) => (2, why.as_bytes()),
        unnamed => {
            other = unnamed.to_string();
            (2, other.as_bytes())
        }
    };
    let mut w = WireWriter::with_capacity(9 + detail.len());
    w.put_u64(tag);
    w.put_u8(status);
    w.put_raw(detail);
    w.into_bytes()
}

/// As the client reports it. An unknown status reads as a reason and a
/// short SLO hint as zero: the submission was refused either way.
pub(crate) fn decode_submit_ack(payload: &[u8]) -> Result<(u64, RuntimeError), WireError> {
    let mut r = WireReader::new(payload);
    let tag = r.get_u64()?;
    let refusal = match r.get_u8()? {
        1 => RuntimeError::Rejected {
            retry_after: Duration::from_nanos(r.get_u64().unwrap_or(0)),
        },
        3 => RuntimeError::Shutdown,
        _ => RuntimeError::Transport(format!("refused: {}", decode_error(r.rest()))),
    };
    Ok((tag, refusal))
}

/// How a session job ended: its result's kind and encoded body, or why not.
pub(crate) type JobOutcome<'a> = Result<(JobKind, &'a [u8]), RuntimeError>;

/// `JobDone` payload: `tag u64 | status u8 |` then either `kind u8 |
/// result body` (status 0) or `code u8 | UTF-8 message` (status 1; code
/// 1 = every node failed, 2 = shut down, 0 = anything else).
pub(crate) fn encode_job_done(tag: u64, outcome: &JobOutcome<'_>) -> Vec<u8> {
    let other;
    let (status, byte, rest) = match outcome {
        Ok((kind, body)) => (0, *kind as u8, *body),
        Err(RuntimeError::AllNodesFailed(last)) => (1, 1, last.as_bytes()),
        Err(RuntimeError::Shutdown) => (1, 2, &[][..]),
        Err(e) => {
            other = e.to_string();
            (1, 0, other.as_bytes())
        }
    };
    let mut w = WireWriter::with_capacity(10 + rest.len());
    w.put_u64(tag);
    w.put_u8(status);
    w.put_u8(byte);
    w.put_raw(rest);
    w.into_bytes()
}

/// Fails only when there is no tag to route by; anything malformed after
/// it is that job's (typed) failure, so its waiter wakes.
pub(crate) fn decode_job_done(payload: &[u8]) -> Result<(u64, JobOutcome<'_>), WireError> {
    let mut r = WireReader::new(payload);
    let tag = r.get_u64()?;
    let outcome = match (r.get_u8(), r.get_u8()) {
        (Ok(0), Ok(kind)) => JOB_KINDS
            .get(usize::from(kind))
            .map(|kind| Ok((*kind, r.rest()))),
        (Ok(1), Ok(code)) => {
            let msg = decode_error(r.rest());
            Some(Err(match code {
                1 => RuntimeError::AllNodesFailed(msg),
                2 => RuntimeError::Shutdown,
                _ => RuntimeError::Transport(msg),
            }))
        }
        _ => None,
    };
    let malformed = || Err(RuntimeError::Transport("malformed JobDone frame".into()));
    Ok((tag, outcome.unwrap_or_else(malformed)))
}

/// What both listeners arm on an accepted socket: a dead or stalled
/// *client* must not wedge a connection thread forever on a blocked
/// write; reads stay unbounded (idle connections — a prober holding one
/// open, a session between jobs — are normal).
pub(crate) const SERVER_TIMEOUTS: NodeTimeouts = NodeTimeouts {
    connect: Duration::ZERO,
    read: Duration::ZERO,
    write: Duration::from_secs(30),
};

/// The one place socket options are set: no Nagle delay, and `t`'s read
/// and write deadlines (zero = unbounded, the `set_*_timeout` convention).
pub(crate) fn configure(stream: &TcpStream, t: NodeTimeouts) -> std::io::Result<()> {
    let bounded = |d: Duration| (d > Duration::ZERO).then_some(d);
    stream.set_nodelay(true)?;
    stream.set_read_timeout(bounded(t.read))?;
    stream.set_write_timeout(bounded(t.write))
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Decoder {
        /// Feeds bytes from memory, taking them off the front of `input` up
        /// to the end of the first frame they complete.
        pub(crate) fn feed(&mut self, input: &mut &[u8]) -> Result<Option<Frame>, FrameError> {
            loop {
                let window = self.window();
                let n = window.len().min(input.len());
                window[..n].copy_from_slice(&input[..n]);
                *input = &input[n..];
                if let Some(frame) = self.advance(n)? {
                    return Ok(Some(frame));
                }
                if input.is_empty() {
                    return Ok(None);
                }
            }
        }
    }

    const SHAPE: Shape = Shape {
        n: 1024,
        boot_limbs: 3,
        q0: 0x0000_000f_fffc_4001,
    };

    /// One fixed payload per kind (and the other forms of the kinds that
    /// have several), with the bytes the hand-written encoders in
    /// `remote.rs` / `session.rs` produced for the same values at commit
    /// 9ea747e, before they were deleted.
    fn pinned() -> [(FrameKind, Vec<u8>, &'static str); 22] {
        let key = 0x1122_3344_5566_7788u64;
        let node_ack = encode_hello_ack(SHAPE, Some(&[key, 9]));
        let session_ack = encode_hello_ack(SHAPE, None);
        let request = encode_prefixed(0xAABB_CCDD_0011_2233, b"lwe-batch");
        let response = encode_prefixed(0x0102_0304_0506_0708, b"acc-batch");
        let upload = encode_prefixed(key, b"EKS1-container");
        let stats = [
            ("node_requests".to_string(), 7),
            ("x".to_string(), u64::MAX),
        ];
        let submit = SubmitReq {
            tag: 5,
            tenant: 77,
            priority: Some(Priority::High),
            kind: Some(JobKind::BlindRotate),
            body: b"lwe-batch",
        };
        let refused = |refusal| encode_submit_ack(5, &refusal);
        let done = |outcome: JobOutcome<'_>| encode_job_done(6, &outcome);
        let slo = RuntimeError::Rejected {
            retry_after: Duration::from_nanos(1_500_000),
        };
        let all_failed = RuntimeError::AllNodesFailed("node-b: timeout".into());
        #[rustfmt::skip]
        let pinned = [
            (FrameKind::Hello, SHAPE.encode(), "315452480010000000000000007ebdb01300040000030000000140fcff0f000000"),
            (FrameKind::HelloAck, node_ack, "3154524801240000000000000049ba562c00040000030000000140fcff0f0000000200000088776655443322110900000000000000"),
            (FrameKind::HelloAck, session_ack, "31545248011000000000000000702d3bb600040000030000000140fcff0f000000"),
            (FrameKind::BlindRotateReq, request, "315452480211000000000000008b16b17933221100ddccbbaa6c77652d6261746368"),
            (FrameKind::BlindRotateResp, response, "31545248031100000000000000a154273708070605040302016163632d6261746368"),
            (FrameKind::Error, b"injected fault: fail".to_vec(), "315452480414000000000000007aa20239696e6a6563746564206661756c743a206661696c"),
            (FrameKind::Shutdown, vec![], "31545248050000000000000000e1519eac"),
            (FrameKind::Ping, vec![], "31545248060000000000000000246d1395"),
            (FrameKind::Pong, vec![], "3154524807000000000000000067796882"),
            (FrameKind::StatsReq, vec![], "31545248080000000000000000b6b6d15d"),
            (FrameKind::StatsResp, encode_stats(&stats), "31545248092600000000000000251269b9020000000d006e6f64655f72657175657374730700000000000000010078ffffffffffffffff"),
            (FrameKind::SubmitReq, submit.encode(), "315452480a1b000000000000007193fd6705000000000000004d0000000000000002016c77652d6261746368"),
            (FrameKind::SubmitAck, refused(slo), "315452480b11000000000000006eccf72105000000000000000160e3160000000000"),
            (FrameKind::SubmitAck, refused(RuntimeError::Invalid("duplicate tag")), "315452480b160000000000000086c7f3070500000000000000026475706c696361746520746167"),
            (FrameKind::SubmitAck, refused(RuntimeError::Shutdown), "315452480b09000000000000000b2ce428050000000000000003"),
            (FrameKind::JobDone, done(Ok((JobKind::Bootstrap, b"ckks-ct"))), "315452480c110000000000000005bdd1ec06000000000000000000636b6b732d6374"),
            (FrameKind::JobDone, done(Err(all_failed)), "315452480c19000000000000001dda3320060000000000000001016e6f64652d623a2074696d656f7574"),
            (FrameKind::JobDone, done(Err(RuntimeError::Shutdown)), "315452480c0a00000000000000ad3c4fd206000000000000000102"),
            (FrameKind::KeyOffer, encode_prefixed(key, &[]), "315452480d0800000000000000a7e354d08877665544332211"),
            (FrameKind::KeyNeed, encode_prefixed(key, &[]), "315452480e080000000000000023b8ce838877665544332211"),
            (FrameKind::KeyUpload, upload, "315452480f1600000000000000823c50a38877665544332211454b53312d636f6e7461696e6572"),
            (FrameKind::KeyAck, encode_prefixed(key, &[]), "31545248100800000000000000c8d9bbd58877665544332211"),
        ];
        pinned
    }

    /// HRT1 is unchanged on the wire: each pinned payload framed and
    /// compared with its pinned bytes, then read back.
    #[test]
    fn every_kind_encodes_to_the_pinned_bytes() {
        let mut covered = [false; 17];
        for (kind, payload, want) in pinned() {
            let mut wire = Vec::new();
            write_frame(&mut wire, kind, &payload).expect("write");
            let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, want, "{kind:?}");
            let frame = read_frame(&mut wire.as_slice()).expect("read back");
            assert_eq!(frame.wire_bytes(), wire.len() as u64);
            assert_eq!(frame, Frame { kind, payload });
            covered[kind as usize] = true;
        }
        assert_eq!(covered, [true; 17], "a kind has no pinned frame");
    }

    /// What the pinned frames cannot show: the decoders invert the
    /// encoders, and bytes no honest peer sends decode to a typed result —
    /// keeping the tag whenever there is one to answer or fail by.
    #[test]
    fn decoders_invert_encoders_and_survive_hostile_input() {
        assert_eq!(Shape::decode(&SHAPE.encode()), Ok(SHAPE));
        for key_ids in [None, Some(vec![]), Some(vec![3, u64::MAX])] {
            let wire = encode_hello_ack(SHAPE, key_ids.as_deref());
            assert_eq!(decode_hello_ack(&wire), Ok((SHAPE, key_ids)));
        }
        // A node with more cached keys than fit advertises the head of
        // its most-recently-used list.
        let crowded: Vec<u64> = (0..10_000).collect();
        let (_, advertised) =
            decode_hello_ack(&encode_hello_ack(SHAPE, Some(&crowded))).expect("fits the bound");
        assert_eq!(advertised.as_deref(), Some(&crowded[..MAX_ADVERTISED_IDS]));
        assert_eq!(
            decode_prefixed(&encode_prefixed(42, b"body")),
            Ok((42, &b"body"[..]))
        );
        assert_eq!(decode_prefixed(&[0; 7]), Err(WireError::Truncated));
        let mut submit = SubmitReq {
            tag: 1,
            tenant: 2,
            priority: Some(Priority::Low),
            kind: Some(JobKind::Bootstrap),
            body: b"ct",
        };
        let mut wire = submit.encode();
        assert_eq!(SubmitReq::decode(&wire), Ok(submit));
        (wire[16], wire[17]) = (9, 9);
        (submit.priority, submit.kind) = (None, None);
        assert_eq!(
            SubmitReq::decode(&wire),
            Ok(submit),
            "bad enum bytes keep the tag"
        );
        assert!(
            SubmitReq::decode(&wire[..17]).is_err(),
            "no room for the kind"
        );
        for failure in [
            RuntimeError::Shutdown,
            RuntimeError::AllNodesFailed("last".into()),
        ] {
            let done = encode_job_done(9, &Err(failure.clone()));
            assert_eq!(decode_job_done(&done), Ok((9, Err(failure))));
        }
        let slo = RuntimeError::Rejected {
            retry_after: Duration::from_millis(3),
        };
        assert_eq!(decode_submit_ack(&encode_submit_ack(8, &slo)), Ok((8, slo)));
        // Any other refusal reaches the client as its reason.
        let invalid = encode_submit_ack(8, &RuntimeError::Invalid("why"));
        let reported = RuntimeError::Transport("refused: why".into());
        assert_eq!(decode_submit_ack(&invalid), Ok((8, reported)));
        // A `JobDone` tag with nothing usable behind it fails that job.
        for tail in [&[][..], &[0], &[0, 7], &[2, 0]] {
            let cut = [&9u64.to_le_bytes()[..], tail].concat();
            let (tag, outcome) = decode_job_done(&cut).expect("tag survives");
            assert!(
                matches!((tag, outcome), (9, Err(RuntimeError::Transport(_)))),
                "{tail:?}"
            );
        }
        assert!(decode_job_done(&[0; 7]).is_err(), "no tag");
    }

    #[test]
    fn kind_bytes_0_to_16_round_trip_and_the_rest_are_refused() {
        for byte in 0..=u8::MAX {
            let mut wire = frame_header(FrameKind::Ping, &[]).to_vec();
            wire[4] = byte;
            // Re-framed at the kind's smallest legal length, so that only
            // the kind byte decides.
            if let Some(kind) = FrameKind::from_u8(byte) {
                let len = match kind.len() {
                    Len::Fixed(n) => n,
                    Len::AtMost(_) => 0,
                };
                wire.clear();
                write_frame(&mut wire, kind, &vec![0; len as usize]).expect("write");
            }
            match read_frame(&mut wire.as_slice()) {
                Ok(frame) => assert!(byte <= 16 && frame.kind as u8 == byte, "byte {byte}"),
                Err(FrameError::Protocol(why)) => {
                    assert!(byte > 16 && why.contains("unknown"), "byte {byte}: {why}")
                }
                other => panic!("kind byte {byte}: {other:?}"),
            }
        }
    }

    /// A `Read` that records the largest buffer it is ever offered.
    struct Watched<'a> {
        data: &'a [u8],
        largest_offer: usize,
    }

    impl Read for Watched<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.largest_offer = self.largest_offer.max(buf.len());
            self.data.read(buf)
        }
    }

    /// The announced length is a claim; memory follows delivery. A header
    /// announcing `MAX_FRAME` followed by ten bytes and EOF must not make
    /// `read_frame` allocate (and offer the reader) a gibibyte.
    #[test]
    fn read_frame_allocates_what_arrives_not_what_is_announced() {
        let mut wire = frame_header(FrameKind::BlindRotateReq, &[]).to_vec();
        wire[5..13].copy_from_slice(&MAX_FRAME.to_le_bytes());
        wire.extend_from_slice(&[7u8; 10]);
        let mut r = Watched {
            data: &wire,
            largest_offer: 0,
        };
        match read_frame(&mut r) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("{other:?}"),
        }
        assert!(r.data.is_empty(), "the ten bytes were consumed");
        assert!(
            r.largest_offer <= 2 << 20,
            "read_frame offered {} bytes for 10 delivered",
            r.largest_offer
        );
    }

    fn framed(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, kind, payload).expect("write");
        wire
    }

    /// Each golden frame, and every two of them back to back, fed to one
    /// decoder in two parts split at every byte offset: the same frames
    /// come out.
    #[test]
    fn the_decoder_yields_the_same_frames_at_any_split() {
        let golden: Vec<_> = pinned()
            .into_iter()
            .map(|(k, p, _)| Frame {
                kind: k,
                payload: p,
            })
            .collect();
        let singles = golden.iter().map(|f| vec![f]);
        let pairs = golden
            .iter()
            .flat_map(|a| golden.iter().map(move |b| vec![a, b]));
        for want in singles.chain(pairs) {
            let bytes: Vec<u8> = want
                .iter()
                .flat_map(|f| framed(f.kind, &f.payload))
                .collect();
            for cut in 0..=bytes.len() {
                let (mut decoder, mut got) = (Decoder::default(), Vec::new());
                for mut part in [&bytes[..cut], &bytes[cut..]] {
                    while !part.is_empty() {
                        got.extend(decoder.feed(&mut part).expect("a clean stream"));
                    }
                }
                assert_eq!(got.iter().collect::<Vec<_>>(), want, "split at {cut}");
            }
        }
    }

    /// A bad magic, an unknown kind, a wrong fixed length and a length
    /// over the kind's cap are each refused on the header's 17th byte: not
    /// a byte of payload read, no payload window offered.
    #[test]
    fn hostile_headers_are_refused_within_their_17_bytes() {
        let header = |kind, len: u64| {
            let mut h = frame_header(kind, &[]);
            h[5..13].copy_from_slice(&len.to_le_bytes());
            h
        };
        let (mut bad_magic, mut unknown) = (header(FrameKind::Ping, 0), header(FrameKind::Ping, 0));
        bad_magic[0] ^= 1;
        unknown[4] = 17;
        for (hostile, why) in [
            (bad_magic, "magic"),
            (unknown, "unknown"),
            (header(FrameKind::KeyOffer, 9), "fixes"),
            (header(FrameKind::KeyUpload, MAX_FRAME + 1), "allows"),
            (header(FrameKind::StatsResp, STATS_FRAME + 1), "allows"),
        ] {
            let wire = [&hostile[..], &[0u8; 64]].concat();
            let mut r = Watched {
                data: &wire,
                largest_offer: 0,
            };
            match read_frame(&mut r) {
                Err(FrameError::Protocol(msg)) => assert!(msg.contains(why), "{msg}"),
                other => panic!("{why}: {other:?}"),
            }
            assert_eq!((r.data.len(), r.largest_offer), (64, HEADER), "{why}");
            let mut decoder = Decoder::default();
            for (at, byte) in hostile.iter().enumerate() {
                match decoder.feed(&mut &[*byte][..]) {
                    Ok(None) if at + 1 < HEADER => {}
                    Err(FrameError::Protocol(_)) if at + 1 == HEADER => {}
                    other => panic!("{why}, byte {at}: {other:?}"),
                }
            }
            assert_eq!(decoder.payload.capacity(), 0, "{why}");
        }
    }

    /// A bit flip past the magic never yields a frame. In the CRC field or
    /// the payload it is always `Corrupt`; in the kind or length it is
    /// `Corrupt` whenever the row still admits the header, and otherwise
    /// refused on the header or left waiting for bytes that never come.
    #[test]
    fn every_bit_flip_past_the_magic_is_caught() {
        for (kind, payload, _) in pinned() {
            let wire = framed(kind, &payload);
            for bit in 32..wire.len() * 8 {
                let mut flipped = wire.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                let header_field = bit < 13 * 8;
                match Decoder::default().feed(&mut &flipped[..]) {
                    Err(FrameError::Corrupt { .. }) => {}
                    Err(FrameError::Protocol(_)) | Ok(None) if header_field => {}
                    other => panic!("{kind:?}, bit {bit}: {other:?}"),
                }
            }
        }
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
            // The bounded kinds are held to their row the same way.
            (FrameKind::Error, 65_537),
            (FrameKind::HelloAck, SMALL_FRAME + 1),
            (FrameKind::StatsResp, STATS_FRAME + 1),
            (FrameKind::KeyUpload, MAX_FRAME + 1),
        ] {
            let mut wire = frame_header(kind, &[]).to_vec();
            wire[5..13].copy_from_slice(&announced.to_le_bytes());
            wire.extend_from_slice(&[0u8; 64]);
            let mut r = std::io::Cursor::new(wire);
            match read_frame(&mut r) {
                Err(FrameError::Protocol(why)) => {
                    assert!(why.contains("fixes") || why.contains("allows"), "{why}")
                }
                other => panic!("{kind:?} announcing {announced}: {other:?}"),
            }
            assert_eq!(r.position(), FRAME_HEADER_BYTES, "{kind:?}: payload read");
        }
        // The right lengths still parse.
        for (kind, payload) in [
            (FrameKind::Ping, &[][..]),
            (FrameKind::Hello, &[7u8; Shape::BYTES as usize][..]),
            (FrameKind::KeyOffer, &[7u8; 8][..]),
        ] {
            let mut wire = Vec::new();
            write_frame(&mut wire, kind, payload).expect("write");
            let frame = read_frame(&mut wire.as_slice()).expect("read");
            assert_eq!((frame.kind, frame.payload.as_slice()), (kind, payload));
        }
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
            if let Len::Fixed(fixed) = kind.len() {
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
                let frame = read_frame(&mut Cursor::new(&buf)).expect("decode");
                prop_assert_eq!(frame.wire_bytes(), buf.len() as u64);
                prop_assert_eq!(frame, Frame { kind, payload });
            }
        }
    }

    /// Adversarial-input hardening of the `HelloAck` decoder — same
    /// contract as the other wire fuzz suites: truncated prefixes error
    /// cleanly, arbitrary bytes never panic.
    mod hello_ack_fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn hello_ack_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
                let _ = decode_hello_ack(&bytes);
            }

            #[test]
            fn hello_ack_roundtrips_and_rejects_prefixes(
                ids in prop::collection::vec(any::<u64>(), 0..8),
                cut in 0usize..1 << 16,
            ) {
                let payload = encode_hello_ack(SHAPE, Some(&ids));
                prop_assert_eq!(decode_hello_ack(&payload), Ok((SHAPE, Some(ids))));
                // The only prefix that parses is the bare shape — the
                // session form, which carries no list.
                let cut = cut % payload.len();
                match decode_hello_ack(&payload[..cut]) {
                    Ok(prefix) => prop_assert_eq!((cut, prefix), (16, (SHAPE, None))),
                    Err(_) => prop_assert_ne!(cut, 16),
                }
                // Strict parse: nothing may follow the id list.
                let mut trailing = payload;
                trailing.push(cut as u8);
                prop_assert!(decode_hello_ack(&trailing).is_err());
            }
        }
    }
}
