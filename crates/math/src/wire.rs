//! Bit-packed wire serialization.
//!
//! Ciphertexts crossing HEAP's CMAC links (and its HBM) are packed at the
//! coefficient bit-width — a 36-bit limb costs 36 bits on the wire, not a
//! 64-bit word — which is exactly how the paper sizes its transfers
//! (0.44 MB RLWE, 2.3 KB LWE, §III-C). This module provides the packing
//! primitives and a small length-prefixed wire format; `heap-tfhe` and
//! `heap-ckks` build ciphertext encodings on top, and the root test suite
//! cross-checks the byte counts against `heap-hw`'s memory layout model.

/// Error from decoding a wire buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the announced content.
    Truncated,
    /// A length or parameter field held an implausible value.
    Corrupt(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire buffer truncated"),
            WireError::Corrupt(what) => write!(f, "corrupt wire field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Bits one residue modulo `modulus` costs on the wire (`ceil(log2(m))`):
/// every ciphertext, key and frame codec packs at this width.
pub fn residue_bits(modulus: u64) -> u32 {
    64 - (modulus - 1).leading_zeros()
}

/// The one packing loop. Writes `values`, `bits` bits each, LSB first,
/// into `out` a whole little-endian word at a time; `out` must be zeroed
/// and exactly [`packed_size`] long for the run.
///
/// # Panics
///
/// Panics if a value does not fit `bits` bits or the iterator's length
/// disagrees with `out`.
fn pack_words(out: &mut [u8], values: impl Iterator<Item = u64>, bits: u32) {
    let (mut acc, mut fill, mut pos, mut seen) = (0u64, 0u32, 0usize, 0u64);
    values.for_each(|v| {
        seen |= v;
        acc |= v << fill;
        fill += bits;
        if fill >= 64 {
            out[pos..pos + 8].copy_from_slice(&acc.to_le_bytes());
            pos += 8;
            fill -= 64;
            // What the flushed word had no room for (`fill` bits of `v`).
            acc = if fill == 0 { 0 } else { v >> (bits - fill) };
        }
    });
    assert!(bits == 64 || seen >> bits == 0, "value exceeds bit width");
    let tail = (fill as usize).div_ceil(8);
    assert_eq!(pos + tail, out.len(), "packed run length mismatch");
    out[pos..].copy_from_slice(&acc.to_le_bytes()[..tail]);
}

/// The one unpacking loop: reads `count` values of `bits` bits from `buf`
/// (exactly [`packed_size`] long), one unaligned word read per value —
/// plus a ninth byte when `bits + 7 > 64`, the most a value can straddle.
/// Returns the values and the largest of them, so a range check costs no
/// second pass.
fn unpack_words(buf: &[u8], bits: u32, count: usize) -> (Vec<u64>, u64) {
    let bits_us = bits as usize;
    let mask = u64::MAX >> (64 - bits);
    let wide = bits > 57;
    let span = if wide { 9 } else { 8 };
    let read = |bytes: &[u8], bit: usize| {
        let (byte, shift) = (bit / 8, (bit % 8) as u32);
        let word: [u8; 8] = bytes[byte..byte + 8].try_into().expect("8 bytes");
        let mut v = u64::from_le_bytes(word) >> shift;
        if wide && shift > 0 {
            v |= u64::from(bytes[byte + 8]) << (64 - shift);
        }
        v & mask
    };
    let mut out = Vec::with_capacity(count);
    let mut max = 0u64;
    let mut keep = |v: u64| {
        max = max.max(v);
        v
    };
    // Values whose `span`-byte read stays inside `buf` are read in place;
    // the last few come from a zero-padded copy of the tail, so nothing
    // is ever read past the run.
    let direct = match buf.len().checked_sub(span) {
        Some(room) => count.min((8 * room + 7) / bits_us + 1),
        None => 0,
    };
    out.extend((0..direct).map(|i| keep(read(buf, i * bits_us))));
    if direct < count {
        let from = direct * bits_us / 8;
        let mut tail = [0u8; 24];
        tail[..buf.len() - from].copy_from_slice(&buf[from..]);
        out.extend((direct..count).map(|i| keep(read(&tail, i * bits_us - from * 8))));
    }
    (out, max)
}

/// Packs `values` (each `< 2^bits`) into a byte vector, `bits` bits each
/// — the free-function spelling of [`WireWriter::put_packed`].
///
/// # Panics
///
/// Panics if `bits` is 0 or above 64, or a value does not fit.
pub fn pack_bits(values: &[u64], bits: u32) -> Vec<u8> {
    WireWriter::encode(|w| w.put_packed(values, bits))
}

/// Unpacks `count` values of `bits` bits each from a byte slice — the
/// free-function spelling of [`WireReader::get_packed`].
///
/// # Errors
///
/// Returns [`WireError::Truncated`] if the buffer is too short.
pub fn unpack_bits(buf: &[u8], bits: u32, count: usize) -> Result<Vec<u64>, WireError> {
    WireReader::new(buf).get_packed(bits, count)
}

/// Bytes needed to pack `count` values at `bits` bits each.
pub fn packed_size(count: usize, bits: u32) -> usize {
    (count * bits as usize).div_ceil(8)
}

/// Streaming FNV-1a — the 64-bit fingerprint the digest gates, the golden
/// wire rows, the attestation digest and [`derive_seed`] pin. Feed bytes
/// in any chunking with [`Fnv1a::update`]. It is one multiply per byte in
/// series; bulk content addresses use [`Xxh64`].
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    /// Finishes, returning the fingerprint.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot [`Fnv1a`] over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

/// XXH64's per-word step: one lane absorbs one word.
fn xxh_round(lane: u64, word: u64) -> u64 {
    let lane = lane.wrapping_add(word.wrapping_mul(XXH_P2));
    lane.rotate_left(31).wrapping_mul(XXH_P1)
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("eight bytes"))
}

/// One 32-byte stripe into the four lanes, a word each.
fn xxh_stripe(lanes: &mut [u64; 4], stripe: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
        *lane = xxh_round(*lane, le_u64(word));
    }
}

/// Streaming XXH64 (seed 0, the published algorithm) — the content
/// address of an evaluation-key set's strict encoding, fed by a
/// [`WireWriter::hashing`] writer as it encodes. Start one with
/// [`Xxh64::default`].
///
/// Four independent 64-bit lanes each take one word of every 32-byte
/// stripe, so the multiplies of a stripe overlap instead of waiting on one
/// another as FNV-1a's do. Feed bytes in any chunking with
/// [`Xxh64::update`]; the digest is chunking-independent. Like FNV-1a it
/// catches accidental change and is no defence against chosen inputs.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    lanes: [u64; 4],
    /// The bytes of a stripe not yet complete.
    pending: [u8; 32],
    pending_len: usize,
    total: u64,
}

impl Default for Xxh64 {
    fn default() -> Self {
        Self {
            lanes: [
                XXH_P1.wrapping_add(XXH_P2),
                XXH_P2,
                0,
                XXH_P1.wrapping_neg(),
            ],
            pending: [0; 32],
            pending_len: 0,
            total: 0,
        }
    }
}

impl Xxh64 {
    /// Absorbs `bytes`.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.pending_len > 0 {
            let take = bytes.len().min(32 - self.pending_len);
            self.pending[self.pending_len..][..take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 32 {
                return;
            }
            xxh_stripe(&mut self.lanes, &self.pending);
            self.pending_len = 0;
        }
        // The lanes stay in registers across the bulk of the input.
        let mut lanes = self.lanes;
        let mut stripes = bytes.chunks_exact(32);
        stripes.by_ref().for_each(|s| xxh_stripe(&mut lanes, s));
        self.lanes = lanes;
        let rest = stripes.remainder();
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// Finishes, returning the digest.
    pub fn finish(self) -> u64 {
        let mix = |h: u64, rot: u32, mul: u64, add: u64| {
            h.rotate_left(rot).wrapping_mul(mul).wrapping_add(add)
        };
        let mut h = if self.total >= 32 {
            let rotations = [1, 7, 12, 18].into_iter().zip(self.lanes);
            let h = rotations.fold(0u64, |h, (r, v)| h.wrapping_add(v.rotate_left(r)));
            let merge = |h: u64, v: u64| (h ^ xxh_round(0, v)).wrapping_mul(XXH_P1);
            self.lanes
                .into_iter()
                .fold(h, |h, v| merge(h, v).wrapping_add(XXH_P4))
        } else {
            XXH_P5
        };
        h = h.wrapping_add(self.total);
        let mut words = self.pending[..self.pending_len].chunks_exact(8);
        for w in &mut words {
            h = mix(h ^ xxh_round(0, le_u64(w)), 27, XXH_P1, XXH_P4);
        }
        let mut halves = words.remainder().chunks_exact(4);
        for w in &mut halves {
            let half = u32::from_le_bytes(w.try_into().expect("four bytes"));
            h = mix(h ^ u64::from(half).wrapping_mul(XXH_P1), 23, XXH_P2, XXH_P3);
        }
        for &b in halves.remainder() {
            h = mix(h ^ u64::from(b).wrapping_mul(XXH_P5), 11, XXH_P1, 0);
        }
        let h = (h ^ (h >> 33)).wrapping_mul(XXH_P2);
        let h = (h ^ (h >> 29)).wrapping_mul(XXH_P3);
        h ^ (h >> 32)
    }
}

/// One-shot [`Xxh64`] over a byte slice.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut h = Xxh64::default();
    h.update(bytes);
    h.finish()
}

/// The CRC-32 lookup tables (IEEE 802.3 reflected polynomial
/// `0xEDB88320`), built once per process. `t[0]` is the classic bytewise
/// table; `t[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight lookups advance the register over eight message bytes at once
/// (slicing-by-8).
fn crc32_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        for k in 1..8 {
            let (bytewise, prev) = (t[0], t[k - 1]);
            for (slot, p) in t[k].iter_mut().zip(prev) {
                *slot = bytewise[(p & 0xFF) as usize] ^ (p >> 8);
            }
        }
        t
    })
}

/// Streaming CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) —
/// the frame-integrity checksum of the runtime's HRT1 protocol.
///
/// Table-driven (eight bytes a step, bytewise tail), no dependencies.
/// Feed bytes in any chunking with [`Crc32::update`]; the digest is
/// chunking-independent. This catches wire-level bit flips (every 1- and
/// 2-bit error, and any burst up to 32 bits); end-to-end content
/// integrity is layered on top with [`fnv1a`] digests computed over the
/// decoded payload.
#[derive(Debug, Clone)]
pub struct Crc32(u32);

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self(0xFFFF_FFFF)
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = crc32_tables();
        let mut crc = self.0;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][w[4] as usize]
                ^ t[2][w[5] as usize]
                ^ t[1][w[6] as usize]
                ^ t[0][w[7] as usize];
        }
        for &b in words.remainder() {
            crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.0 = crc;
    }

    /// Finishes, returning the checksum.
    pub fn finalize(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot [`Crc32`] over a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finalize()
}

/// Derives a labeled sub-seed from a master seed (FNV-1a over the
/// little-endian master followed by the label bytes).
///
/// Seed-expandable key encodings use this so the encoder (which reseeds
/// the uniform halves) and the decoder (which regenerates them) agree on
/// one PRG stream per key object without shipping more than the master.
pub fn derive_seed(master: u64, label: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(&master.to_le_bytes());
    h.update(label);
    h.finish()
}

/// Bytes a [`WireWriter::hashing`] writer stages before feeding its
/// hasher: small enough to stay in L1 between the pack and the hash.
const HASH_STAGE_BYTES: usize = 16 << 10;

/// Values [`WireWriter::put_packed_iter`] packs between drains: at most a
/// stage's worth of bytes, and a multiple of 8 so a piece ends on a byte.
const PACK_PIECE: usize = HASH_STAGE_BYTES / 8;

/// Where a [`WireWriter`]'s bytes go.
#[derive(Debug, Default)]
enum Sink {
    /// Kept in the writer's buffer.
    #[default]
    Bytes,
    /// Staged in the buffer and fed to a streaming hasher.
    Hash(Xxh64),
    /// Counted only: nothing is stored, packed or hashed.
    Measure,
}

/// A growable wire writer with little-endian primitives.
///
/// The bytes go to one of three places: a `Vec<u8>` ([`Self::new`],
/// [`Self::into_bytes`]), a streaming [`Xxh64`] ([`Self::hashing`],
/// [`Self::into_xxh64`]), or nowhere ([`Self::measure`]) — so an encoder
/// written once against `&mut WireWriter` is also that encoding's hasher
/// and the only statement of its size. [`Self::encode`] measures, then
/// writes into one exact allocation.
#[derive(Debug, Default)]
pub struct WireWriter {
    /// The encoding so far — or, when hashing, only the bytes written
    /// since the last drain; always empty when measuring.
    buf: Vec<u8>,
    sink: Sink,
    /// Bytes already drained into the hasher, or counted when measuring.
    drained: usize,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `bytes` — one allocation
    /// for an encoding whose size is known up front.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
            ..Self::default()
        }
    }

    /// Creates a writer that keeps no bytes: everything written is fed
    /// to a streaming [`Xxh64`], read with [`Self::into_xxh64`].
    pub fn hashing() -> Self {
        Self {
            buf: Vec::with_capacity(2 * HASH_STAGE_BYTES),
            sink: Sink::Hash(Xxh64::default()),
            drained: 0,
        }
    }

    /// Bytes `write` would write, counted without storing, packing or
    /// allocating anything: one step per `put_*` call.
    pub fn measure(write: impl FnOnce(&mut Self)) -> usize {
        let mut w = Self {
            sink: Sink::Measure,
            ..Self::default()
        };
        write(&mut w);
        w.drained
    }

    /// Runs `write` into a buffer of exactly the size it measures — the
    /// one allocation of an encoding.
    ///
    /// # Panics
    ///
    /// Panics if the writing pass disagrees with the measuring one.
    pub fn encode(write: impl Fn(&mut Self)) -> Vec<u8> {
        let len = Self::measure(&write);
        let mut w = Self::with_capacity(len);
        write(&mut w);
        assert_eq!(w.buf.len(), len, "encoder measured {len} bytes");
        w.buf
    }

    /// Appends `bytes` to whichever sink is active (no drain: the bulk
    /// writers drain, scalars ride along).
    fn put_le(&mut self, bytes: &[u8]) {
        match self.sink {
            Sink::Measure => self.drained += bytes.len(),
            _ => self.buf.extend_from_slice(bytes),
        }
    }

    /// When hashing, feeds the staged bytes to the hasher once a stage's
    /// worth has gathered (the bulk writers call this; scalars ride along).
    fn drain_stage(&mut self) {
        if let Sink::Hash(h) = &mut self.sink {
            if self.buf.len() >= HASH_STAGE_BYTES {
                h.update(&self.buf);
                self.drained += self.buf.len();
                self.buf.clear();
            }
        }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.put_le(&[v]);
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.put_le(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.put_le(&v.to_le_bytes());
    }

    /// Appends a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.put_le(&v.to_le_bytes());
    }

    /// Appends an `f64` (exact bit pattern).
    pub fn put_f64(&mut self, v: f64) {
        self.put_le(&v.to_bits().to_le_bytes());
    }

    /// Appends values packed at `bits` bits each (LSB first, the last
    /// byte zero-padded), in place in the writer's own buffer.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or above 64, or a value does not fit.
    pub fn put_packed(&mut self, values: &[u64], bits: u32) {
        self.put_packed_iter(values.iter().copied(), values.len(), bits);
    }

    /// [`Self::put_packed`] over `count` values drawn from an iterator —
    /// one packed run gathered from several slices, with no joined copy.
    ///
    /// # Panics
    ///
    /// As [`Self::put_packed`]; also if `values` does not yield exactly
    /// `count` items. A measuring writer counts the run without pulling
    /// `values`, so it checks neither.
    pub fn put_packed_iter(
        &mut self,
        mut values: impl Iterator<Item = u64>,
        count: usize,
        bits: u32,
    ) {
        assert!((1..=64).contains(&bits), "bits out of range");
        if let Sink::Measure = self.sink {
            self.drained += packed_size(count, bits);
            return;
        }
        // Pieces of whole bytes (a multiple of 8 values) leave the bit
        // stream as one run and let a hashing writer drain between them.
        let mut left = count;
        while left > 0 {
            let piece = left.min(PACK_PIECE);
            let start = self.buf.len();
            self.buf.resize(start + packed_size(piece, bits), 0);
            pack_words(&mut self.buf[start..], values.by_ref().take(piece), bits);
            self.drain_stage();
            left -= piece;
        }
        assert!(values.next().is_none(), "packed run longer than announced");
    }

    /// Appends a `u32`-length-prefixed section that `body` writes
    /// straight into this writer, the prefix measured from `body` itself
    /// — the nesting primitive (read back with [`WireReader::get_bytes`]).
    /// A measuring writer counts the prefix and runs `body` once, so a
    /// nested section is measured once per pass, not once per level.
    ///
    /// # Panics
    ///
    /// Panics, naming `what`, if the body does not fit the prefix (a
    /// wrapped length would decode as garbage) or writes a different
    /// number of bytes than it measured.
    pub fn put_section(&mut self, what: &str, body: impl Fn(&mut Self)) {
        if let Sink::Measure = self.sink {
            self.drained += 4;
            return body(self);
        }
        let len = Self::measure(&body);
        let Ok(prefix) = u32::try_from(len) else {
            panic!("{what}: a {len}-byte section exceeds the u32 length prefix");
        };
        self.put_u32(prefix);
        let start = self.len();
        body(self);
        assert_eq!(self.len() - start, len, "{what}: section size mismatch");
    }

    /// Appends a `u32` length prefix followed by the raw bytes (the frame
    /// payload primitive used by the runtime's TCP protocol).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is too long for the prefix.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_section("byte string", |w| w.put_raw(bytes));
    }

    /// Appends raw bytes with no length prefix — for a body that runs to
    /// the end of the buffer ([`WireReader::rest`]) or whose length the
    /// caller framed itself ([`WireReader::get_raw`]).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.put_le(bytes);
        self.drain_stage();
    }

    /// Finishes, returning the buffer.
    ///
    /// # Panics
    ///
    /// Panics on a hashing or measuring writer, which kept no bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        assert!(
            matches!(self.sink, Sink::Bytes),
            "only a Vec writer keeps its bytes"
        );
        self.buf
    }

    /// Finishes, returning the XXH64 digest of everything written (equal
    /// to [`xxh64`] over [`Self::into_bytes`], whichever way the writer
    /// was created).
    ///
    /// # Panics
    ///
    /// Panics on a measuring writer, which saw no bytes.
    pub fn into_xxh64(self) -> u64 {
        match self.sink {
            Sink::Bytes => xxh64(&self.buf),
            Sink::Hash(mut h) => {
                h.update(&self.buf);
                h.finish()
            }
            Sink::Measure => panic!("a measuring writer has no bytes to fingerprint"),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.drained + self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A cursor over a wire buffer.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Borrows the next `n` raw bytes (the counterpart of
    /// [`WireWriter::put_raw`]).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if fewer than `n` bytes remain.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.get_raw(1)?[0])
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.get_raw(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.get_raw(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.get_raw(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads an `f64`.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads `count` packed values of `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or above 64.
    pub fn get_packed(&mut self, bits: u32, count: usize) -> Result<Vec<u64>, WireError> {
        assert!((1..=64).contains(&bits), "bits out of range");
        let bytes = self.get_raw(packed_size(count, bits))?;
        Ok(unpack_words(bytes, bits, count).0)
    }

    /// Reads `count` residues modulo `modulus`, packed at
    /// [`residue_bits`], checking the range in the same pass.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if the run is cut short and
    /// [`WireError::Corrupt`]`(what)` if a value is not below `modulus`.
    pub fn get_residues(
        &mut self,
        count: usize,
        modulus: u64,
        what: &'static str,
    ) -> Result<Vec<u64>, WireError> {
        let bits = residue_bits(modulus);
        let bytes = self.get_raw(packed_size(count, bits))?;
        let (values, max) = unpack_words(bytes, bits, count);
        if max >= modulus {
            return Err(WireError::Corrupt(what));
        }
        Ok(values)
    }

    /// Reads a `u32`-length-prefixed byte string written by
    /// [`WireWriter::put_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if the announced length exceeds the
    /// remaining buffer.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u32()? as usize;
        self.get_raw(len)
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Ends a strict parse: the layout read so far must be the whole
    /// buffer.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Corrupt`]`("trailing bytes")` if any byte is
    /// left unread.
    pub fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Corrupt("trailing bytes"))
        }
    }

    /// Consumes the reader, borrowing everything not yet read — a bulk
    /// body that runs to the end of the buffer, handed on without a copy.
    pub fn rest(self) -> &'a [u8] {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip_odd_widths() {
        for bits in [1u32, 7, 13, 30, 36, 53, 64] {
            let mask = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            let values: Vec<u64> = (0..257u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
                .collect();
            let packed = pack_bits(&values, bits);
            assert_eq!(packed.len(), packed_size(values.len(), bits));
            let back = unpack_bits(&packed, bits, values.len()).unwrap();
            assert_eq!(back, values, "bits = {bits}");
        }
    }

    #[test]
    fn packing_is_tight() {
        // 8192 coefficients of 36 bits = 36864 bytes exactly (one RNS limb
        // of the paper's parameter set, ~0.037 MB).
        assert_eq!(packed_size(8192, 36), 36_864);
    }

    #[test]
    fn truncated_buffers_error() {
        let packed = pack_bits(&[1, 2, 3], 36);
        assert_eq!(
            unpack_bits(&packed[..packed.len() - 1], 36, 3),
            Err(WireError::Truncated)
        );
        let mut r = WireReader::new(&[0u8; 3]);
        assert_eq!(r.get_u32(), Err(WireError::Truncated));
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u32(42);
        w.put_u64(u64::MAX - 5);
        w.put_f64(1.5e300);
        w.put_packed(&[7, 8, 9], 30);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u32().unwrap(), 42);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 5);
        assert_eq!(r.get_f64().unwrap(), 1.5e300);
        assert_eq!(r.get_packed(30, 3).unwrap(), vec![7, 8, 9]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds bit width")]
    fn oversized_value_rejected() {
        pack_bits(&[1 << 20], 20);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE 802.3 check value and a couple of anchors any
        // independent implementation agrees on.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_is_chunking_independent() {
        let data: Vec<u8> = (0..301u16).map(|i| (i % 251) as u8).collect();
        let oneshot = crc32(&data);
        for split in [0usize, 1, 7, 150, 300, 301] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn crc32_detects_every_single_bit_flip() {
        let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37)).collect();
        let reference = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn byte_string_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_bytes(b"hello");
        w.put_bytes(b"");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_bytes().unwrap(), b"");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "brk: a 4294967296-byte section exceeds the u32 length prefix")]
    fn oversized_section_length_is_refused_not_wrapped() {
        // The measured length alone trips the check: measuring pulls no
        // values and nothing is allocated.
        let body = |w: &mut WireWriter| w.put_packed_iter(std::iter::empty(), 1 << 32, 8);
        assert_eq!(WireWriter::measure(body), 1 << 32);
        WireWriter::new().put_section("brk", body);
    }

    /// A body whose passes disagree (here: one byte more each call).
    fn growing() -> impl Fn(&mut WireWriter) {
        let calls = std::cell::Cell::new(0);
        move |w| {
            calls.set(calls.get() + 1);
            (0..calls.get()).for_each(|_| w.put_u8(0));
        }
    }

    #[test]
    #[should_panic(expected = "gks: section size mismatch")]
    fn section_body_must_match_its_measured_size() {
        WireWriter::new().put_section("gks", growing());
    }

    #[test]
    #[should_panic(expected = "encoder measured 1 bytes")]
    fn encode_asserts_the_write_matches_the_measure() {
        WireWriter::encode(growing());
    }

    #[test]
    fn measuring_counts_every_primitive_and_nested_sections_once() {
        let calls = std::cell::Cell::new(0);
        let encode = |w: &mut WireWriter| {
            w.put_u8(1);
            w.put_u16(2);
            w.put_u32(3);
            w.put_u64(4);
            w.put_f64(5.0);
            w.put_section("outer", |w| {
                w.put_bytes(b"abc");
                w.put_section("inner", |w| {
                    calls.set(calls.get() + 1);
                    w.put_packed(&[1, 2, 3], 30);
                });
            });
            w.put_raw(&[9; 10]);
        };
        let len = WireWriter::measure(encode);
        assert_eq!(calls.get(), 1, "one measuring pass runs each body once");
        assert_eq!(len, 1 + 2 + 4 + 8 + 8 + 4 + (4 + 3) + 4 + 12 + 10);
        let bytes = WireWriter::encode(encode);
        assert_eq!(bytes.len(), len);
        assert_eq!(bytes.capacity(), len, "one exact allocation");
        let mut r = WireReader::new(&bytes[23..]);
        let mut outer = WireReader::new(r.get_bytes().unwrap());
        assert_eq!(outer.get_bytes().unwrap(), b"abc");
        let mut inner = WireReader::new(outer.get_bytes().unwrap());
        assert_eq!(inner.get_packed(30, 3).unwrap(), vec![1, 2, 3]);
        assert_eq!(r.rest(), &[9; 10]);
    }

    #[test]
    fn xxh64_matches_the_published_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: one stripe, then the word, half-word and byte tails.
        let text = b"Nobody inspects the spammish repetition";
        assert_eq!(xxh64(text), 0xFBCE_A83C_8A37_8BF1);
        let mut h = Xxh64::default();
        h.update(b"Nobody inspects");
        h.update(b" the spammish repetition");
        assert_eq!(h.finish(), 0xFBCE_A83C_8A37_8BF1);
    }

    #[test]
    fn hashing_writer_fingerprints_what_a_vec_writer_would_hold() {
        // Long enough to drain several stages, with a run that straddles
        // pieces and scalars riding between the bulk writes.
        let values: Vec<u64> = (0..9001u64).map(|i| i * 0x9E37 % (1 << 30)).collect();
        let encode = |w: &mut WireWriter| {
            w.put_u32(7);
            w.put_section("run", |w| {
                w.put_packed(&values, 30);
                w.put_u64(u64::MAX);
            });
            w.put_packed_iter(values.iter().map(|v| v >> 1).chain([5]), 9002, 29);
            w.put_raw(&[0xAB; 40_000]);
            w.put_u8(1);
        };
        let (mut kept, mut hashed) = (WireWriter::new(), WireWriter::hashing());
        encode(&mut kept);
        encode(&mut hashed);
        assert_eq!(hashed.len(), kept.len());
        let bytes = kept.into_bytes();
        assert_eq!(hashed.into_xxh64(), xxh64(&bytes));
        let mut again = WireWriter::new();
        again.put_raw(&bytes);
        assert_eq!(again.into_xxh64(), xxh64(&bytes));
    }

    #[test]
    fn residues_are_range_checked_in_the_decoding_pass() {
        let q = 0x0FFF_FFFF_FFFF_FFC5u64; // 60 bits: the two-word case
        let mut w = WireWriter::new();
        w.put_packed(&[0, q - 1, 17], residue_bits(q));
        let ok = w.into_bytes();
        assert_eq!(
            WireReader::new(&ok).get_residues(3, q, "r").unwrap(),
            vec![0, q - 1, 17]
        );
        let mut w = WireWriter::new();
        w.put_packed(&[0, q, 17], residue_bits(q));
        assert_eq!(
            WireReader::new(&w.into_bytes()).get_residues(3, q, "limb out of range"),
            Err(WireError::Corrupt("limb out of range"))
        );
        assert_eq!(
            WireReader::new(&ok[..ok.len() - 1]).get_residues(3, q, "r"),
            Err(WireError::Truncated)
        );
        // Power-of-two moduli (the mod-switched LWE's 2N) pack at log2(m).
        assert_eq!(residue_bits(256), 8);
        assert_eq!(residue_bits(257), 9);
    }

    #[test]
    fn raw_and_rest_borrow_without_copying() {
        let mut w = WireWriter::new();
        w.put_u16(0xBEEF);
        w.put_raw(b"name");
        w.put_raw(b"bulk body");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_raw(4).unwrap(), b"name");
        assert_eq!(r.get_raw(64), Err(WireError::Truncated));
        let rest = r.rest();
        assert_eq!(rest, b"bulk body");
        assert!(std::ptr::eq(rest.as_ptr(), bytes[6..].as_ptr()));
        assert_eq!(WireReader::new(&[1]).get_u16(), Err(WireError::Truncated));
    }

    #[test]
    fn byte_string_truncation_detected() {
        let mut w = WireWriter::new();
        w.put_bytes(b"payload");
        let bytes = w.into_bytes();
        // Every strict prefix must error, never panic.
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            assert!(r.get_bytes().is_err(), "prefix {cut}");
        }
        // A length field pointing past the end is also truncation.
        let mut r = WireReader::new(&[0xFF, 0xFF, 0xFF, 0x7F, 1, 2]);
        assert_eq!(r.get_bytes(), Err(WireError::Truncated));
    }
}
