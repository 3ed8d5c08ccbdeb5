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

/// Packs `values` (each `< 2^bits`) into a byte vector, `bits` bits each.
///
/// # Panics
///
/// Panics if `bits` is 0 or above 64, or a value does not fit.
pub fn pack_bits(values: &[u64], bits: u32) -> Vec<u8> {
    assert!((1..=64).contains(&bits), "bits out of range");
    let total_bits = values.len() * bits as usize;
    let mut out = vec![0u8; total_bits.div_ceil(8)];
    let mut bit_pos = 0usize;
    for &v in values {
        assert!(bits == 64 || v < (1u64 << bits), "value exceeds bit width");
        let mut remaining = bits;
        let mut val = v;
        while remaining > 0 {
            let byte = bit_pos / 8;
            let offset = (bit_pos % 8) as u32;
            let take = (8 - offset).min(remaining);
            out[byte] |= ((val & ((1u64 << take) - 1)) as u8) << offset;
            val >>= take;
            remaining -= take;
            bit_pos += take as usize;
        }
    }
    out
}

/// Unpacks `count` values of `bits` bits each from a byte slice.
///
/// # Errors
///
/// Returns [`WireError::Truncated`] if the buffer is too short.
pub fn unpack_bits(buf: &[u8], bits: u32, count: usize) -> Result<Vec<u64>, WireError> {
    assert!((1..=64).contains(&bits), "bits out of range");
    let needed = (count * bits as usize).div_ceil(8);
    if buf.len() < needed {
        return Err(WireError::Truncated);
    }
    let mut out = Vec::with_capacity(count);
    let mut bit_pos = 0usize;
    for _ in 0..count {
        let mut val = 0u64;
        let mut got = 0u32;
        while got < bits {
            let byte = bit_pos / 8;
            let offset = (bit_pos % 8) as u32;
            let take = (8 - offset).min(bits - got);
            let chunk = ((buf[byte] >> offset) as u64) & ((1u64 << take) - 1);
            val |= chunk << got;
            got += take;
            bit_pos += take as usize;
        }
        out.push(val);
    }
    Ok(out)
}

/// Bytes needed to pack `count` values at `bits` bits each.
pub fn packed_size(count: usize, bits: u32) -> usize {
    (count * bits as usize).div_ceil(8)
}

/// FNV-1a over a byte slice — the repository's canonical 64-bit content
/// fingerprint (the same constants the digest gates pin).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The CRC-32 lookup table (IEEE 802.3 reflected polynomial
/// `0xEDB88320`), built once per process.
fn crc32_table() -> &'static [u32; 256] {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
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
        table
    })
}

/// Streaming CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) —
/// the frame-integrity checksum of the runtime's HRT1 protocol.
///
/// Table-driven, no dependencies. Feed bytes in any chunking with
/// [`Crc32::update`]; the digest is chunking-independent. This catches
/// wire-level bit flips (every 1- and 2-bit error, and any burst up to
/// 32 bits); end-to-end content integrity is layered on top with
/// [`fnv1a`] digests computed over the decoded payload.
#[derive(Debug, Clone)]
pub struct Crc32(u32);

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self(0xFFFF_FFFF)
    }

    /// Absorbs `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let table = crc32_table();
        for &b in bytes {
            self.0 = table[((self.0 ^ u32::from(b)) & 0xFF) as usize] ^ (self.0 >> 8);
        }
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
    let mut buf = Vec::with_capacity(8 + label.len());
    buf.extend_from_slice(&master.to_le_bytes());
    buf.extend_from_slice(label);
    fnv1a(&buf)
}

/// A growable wire writer with little-endian primitives.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
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
        }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` (exact bit pattern).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends values packed at `bits` bits each.
    pub fn put_packed(&mut self, values: &[u64], bits: u32) {
        self.buf.extend_from_slice(&pack_bits(values, bits));
    }

    /// Appends a `u32` length prefix followed by the raw bytes (the frame
    /// payload primitive used by the runtime's TCP protocol).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends raw bytes with no length prefix — for a body that runs to
    /// the end of the buffer ([`WireReader::rest`]) or whose length the
    /// caller framed itself ([`WireReader::get_raw`]).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Finishes, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
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
    pub fn get_packed(&mut self, bits: u32, count: usize) -> Result<Vec<u64>, WireError> {
        let bytes = self.get_raw(packed_size(count, bits))?;
        unpack_bits(bytes, bits, count)
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
