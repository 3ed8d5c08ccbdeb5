//! Adversarial-input hardening of the `EKS1` evaluation-key container —
//! same contract as the other `*_from_wire` suites: truncated prefixes and
//! padded copies must decode to `Err`, corrupted or noise buffers must
//! never panic.

//!
//! The binary's allocator counts what each test thread requests (the
//! `alloc_free` pattern), because for a seeded container "never panics"
//! is not enough: a few dozen header bytes *announce* how much PRG output
//! to expand, and the decoder must refuse before it believes them.

use std::sync::OnceLock;
use std::time::Instant;

use heap_ckks::{CkksContext, CkksParams, SecretKey};
use heap_core::{generate_keys, generate_keys_reseeded, BootstrapConfig};
use heap_keys::EvalKeySet;
use heap_math::wire::{WireError, WireWriter};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "../../../tests/support/tracking_alloc.rs"]
mod tracking_alloc;
use tracking_alloc::tracked;

const MIB: usize = 1 << 20;

struct Fixtures {
    ctx: CkksContext,
    strict: Vec<u8>,
    seeded: Vec<u8>,
}

fn fixtures() -> &'static Fixtures {
    static FIX: OnceLock<Fixtures> = OnceLock::new();
    FIX.get_or_init(|| {
        let ctx = CkksContext::new(CkksParams::test_tiny());
        let config = BootstrapConfig::test_small();
        let mut rng = StdRng::seed_from_u64(2024);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let strict_keys = generate_keys(&ctx, &sk, config, &mut rng);
        let strict = EvalKeySet::new(&ctx, config, strict_keys, None).to_strict_wire(&ctx);
        let mut rng = StdRng::seed_from_u64(2025);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let seeded_keys = generate_keys_reseeded(&ctx, &sk, config, 77, &mut rng);
        let seeded = EvalKeySet::new(&ctx, config, seeded_keys, Some(77)).to_seeded_wire(&ctx);
        Fixtures {
            ctx,
            strict,
            seeded,
        }
    })
}

fn valid(kind: usize) -> &'static [u8] {
    let f = fixtures();
    if kind == 0 {
        &f.strict
    } else {
        &f.seeded
    }
}

/// The announced shape of a crafted container's key-switch section.
#[derive(Debug, Clone, Copy)]
struct Announced {
    n_t: u32,
    source_dim: u32,
    target_dim: u32,
    base_bits: u32,
    digits: u32,
}

/// An `EKS1` container that stops after a *seeded* key-switch section
/// announcing `shape` and carrying `bodies` zero bodies: a few dozen bytes
/// that, believed, expand `source_dim · digits` masks of `target_dim`
/// words each.
fn crafted(ctx: &CkksContext, shape: Announced, bodies: usize) -> Vec<u8> {
    let q = ctx.q_modulus(0);
    let mut ksk = WireWriter::new();
    ksk.put_u32(0x4B53_4B31); // "KSK1"
    ksk.put_u8(1); // seeded
    ksk.put_u32(shape.source_dim);
    ksk.put_u32(shape.target_dim);
    ksk.put_u32(shape.base_bits);
    ksk.put_u32(shape.digits);
    ksk.put_u64(q.value());
    ksk.put_u64(0x5EED);
    ksk.put_packed(&vec![0; bodies], q.bits());
    let mut w = WireWriter::new();
    w.put_u32(0x454B_5331); // "EKS1"
    w.put_u8(2);
    w.put_u32(shape.n_t);
    w.put_u32(shape.base_bits);
    w.put_u32(shape.digits);
    w.put_u32(15);
    w.put_u32(2);
    w.put_u32(ksk.len() as u32);
    w.put_raw(&ksk.into_bytes());
    w.into_bytes()
}

/// Decodes `bytes`, which must be refused as corrupt having requested
/// under 1 MiB — and, over a few tries, within a millisecond.
fn assert_refused_cheaply(ctx: &CkksContext, bytes: &[u8], why: &str) {
    let mut fastest = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        let (result, asked) = tracked(|| EvalKeySet::from_wire(ctx, bytes).map(|_| ()));
        fastest = fastest.min(t0.elapsed().as_secs_f64());
        assert!(
            matches!(result, Err(WireError::Corrupt(_))),
            "{why}: decoded to {result:?}"
        );
        assert!(
            asked.requested < MIB,
            "{why}: {} bytes requested before the refusal",
            asked.requested
        );
    }
    assert!(fastest < 1e-3, "{why}: refusal took {fastest} s");
}

/// The regression for the expansion bound. At the parent commit the first
/// container made a node allocate 128 MiB and the second 2 GiB (23 s of
/// CPU) before the `n_t` mismatch was noticed; ≈ 3.6 KB asked for 125 GiB.
#[test]
fn announced_dimensions_are_refused_before_any_expansion() {
    let f = fixtures();
    let (n, bits) = (f.ctx.n() as u32, f.ctx.q_modulus(0).bits());
    let huge = 1 << 24;
    let shape = Announced {
        n_t: huge,
        source_dim: 1,
        target_dim: huge,
        base_bits: bits,
        digits: 1,
    };
    let seventy = crafted(&f.ctx, shape, 1);
    assert_eq!(seventy.len(), 70);
    assert_refused_cheaply(&f.ctx, &seventy, "70-byte upload, 128 MiB announced");
    let wide = Announced {
        source_dim: 16,
        ..shape
    };
    let one_two_two = crafted(&f.ctx, wide, 16);
    assert_eq!(one_two_two.len(), 122);
    assert_refused_cheaply(&f.ctx, &one_two_two, "122-byte upload, 2 GiB announced");
    let honest = Announced {
        n_t: 32,
        source_dim: n,
        target_dim: 32,
        base_bits: 6,
        digits: 5,
    };
    for (shape, bodies, why) in [
        // `n_t` may not exceed the ring, even consistently announced.
        (
            Announced {
                n_t: n + 1,
                target_dim: n + 1,
                ..honest
            },
            5 * n,
            "n_t above the ring",
        ),
        // A modest header `n_t` does not cover for the section's own.
        (
            Announced {
                target_dim: huge,
                ..honest
            },
            5 * n,
            "target_dim past the header's n_t",
        ),
        // The source dimension is the ring's, not the sender's choice.
        (
            Announced {
                source_dim: 1000 * n,
                ..honest
            },
            5000 * n,
            "source_dim past the ring",
        ),
        // Sixty-four 1-bit digits where 28 cover `q`: 36 rows nothing reads.
        (
            Announced {
                base_bits: 1,
                digits: 64,
                ..honest
            },
            64 * n,
            "superfluous gadget digits",
        ),
    ] {
        let bytes = crafted(&f.ctx, shape, bodies as usize);
        assert_refused_cheaply(&f.ctx, &bytes, why);
    }
    // The honest shape passes the key-switch section (and is then cut off).
    let bytes = crafted(&f.ctx, honest, 5 * n as usize);
    assert_eq!(
        EvalKeySet::from_wire(&f.ctx, &bytes).err(),
        Some(WireError::Truncated)
    );
}

/// The id is hashed as a stream and the strict length computed: neither
/// `EvalKeySet::new` (so neither `from_wire`) nor `package()` allocates a
/// buffer the size of the strict encoding.
#[test]
fn id_and_package_never_materialise_the_strict_encoding() {
    let f = fixtures();
    let config = BootstrapConfig::test_small();
    let mut rng = StdRng::seed_from_u64(2026);
    let sk = SecretKey::generate(&f.ctx, &mut rng);
    let keys = generate_keys_reseeded(&f.ctx, &sk, config, 78, &mut rng);
    let (set, asked) = tracked(|| EvalKeySet::new(&f.ctx, config, keys, Some(78)));
    let strict_len = set.strict_len(&f.ctx);
    assert!(strict_len > 3 * MIB, "fixture shrank: {strict_len}");
    assert!(
        asked.requested < 64 << 10,
        "EvalKeySet::new requested {} bytes to hash {strict_len}",
        asked.requested
    );
    let (pkg, asked) = tracked(|| set.package(&f.ctx));
    assert_eq!(pkg.strict_len, strict_len);
    assert_eq!(
        asked.largest,
        pkg.bytes.len(),
        "the container, allocated once"
    );
    assert!(
        asked.requested < pkg.bytes.len() + (64 << 10),
        "package() requested {} bytes for a {}-byte container",
        asked.requested,
        pkg.bytes.len()
    );
    // Decoding holds the expanded keys (about the strict size, in many
    // limb-sized pieces) but no strict-sized buffer beside them.
    let (back, asked) = tracked(|| EvalKeySet::from_wire(&f.ctx, &pkg.bytes).unwrap());
    assert_eq!(back.id(), pkg.id);
    assert!(
        asked.largest < strict_len / 8,
        "from_wire made one {}-byte request",
        asked.largest
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever a seeded key-switch header announces, the decoder never
    /// allocates on its say-so: under 1 MiB is requested unless the shape
    /// is the one this ring expects.
    #[test]
    fn announced_shapes_never_drive_allocation(
        dims in (0u32..1 << 25, 0u32..1 << 25, 0u32..1 << 25),
        gadget in (0u32..40, 0u32..70),
        bodies in 0usize..64,
    ) {
        let f = fixtures();
        let shape = Announced {
            n_t: dims.0,
            source_dim: dims.1,
            target_dim: dims.2,
            base_bits: gadget.0,
            digits: gadget.1,
        };
        let bytes = crafted(&f.ctx, shape, bodies);
        let (result, asked) = tracked(|| EvalKeySet::from_wire(&f.ctx, &bytes).map(|_| ()));
        prop_assert!(result.is_err(), "{shape:?} decoded");
        prop_assert!(asked.requested < MIB, "{shape:?}: {} bytes requested", asked.requested);
    }

    #[test]
    fn random_prefixes_error_cleanly(kind in 0usize..2, cut in 0usize..1 << 24) {
        let f = fixtures();
        let bytes = valid(kind);
        let cut = cut % bytes.len();
        prop_assert!(
            EvalKeySet::from_wire(&f.ctx, &bytes[..cut]).is_err(),
            "kind {kind}: prefix of {cut}/{} bytes decoded",
            bytes.len()
        );
        prop_assert!(EvalKeySet::from_wire(&f.ctx, bytes).is_ok(), "kind {kind}: full buffer");
    }

    /// A padded container (a `KeyUpload` the node would otherwise charge
    /// its padding against the cache budget) is refused before the
    /// rotation and Galois sections are expanded.
    #[test]
    fn trailing_bytes_are_refused(kind in 0usize..2, extra in prop::collection::vec(any::<u8>(), 1..16)) {
        let f = fixtures();
        let mut padded = valid(kind).to_vec();
        padded.extend(&extra);
        let (result, asked) = tracked(|| EvalKeySet::from_wire(&f.ctx, &padded).map(|_| ()));
        prop_assert_eq!(result, Err(WireError::Corrupt("trailing bytes")));
        prop_assert!(asked.requested < MIB, "{} bytes requested", asked.requested);
    }

    #[test]
    fn corrupted_copies_never_panic(
        kind in 0usize..2,
        pos in 0usize..1 << 24,
        xor in 1u64..256,
    ) {
        let f = fixtures();
        let bytes = valid(kind);
        let mut bad = bytes.to_vec();
        let pos = pos % bad.len();
        bad[pos] ^= xor as u8;
        let _ = EvalKeySet::from_wire(&f.ctx, &bad);
    }

    #[test]
    fn pure_noise_never_panics(words in prop::collection::vec(any::<u64>(), 0..64)) {
        let f = fixtures();
        let noise: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let _ = EvalKeySet::from_wire(&f.ctx, &noise);
    }

    #[test]
    fn noise_with_valid_header_never_panics(
        kind in 0usize..2,
        keep in 5usize..40,
        words in prop::collection::vec(any::<u64>(), 2..48),
    ) {
        // Keep magic + version (+ some shape bytes) so decoding reaches
        // the inner length-prefixed sections.
        let bytes = valid(kind);
        let keep = keep.min(bytes.len());
        let mut buf = bytes[..keep].to_vec();
        buf.extend(words.iter().flat_map(|w| w.to_le_bytes()));
        let _ = EvalKeySet::from_wire(&fixtures().ctx, &buf);
    }
}
