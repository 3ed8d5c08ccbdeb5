//! What a node's cold key load costs, step by step, for the Tiny and Small
//! parameter sets.
//!
//! ```text
//! cargo run --release -p heap-keys --example key_load [-- REPEATS]
//! ```
//!
//! For each set it builds one seeded key set and prints the container and
//! strict sizes, then the best of `REPEATS` (default 10) wall-clock runs
//! of each step a node takes on a `KeyUpload`:
//!
//! - `from_wire` — the whole of [`EvalKeySet::from_wire`];
//! - `decode+expand` — the three section decoders alone (seeded masks
//!   regenerated);
//! - `repack+id` — [`EvalKeySet::new`] on the decoded keys: the strict
//!   re-encoding streamed through the id hash, which is the rest of
//!   `from_wire`;
//! - `repack` — the strict encoding materialised ([`EvalKeySet::to_strict_wire`]);
//! - `id` — the [`KeyId`](heap_keys::KeyId) hash ([`xxh64`]) over the
//!   materialised strict bytes, beside `fnv1a`, the same pass with FNV-1a;
//! - `into_bootstrapper` — [`EvalKeySet::into_bootstrapper`], the node's
//!   precomputation.
//!
//! Timings are single-threaded and ungated: the output is a reading, not a
//! check.

use std::hint::black_box;
use std::time::Instant;

use heap_ckks::{gks_from_wire, CkksContext, CkksParams, SecretKey};
use heap_core::{generate_keys_reseeded, BootstrapConfig, GeneratedKeys};
use heap_keys::EvalKeySet;
use heap_math::wire::{fnv1a, xxh64, WireError, WireReader};
use heap_math::ParamSet;
use heap_tfhe::{brk_from_wire, ksk_from_wire};
use rand::rngs::StdRng;
use rand::SeedableRng;

const MASTER: u64 = 0x4B45_594C;

/// Best wall-clock milliseconds of `reps` runs of `run` on a fresh
/// `make()` each: building the input and dropping the output are not timed.
fn best_ms<T, U>(reps: usize, mut make: impl FnMut() -> T, mut run: impl FnMut(T) -> U) -> f64 {
    (0..reps)
        .map(|_| {
            let input = black_box(make());
            let start = Instant::now();
            let output = black_box(run(input));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            drop(output);
            ms
        })
        .fold(f64::INFINITY, f64::min)
}

/// The container's three sections decoded and expanded, as `from_wire`
/// does before it re-encodes them for the id.
fn decode_and_expand(ctx: &CkksContext, buf: &[u8]) -> Result<GeneratedKeys, WireError> {
    let mut r = WireReader::new(buf);
    r.get_u32()?; // magic
    r.get_u8()?; // version
    let n_t = r.get_u32()? as usize;
    for _ in 0..4 {
        r.get_u32()?; // gadget shapes, checked by `from_wire`
    }
    let ksk = ksk_from_wire(r.get_bytes()?, ctx.q_modulus(0), ctx.n(), n_t)?;
    let brk = brk_from_wire(r.get_bytes()?, ctx.rns())?;
    let gks = gks_from_wire(r.get_bytes()?, ctx)?;
    Ok(GeneratedKeys { ksk, brk, gks })
}

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .map_or(10, |s| s.parse().expect("REPEATS must be a count"));
    println!("best of {reps} runs, ms");
    for set in [ParamSet::TINY, ParamSet::SMALL] {
        let ctx = CkksContext::new(CkksParams::new(set).expect("listed sets are valid"));
        let config = BootstrapConfig::from(set);
        let mut rng = StdRng::seed_from_u64(MASTER);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let keys = generate_keys_reseeded(&ctx, &sk, config, MASTER, &mut rng);
        let keyset = EvalKeySet::new(&ctx, config, keys.clone(), Some(MASTER));
        let container = keyset.to_seeded_wire(&ctx);
        let strict = keyset.to_strict_wire(&ctx);

        let decoded = EvalKeySet::from_wire(&ctx, &container).expect("own container");
        assert_eq!(decoded.id(), keyset.id(), "expansion parity");

        let from_wire = best_ms(reps, || &container, |c| EvalKeySet::from_wire(&ctx, c));
        let decode = best_ms(reps, || &container, |c| decode_and_expand(&ctx, c));
        let repack_id = best_ms(
            reps,
            || keys.clone(),
            |k| EvalKeySet::new(&ctx, config, k, None),
        );
        let repack = best_ms(reps, || &keyset, |k| k.to_strict_wire(&ctx));
        let id = best_ms(reps, || strict.as_slice(), xxh64);
        let fnv = best_ms(reps, || strict.as_slice(), fnv1a);
        let expand = best_ms(reps, || keyset.clone(), |k| k.into_bootstrapper(&ctx));
        println!(
            "{:<6} container {} B, strict {} B: from_wire {from_wire:.2} = \
             decode+expand {decode:.2} + repack+id {repack_id:.2}; \
             repack {repack:.2}, id {id:.3} (fnv1a {fnv:.2}), into_bootstrapper {expand:.3}",
            set.name,
            container.len(),
            strict.len(),
        );
    }
}
