//! Cross-check: bytes *measured* on a loopback TCP socket vs the
//! `heap-hw` network/key-traffic byte model.
//!
//! The `TransferLedger` attached to a `RemoteNode` records what the OS
//! actually transported. Subtracting the deterministic protocol framing
//! must leave exactly the payload the `heap-hw` `MemoryLayout` model
//! prices for the CMAC links: `n` LWE ciphertexts scattered at the
//! post-modulus-switch width, `n` RLWE accumulators gathered at the boot
//! basis width. Control traffic (the `Hello → HelloAck` handshake here)
//! is accounted separately and exactly, so *every* byte the socket
//! carried is attributed. Any drift between the wire format and the
//! model breaks this test.

use std::net::TcpListener;
use std::sync::Arc;

use heap_core::TransferLedger;
use heap_hw::{EvalKeyWireModel, MemoryLayout};
use heap_parallel::Parallelism;
use heap_runtime::{
    insecure_deterministic_setup, keyed_setup, serve, serve_keyless, BatchPolicy, BootstrapService,
    JobRequest, NodeKeyStore, NodeTimeouts, ParamPreset, Priority, RemoteNode, RuntimeConfig,
    ServeOptions, ServiceNode,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Frame header: u32 magic + u8 kind + u64 payload length + u32 CRC.
const FRAME_HEADER: u64 = 17;
/// Every BlindRotateResp payload leads with the node's u64 FNV-1a
/// attestation digest over the accumulator encoding.
const RESP_DIGEST: u64 = 8;
/// Batch header inside a request/response payload: u32 magic + u32 count.
const BATCH_HEADER: u64 = 8;
/// Per-LWE item header: u32 magic + u64 modulus + u32 dimension.
const LWE_ITEM_HEADER: u64 = 16;
/// Per-accumulator item header: u32 magic + u32 limbs + u32 n.
const ACC_ITEM_HEADER: u64 = 12;
/// Hello/HelloAck payload: u32 n + u32 boot limbs + u64 q0.
const HELLO_PAYLOAD: u64 = 16;
/// HelloAck additionally advertises the node's cached key ids:
/// u32 count + count × u64 id. A pre-keyed `serve` node caches exactly
/// its default key, so the ack carries one id.
const HELLO_ACK_IDS: u64 = 4 + 8;
/// Every BlindRotateReq payload leads with the u64 evaluation-key id
/// (0 = the server's default key).
const KEY_ID: u64 = 8;

#[test]
fn measured_loopback_bytes_match_hw_model_exactly() {
    let setup = insecure_deterministic_setup(ParamPreset::Tiny, 55);
    let ctx = &setup.ctx;
    let n = ctx.n() as u64;
    let n_t = setup.boot.config().n_t;
    let boot_limbs = ctx.boot_limbs() as u64;

    // In-process server over a real loopback socket.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    {
        let (ctx, boot) = (Arc::clone(&setup.ctx), Arc::clone(&setup.boot));
        std::thread::spawn(move || serve(listener, ctx, boot, ServeOptions::default()));
    }
    let ledger = Arc::new(TransferLedger::default());
    let node =
        RemoteNode::connect_with_ledger(&addr, ctx, NodeTimeouts::default(), Arc::clone(&ledger))
            .expect("connect");
    let svc = BootstrapService::start_with_nodes(
        Arc::clone(&setup.ctx),
        Arc::clone(&setup.boot),
        vec![Box::new(node) as Box<dyn ServiceNode>],
        RuntimeConfig {
            queue_capacity: 4,
            batch: BatchPolicy::immediate(),
            ..RuntimeConfig::default()
        },
    )
    .expect("start service");

    // One fully-packed bootstrap = n LWEs out, n accumulators back,
    // carried by exactly one request/response frame pair (single node).
    let mut rng = StdRng::seed_from_u64(3);
    let delta = ctx.fresh_scale();
    let coeffs: Vec<i64> = (0..ctx.n())
        .map(|i| (((i % 5) as f64 - 2.0) / 40.0 * delta).round() as i64)
        .collect();
    let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &setup.sk, &mut rng);
    svc.submit(JobRequest::Bootstrap { ct }, Priority::Normal)
        .expect("submit")
        .wait()
        .expect("bootstrap");
    svc.shutdown();

    assert_eq!(ledger.lwe_sent(), n);
    assert_eq!(ledger.rlwe_received(), n);

    // Scatter side: after modulus switch every LWE lives at 2N, so the
    // model width is log2(2N) bits.
    let two_n_bits = (2 * n).ilog2();
    let lwe_model = MemoryLayout {
        n: ctx.n(),
        limbs: ctx.boot_limbs(),
        coeff_bits: two_n_bits,
    };
    let measured_scatter_payload =
        ledger.lwe_bytes_sent() - FRAME_HEADER - KEY_ID - BATCH_HEADER - n * LWE_ITEM_HEADER;
    assert_eq!(measured_scatter_payload, n * lwe_model.lwe_bytes(n_t));

    // Gather side: each accumulator is `boot_limbs` limbs of `N`
    // coefficients at the limb width; the model's rlwe_bytes is exactly
    // the packed payload (the wire adds an 8-byte modulus per limb).
    let limb_bits = ctx.rns().modulus(0).value().ilog2() + 1;
    for j in 0..ctx.boot_limbs() {
        let m = ctx.rns().modulus(j).value();
        assert_eq!(64 - (m - 1).leading_zeros(), limb_bits, "limb {j} width");
    }
    let rlwe_model = MemoryLayout {
        n: ctx.n(),
        limbs: ctx.boot_limbs(),
        coeff_bits: limb_bits,
    };
    let measured_gather_payload = ledger.rlwe_bytes_received()
        - FRAME_HEADER
        - RESP_DIGEST
        - BATCH_HEADER
        - n * (ACC_ITEM_HEADER + 8 * boot_limbs);
    assert_eq!(measured_gather_payload, n * rlwe_model.rlwe_bytes());

    // Control traffic is exactly the session handshake: one Hello out,
    // one HelloAck back. Nothing else ran (the health prober only pings
    // tripped nodes, and nothing failed), so ledger totals account for
    // every byte the socket carried, both directions.
    assert_eq!(ledger.control_frames_sent(), 1);
    assert_eq!(ledger.control_frames_received(), 1);
    assert_eq!(ledger.control_bytes_sent(), FRAME_HEADER + HELLO_PAYLOAD);
    assert_eq!(
        ledger.control_bytes_received(),
        FRAME_HEADER + HELLO_PAYLOAD + HELLO_ACK_IDS
    );
    assert_eq!(
        ledger.total_bytes_sent(),
        ledger.lwe_bytes_sent() + ledger.control_bytes_sent()
    );
    assert_eq!(
        ledger.total_bytes_received(),
        ledger.rlwe_bytes_received() + ledger.control_bytes_received()
    );

    // Sanity on the headline asymmetry the paper leans on: gathers dwarf
    // scatters, which is why HEAP repacks on the primary.
    assert!(ledger.rlwe_bytes_received() > 50 * ledger.lwe_bytes_sent());
}

#[test]
fn modeled_wire_size_agrees_with_remote_measurement_per_ciphertext() {
    // The modeled per-ciphertext `wire_size` must equal what a remote
    // node's socket measurement attributes per ciphertext once framing is
    // removed — i.e. the model and the measurement price the same encoding.
    let setup = insecure_deterministic_setup(ParamPreset::Tiny, 56);
    let ctx = &setup.ctx;
    let n_t = setup.boot.config().n_t;
    let two_n = 2 * ctx.n() as u64;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    {
        let (sctx, boot) = (Arc::clone(&setup.ctx), Arc::clone(&setup.boot));
        std::thread::spawn(move || {
            serve(
                listener,
                sctx,
                boot,
                ServeOptions {
                    parallelism: Parallelism::serial(),
                    ..ServeOptions::default()
                },
            )
        });
    }
    let ledger = Arc::new(TransferLedger::default());
    let node = RemoteNode::connect(&addr, ctx)
        .expect("connect")
        .with_ledger(Arc::clone(&ledger));

    let lwes: Vec<heap_tfhe::LweCiphertext> = (0..4)
        .map(|i| heap_tfhe::LweCiphertext {
            a: (0..n_t).map(|j| ((i * 17 + j) as u64) % two_n).collect(),
            b: i as u64,
            modulus: two_n,
        })
        .collect();
    let accs = node
        .try_blind_rotate_batch(ctx, &setup.boot, &lwes)
        .expect("remote batch");

    // Measured scatter minus framing = Σ modeled wire_size per LWE.
    let modeled_scatter: u64 = lwes.iter().map(|l| l.wire_size() as u64).sum();
    assert_eq!(
        ledger.lwe_bytes_sent() - FRAME_HEADER - KEY_ID - BATCH_HEADER,
        modeled_scatter
    );
    let moduli: Vec<u64> = (0..ctx.boot_limbs())
        .map(|j| ctx.rns().modulus(j).value())
        .collect();
    let modeled_gather: u64 = accs.iter().map(|a| a.wire_size(&moduli) as u64).sum();
    assert_eq!(
        ledger.rlwe_bytes_received() - FRAME_HEADER - RESP_DIGEST - BATCH_HEADER,
        modeled_gather
    );
    node.shutdown();
}

#[test]
fn measured_key_distribution_matches_wire_model_exactly() {
    // A keyed client drives a keyless node: the socket-measured key
    // traffic (container, id frames, framing — every byte) must equal
    // the `heap-hw` `EvalKeyWireModel` exactly, the node's cache
    // counters must match the driven workload, and the seeded-upload-
    // plus-cache protocol must beat re-uploading strict keys every
    // batch by at least 2×.
    let setup = keyed_setup(ParamPreset::Tiny, 77);
    let ctx = &setup.ctx;
    let config = setup.boot.config();
    let model = EvalKeyWireModel {
        n: ctx.n(),
        n_t: config.n_t,
        ks_digits: config.ks_digits,
        rgsw_digits: config.rgsw.digits,
        boot_moduli: (0..ctx.boot_limbs())
            .map(|j| ctx.rns().modulus(j).value())
            .collect(),
        chain_moduli: (0..ctx.rns().max_limbs())
            .map(|j| ctx.rns().modulus(j).value())
            .collect(),
        galois_exponents: setup.boot.galois_keys().len(),
        auto_backend: false,
    };
    // The model prices the encoders exactly before any socket enters.
    assert_eq!(model.container_bytes(true), setup.key.bytes.len() as u64);
    assert_eq!(model.container_bytes(false), setup.key.strict_len as u64);

    let store = NodeKeyStore::new(None);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    {
        let sctx = Arc::clone(&setup.ctx);
        let opts = ServeOptions {
            parallelism: Parallelism::serial(),
            key_store: Some(store.clone()),
            ..ServeOptions::default()
        };
        std::thread::spawn(move || serve_keyless(listener, sctx, opts));
    }
    let ledger = Arc::new(TransferLedger::default());
    let node =
        RemoteNode::connect_with_ledger(&addr, ctx, NodeTimeouts::default(), Arc::clone(&ledger))
            .expect("connect")
            .with_key(Arc::clone(&setup.key));

    let n_t = config.n_t;
    let two_n = 2 * ctx.n() as u64;
    let lwes: Vec<heap_tfhe::LweCiphertext> = (0..4)
        .map(|i| heap_tfhe::LweCiphertext {
            a: (0..n_t).map(|j| ((i * 31 + j) as u64) % two_n).collect(),
            b: i as u64,
            modulus: two_n,
        })
        .collect();
    const BATCHES: u64 = 4;
    for _ in 0..BATCHES {
        node.try_blind_rotate_batch(ctx, &setup.boot, &lwes)
            .expect("keyed batch");
    }

    // Measured key traffic = one cold round (offer, upload / need, ack)
    // plus BATCHES−1 warm rounds (offer / ack) — byte-exact both ways.
    assert_eq!(
        ledger.key_bytes_sent(),
        model.cold_key_bytes_sent(true) + (BATCHES - 1) * model.warm_key_bytes_sent()
    );
    assert_eq!(
        ledger.key_bytes_received(),
        model.cold_key_bytes_received() + (BATCHES - 1) * model.warm_key_bytes_received()
    );
    assert_eq!(ledger.key_frames_sent(), 2 + (BATCHES - 1));
    assert_eq!(ledger.key_frames_received(), 2 + (BATCHES - 1));
    let measured = ledger.key_bytes_sent() + ledger.key_bytes_received();
    assert_eq!(measured, model.total_key_bytes(true, BATCHES));

    // Acceptance bar: ≥2× fewer key bytes than strict full upload per
    // batch, priced with the *measured* strict container length.
    let strict_round =
        2 * (FRAME_HEADER + KEY_ID) + setup.key.strict_len as u64 + 2 * (FRAME_HEADER + KEY_ID);
    assert!(
        2 * measured <= BATCHES * strict_round,
        "seeded+cached {measured} vs strict-per-batch {}",
        BATCHES * strict_round
    );
    assert!(model.distribution_reduction(BATCHES) >= 2.0);

    // The node's cache saw exactly this workload: one miss-and-insert,
    // then a hit per warm batch, nothing evicted.
    let snap = store.registry().snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(counter("heap_keycache_misses_total"), 1);
    assert_eq!(counter("heap_keycache_inserts_total"), 1);
    assert_eq!(counter("heap_keycache_hits_total"), BATCHES - 1);
    assert_eq!(counter("heap_keycache_evictions_total"), 0);

    // Every byte the socket carried is attributed to exactly one
    // category: data (lwe out / rlwe back), control (handshake), key.
    assert_eq!(
        ledger.total_bytes_sent(),
        ledger.lwe_bytes_sent() + ledger.control_bytes_sent() + ledger.key_bytes_sent()
    );
    assert_eq!(
        ledger.total_bytes_received(),
        ledger.rlwe_bytes_received()
            + ledger.control_bytes_received()
            + ledger.key_bytes_received()
    );
    node.shutdown();
}
