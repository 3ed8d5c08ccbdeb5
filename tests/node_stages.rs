//! A node's stage histograms count every rotation it serves, whichever
//! key it ran under: a keyless node alternates between two tenants' keys,
//! once with a cache that holds both and once with one that evicts on
//! every batch, and a keyed node alternates between its default key and an
//! uploaded one. After each batch its `StatsResp` must report exactly the
//! batches served so far, never fewer than before, and the same count its
//! metrics endpoint would serve from `NodeTelemetry::registries`.

use std::net::TcpListener;
use std::sync::{Arc, OnceLock};

use heap::core::Bootstrapper;
use heap::runtime::{
    keyed_setup, serve, serve_keyless, KeyedSetup, NodeKeyStore, NodeTelemetry, ParamPreset,
    RemoteNode, ServeOptions, ServiceNode,
};
use heap::tfhe::LweCiphertext;
use heap_telemetry::Exposition;

const BATCHES: u64 = 6;
const ROTATE_COUNT: &str = "heap_stage_blind_rotate_ns_count";

/// Two tenants' wire-distributed keys on the same parameter set.
fn tenants() -> &'static [KeyedSetup; 2] {
    static KEYS: OnceLock<[KeyedSetup; 2]> = OnceLock::new();
    KEYS.get_or_init(|| [1, 2].map(|seed| keyed_setup(ParamPreset::Tiny, seed)))
}

/// Four mod-switched LWEs shaped for `setup`'s blind rotation.
fn lwes(setup: &KeyedSetup) -> Vec<LweCiphertext> {
    let two_n = 2 * setup.ctx.n() as u64;
    (0..4u64)
        .map(|i| LweCiphertext {
            a: (0..setup.boot.config().n_t as u64)
                .map(|j| (i * 31 + j * 7) % two_n)
                .collect(),
            b: (i * 13) % two_n,
            modulus: two_n,
        })
        .collect()
}

/// The one value of `name` in a node's flat `StatsResp`.
fn stat(stats: &[(String, u64)], name: &str) -> u64 {
    let found: Vec<u64> = stats
        .iter()
        .filter(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .collect();
    assert_eq!(found.len(), 1, "{name} reported {} times", found.len());
    found[0]
}

/// The rotate-stage count in the Prometheus text of the node's registries:
/// what `heap-node-serve --metrics-addr` serves.
fn scraped(telemetry: &NodeTelemetry, store: &NodeKeyStore, default: Option<&Bootstrapper>) -> u64 {
    let text = telemetry
        .registries(store, default)
        .iter()
        .fold(Exposition::new(), Exposition::with_registry)
        .render_prometheus();
    let values: Vec<u64> = text
        .lines()
        .filter_map(|line| line.strip_prefix(ROTATE_COUNT)?.strip_prefix(' '))
        .map(|v| v.parse().expect("a count"))
        .collect();
    assert_eq!(values.len(), 1, "one rotate-stage histogram:\n{text}");
    values[0]
}

/// Serves `BATCHES` batches alternating between the two keys on a node
/// with `budget` bytes of key cache, checking both views after each batch.
/// A keyless node is uploaded both tenants' keys; a node serving `default`
/// rotates the first tenant's batches under its default key instead.
/// Returns the evictions the node reported.
fn alternate(budget: Option<usize>, default: Option<&KeyedSetup>) -> u64 {
    let keys = tenants();
    let keys = [default.unwrap_or(&keys[0]), &keys[1]];
    let telemetry = NodeTelemetry::new();
    let store = NodeKeyStore::new(budget);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let opts = ServeOptions {
        telemetry: Some(telemetry.clone()),
        key_store: Some(store.clone()),
        ..ServeOptions::default()
    };
    let ctx = Arc::clone(&keys[0].ctx);
    let default_boot = default.map(|d| Arc::clone(&d.boot));
    let boot = default_boot.clone();
    std::thread::spawn(move || match boot {
        Some(boot) => serve(listener, ctx, boot, opts),
        None => serve_keyless(listener, ctx, opts),
    });
    let nodes: Vec<RemoteNode> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| {
            let node = RemoteNode::connect(&addr, &k.ctx).expect("connect");
            match (i, default) {
                (0, Some(_)) => node,
                _ => node.with_key(Arc::clone(&k.key)),
            }
        })
        .collect();
    let mut last = 0;
    for batch in 1..=BATCHES {
        let key = &keys[batch as usize % 2];
        let node = &nodes[batch as usize % 2];
        node.try_blind_rotate_batch(&key.ctx, &key.boot, &lwes(key))
            .expect("batch");
        let stats = nodes[0].fetch_stats().expect("StatsReq");
        let served = stat(&stats, &format!("core_{ROTATE_COUNT}"));
        assert_eq!(served, batch, "every batch counted, under either key");
        assert!(served >= last, "the count went down: {last} → {served}");
        assert_eq!(
            scraped(&telemetry, &store, default_boot.as_deref()),
            served,
            "/metrics vs StatsResp"
        );
        last = served;
    }
    let stats = nodes[0].fetch_stats().expect("StatsReq");
    for node in &nodes {
        node.shutdown();
    }
    stat(&stats, "keycache_heap_keycache_evictions_total")
}

#[test]
fn a_node_counts_rotations_under_every_key_it_holds() {
    assert_eq!(
        alternate(None, None),
        0,
        "an unbounded cache evicts nothing"
    );
}

#[test]
fn a_keyed_node_counts_rotations_under_its_default_and_uploaded_keys() {
    let default = keyed_setup(ParamPreset::Tiny, 3);
    assert_eq!(alternate(None, Some(&default)), 0);
}

#[test]
fn a_node_counts_rotations_under_keys_it_evicted() {
    let one_key = tenants()[0].key.bytes.len();
    assert_eq!(
        alternate(Some(one_key), None),
        BATCHES - 1,
        "every batch after the first evicts the other key"
    );
}
