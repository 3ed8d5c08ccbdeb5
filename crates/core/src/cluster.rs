//! Multi-node parallel bootstrapping (paper §V).
//!
//! The blind rotations of distinct LWE ciphertexts have no data
//! dependencies, so HEAP distributes them over eight FPGAs: a *primary*
//! node scatters LWE batches to *secondaries*, every node runs its batch,
//! and results stream back to the primary for repacking. This module
//! reproduces that execution model with OS threads standing in for FPGAs —
//! the scheduling (contiguous batches, primary also computes, results
//! gathered in order) matches the paper's description, and a transfer
//! ledger records the ciphertext traffic that `heap-hw` prices with the
//! CMAC model.
//!
//! The approach is hardware-agnostic ("the approach in HEAP … can be
//! mapped to any system with multiple compute nodes"); nodes that live in
//! other processes are `heap-runtime`'s `ServiceNode`s.

use std::sync::atomic::{AtomicU64, Ordering};

use heap_ckks::{Ciphertext, CkksContext};
use heap_parallel::Parallelism;
use heap_tfhe::{LweCiphertext, RlweCiphertext};

use crate::bootstrap::Bootstrapper;

/// A node that executes on the calling machine.
///
/// Each node owns a [`Parallelism`] budget: its batch runs on a bounded
/// pool of that many worker threads (HEAP's within-FPGA parallelism),
/// independent of the other nodes' pools.
#[derive(Debug, Default)]
pub struct LocalNode {
    /// Node index within the cluster.
    pub index: usize,
    /// Thread budget for this node's batch.
    pub parallelism: Parallelism,
}

impl LocalNode {
    /// Executes blind rotations for `lwes`, returning one accumulator per
    /// input, in order.
    pub fn blind_rotate_batch(
        &self,
        ctx: &CkksContext,
        boot: &Bootstrapper,
        lwes: &[LweCiphertext],
    ) -> Vec<RlweCiphertext> {
        boot.blind_rotate_batch_par(ctx, lwes, self.parallelism)
    }
}

/// Ledger of inter-node ciphertext transfers, mirroring the primary →
/// secondary LWE scatter and secondary → primary RLWE gather that ride
/// HEAP's 100G CMAC links.
///
/// Counts ciphertexts *and* bytes. [`LocalCluster`] records wire-encoded
/// sizes (what the transfers *would* cost); the `heap-runtime` remote
/// backend records the bytes actually written to and read from its TCP
/// sockets, so the ledger becomes a measurement the `heap-hw` CMAC model
/// can be checked against.
#[derive(Debug, Default)]
pub struct TransferLedger {
    lwe_sent: AtomicU64,
    rlwe_received: AtomicU64,
    lwe_bytes_sent: AtomicU64,
    rlwe_bytes_received: AtomicU64,
    // Control traffic (handshakes, pings, errors, stats): these frames
    // carry no ciphertexts but do ride the same links, so an exact
    // "measured socket bytes" figure must include them.
    control_frames_sent: AtomicU64,
    control_frames_received: AtomicU64,
    control_bytes_sent: AtomicU64,
    control_bytes_received: AtomicU64,
    // Key-distribution traffic (KeyOffer/KeyNeed/KeyUpload/KeyAck): kept
    // separate from both data and control so the §III-C key-traffic
    // reduction is directly measurable per category.
    key_frames_sent: AtomicU64,
    key_frames_received: AtomicU64,
    key_bytes_sent: AtomicU64,
    key_bytes_received: AtomicU64,
}

impl TransferLedger {
    /// LWE ciphertexts scattered from the primary.
    pub fn lwe_sent(&self) -> u64 {
        self.lwe_sent.load(Ordering::Relaxed)
    }

    /// RLWE ciphertexts gathered back to the primary.
    pub fn rlwe_received(&self) -> u64 {
        self.rlwe_received.load(Ordering::Relaxed)
    }

    /// Bytes of LWE payload scattered from the primary.
    pub fn lwe_bytes_sent(&self) -> u64 {
        self.lwe_bytes_sent.load(Ordering::Relaxed)
    }

    /// Bytes of accumulator payload gathered back to the primary.
    pub fn rlwe_bytes_received(&self) -> u64 {
        self.rlwe_bytes_received.load(Ordering::Relaxed)
    }

    /// Records a primary → secondary scatter of `count` LWE ciphertexts
    /// totalling `bytes` on the wire.
    pub fn record_scatter(&self, count: u64, bytes: u64) {
        self.lwe_sent.fetch_add(count, Ordering::Relaxed);
        self.lwe_bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a secondary → primary gather of `count` accumulator
    /// ciphertexts totalling `bytes` on the wire.
    pub fn record_gather(&self, count: u64, bytes: u64) {
        self.rlwe_received.fetch_add(count, Ordering::Relaxed);
        self.rlwe_bytes_received.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Control frames (Hello/Ping/Error/Stats/…) sent to secondaries.
    pub fn control_frames_sent(&self) -> u64 {
        self.control_frames_sent.load(Ordering::Relaxed)
    }

    /// Control frames received from secondaries.
    pub fn control_frames_received(&self) -> u64 {
        self.control_frames_received.load(Ordering::Relaxed)
    }

    /// Bytes of control frames sent to secondaries.
    pub fn control_bytes_sent(&self) -> u64 {
        self.control_bytes_sent.load(Ordering::Relaxed)
    }

    /// Bytes of control frames received from secondaries.
    pub fn control_bytes_received(&self) -> u64 {
        self.control_bytes_received.load(Ordering::Relaxed)
    }

    /// Key-distribution frames (KeyOffer/KeyUpload/…) sent to secondaries.
    pub fn key_frames_sent(&self) -> u64 {
        self.key_frames_sent.load(Ordering::Relaxed)
    }

    /// Key-distribution frames received from secondaries.
    pub fn key_frames_received(&self) -> u64 {
        self.key_frames_received.load(Ordering::Relaxed)
    }

    /// Bytes of key-distribution frames sent to secondaries.
    pub fn key_bytes_sent(&self) -> u64 {
        self.key_bytes_sent.load(Ordering::Relaxed)
    }

    /// Bytes of key-distribution frames received from secondaries.
    pub fn key_bytes_received(&self) -> u64 {
        self.key_bytes_received.load(Ordering::Relaxed)
    }

    /// All bytes sent (LWE payload + control + key distribution).
    pub fn total_bytes_sent(&self) -> u64 {
        self.lwe_bytes_sent() + self.control_bytes_sent() + self.key_bytes_sent()
    }

    /// All bytes received (accumulator payload + control + key
    /// distribution).
    pub fn total_bytes_received(&self) -> u64 {
        self.rlwe_bytes_received() + self.control_bytes_received() + self.key_bytes_received()
    }

    /// Records one outbound key-distribution frame of `bytes` total wire
    /// size.
    pub fn record_key_sent(&self, bytes: u64) {
        self.key_frames_sent.fetch_add(1, Ordering::Relaxed);
        self.key_bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one inbound key-distribution frame of `bytes` total wire
    /// size.
    pub fn record_key_received(&self, bytes: u64) {
        self.key_frames_received.fetch_add(1, Ordering::Relaxed);
        self.key_bytes_received.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one outbound control frame of `bytes` total wire size.
    pub fn record_control_sent(&self, bytes: u64) {
        self.control_frames_sent.fetch_add(1, Ordering::Relaxed);
        self.control_bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one inbound control frame of `bytes` total wire size.
    pub fn record_control_received(&self, bytes: u64) {
        self.control_frames_received.fetch_add(1, Ordering::Relaxed);
        self.control_bytes_received
            .fetch_add(bytes, Ordering::Relaxed);
    }
}

/// A set of nodes executing bootstrap blind rotations in parallel.
///
/// Node 0 acts as the primary: it receives the repacking work and also
/// processes its own batch, exactly like HEAP's primary FPGA.
#[derive(Debug)]
pub struct LocalCluster {
    nodes: Vec<LocalNode>,
    ledger: TransferLedger,
}

impl LocalCluster {
    /// Creates a cluster of `n` same-process nodes.
    ///
    /// The hardware thread budget is divided evenly: each node gets
    /// `max(1, available/n)` workers, so `nodes × threads-per-node` stays
    /// bounded by the machine (mirroring HEAP's fixed 8-FPGA fabric where
    /// each FPGA has its own fixed compute).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "cluster needs at least one node");
        let per_node = (heap_parallel::available_threads() / n).max(1);
        Self::with_node_parallelism(n, Parallelism::with_threads(per_node))
    }

    /// Creates a cluster of `n` nodes, each with an explicit per-node
    /// thread budget.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_node_parallelism(n: usize, per_node: Parallelism) -> Self {
        assert!(n >= 1, "cluster needs at least one node");
        Self {
            nodes: (0..n)
                .map(|index| LocalNode {
                    index,
                    parallelism: per_node,
                })
                .collect(),
            ledger: TransferLedger::default(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The transfer ledger accumulated so far.
    pub fn ledger(&self) -> &TransferLedger {
        &self.ledger
    }

    /// Runs a batch of blind rotations across the cluster, preserving input
    /// order (primary = node 0 handles the first chunk).
    pub fn blind_rotate_all(
        &self,
        ctx: &CkksContext,
        boot: &Bootstrapper,
        lwes: &[LweCiphertext],
    ) -> Vec<RlweCiphertext> {
        let n_nodes = self.nodes.len();
        if n_nodes == 1 || lwes.len() <= 1 {
            return self.nodes[0].blind_rotate_batch(ctx, boot, lwes);
        }
        let chunk = lwes.len().div_ceil(n_nodes);
        let chunks: Vec<&[LweCiphertext]> = lwes.chunks(chunk).collect();
        // Every chunk beyond the primary's own is a scatter + gather; the
        // ledger prices both at wire-encoded sizes.
        for c in chunks.iter().skip(1) {
            let bytes: usize = c.iter().map(LweCiphertext::wire_size).sum();
            self.ledger.record_scatter(c.len() as u64, bytes as u64);
        }
        let mut results: Vec<Vec<RlweCiphertext>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let node = &self.nodes[i.min(n_nodes - 1)];
                    scope.spawn(move || node.blind_rotate_batch(ctx, boot, c))
                })
                .collect();
            results = handles
                .into_iter()
                .map(|h| h.join().expect("node thread panicked"))
                .collect();
        });
        for gathered in results.iter().skip(1) {
            let bytes: usize = gathered
                .iter()
                .map(|acc| {
                    let moduli: Vec<u64> = (0..acc.limbs())
                        .map(|j| ctx.rns().modulus(j).value())
                        .collect();
                    acc.wire_size(&moduli)
                })
                .sum();
            self.ledger
                .record_gather(gathered.len() as u64, bytes as u64);
        }
        results.into_iter().flatten().collect()
    }
}

impl Bootstrapper {
    /// Fully-packed bootstrap with blind rotations spread over `cluster`
    /// (the paper's eight-FPGA configuration is `LocalCluster::new(8)`).
    pub fn bootstrap_with_cluster(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        cluster: &LocalCluster,
    ) -> Ciphertext {
        let indices: Vec<usize> = (0..ctx.n()).collect();
        self.bootstrap_indices_with_cluster(ctx, ct, &indices, cluster)
    }

    /// Sparse bootstrap across a cluster (see
    /// [`Bootstrapper::bootstrap_sparse`]).
    pub fn bootstrap_sparse_with_cluster(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        n_br: usize,
        cluster: &LocalCluster,
    ) -> Ciphertext {
        let n = ctx.n();
        assert!(
            n_br >= 1 && n_br <= n && n.is_multiple_of(n_br),
            "invalid n_br"
        );
        let stride = n / n_br;
        let indices: Vec<usize> = (0..n).step_by(stride).collect();
        self.bootstrap_indices_with_cluster(ctx, ct, &indices, cluster)
    }

    /// Cluster-parallel variant of
    /// [`Bootstrapper::bootstrap_indices`].
    pub fn bootstrap_indices_with_cluster(
        &self,
        ctx: &CkksContext,
        ct: &Ciphertext,
        indices: &[usize],
        cluster: &LocalCluster,
    ) -> Ciphertext {
        let lwes = self.extract_lwes(ctx, ct, indices);
        let switched = self.modulus_switch(ctx, &lwes);
        let rotated = cluster.blind_rotate_all(ctx, self, &switched);
        let leaves = self.to_leaves(ctx, &rotated, indices);
        self.finish(ctx, leaves, ct.scale())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::BootstrapConfig;
    use heap_ckks::{CkksParams, SecretKey};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cluster_matches_single_node_result_quality() {
        let ctx = CkksContext::new(CkksParams::test_tiny());
        let mut rng = StdRng::seed_from_u64(31);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let boot = Bootstrapper::generate(&ctx, &sk, BootstrapConfig::test_small(), &mut rng);
        let delta = ctx.fresh_scale();
        let n = ctx.n();
        let msg: Vec<f64> = (0..n).map(|i| ((i % 7) as f64 - 3.0) / 40.0).collect();
        let coeffs: Vec<i64> = msg.iter().map(|m| (m * delta).round() as i64).collect();
        let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);

        let cluster = LocalCluster::new(4);
        let fresh = boot.bootstrap_with_cluster(&ctx, &ct, &cluster);
        let dec = ctx.decrypt_coeffs(&fresh, &sk);
        for i in 0..n {
            let got = dec[i] / fresh.scale();
            assert!((got - msg[i]).abs() < 0.02, "coeff {i}");
        }
        // 4 nodes, chunked evenly: 3 chunks scattered.
        assert_eq!(cluster.ledger().lwe_sent(), (n - n.div_ceil(4)) as u64);
        assert_eq!(
            cluster.ledger().rlwe_received(),
            cluster.ledger().lwe_sent()
        );
        // Byte accounting: every scattered LWE has the same shape
        // (dim n_t, modulus 2N), every gathered accumulator the same basis.
        let per_lwe = LweCiphertext::trivial(0, boot.config().n_t, 2 * n as u64).wire_size() as u64;
        assert_eq!(
            cluster.ledger().lwe_bytes_sent(),
            cluster.ledger().lwe_sent() * per_lwe
        );
        assert!(cluster.ledger().rlwe_bytes_received() > cluster.ledger().lwe_bytes_sent());
        assert_eq!(
            cluster.ledger().rlwe_bytes_received() % cluster.ledger().rlwe_received(),
            0
        );
    }

    #[test]
    fn cluster_output_bit_identical_to_serial() {
        // Scatter/gather must preserve input order exactly: a 3-node
        // cluster (each node with its own pool) produces byte-for-byte the
        // same ciphertext as the strictly serial pipeline.
        let ctx = CkksContext::new(CkksParams::test_tiny());
        let mut rng = StdRng::seed_from_u64(77);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let config = BootstrapConfig::test_small().with_parallelism(crate::Parallelism::serial());
        let boot = Bootstrapper::generate(&ctx, &sk, config, &mut rng);
        let delta = ctx.fresh_scale();
        let coeffs: Vec<i64> = (0..ctx.n())
            .map(|i| (((i % 9) as f64 - 4.0) / 50.0 * delta).round() as i64)
            .collect();
        let ct = ctx.encrypt_coeffs_sk(&coeffs, delta, 1, &sk, &mut rng);
        let serial = boot.bootstrap(&ctx, &ct);
        let cluster = LocalCluster::with_node_parallelism(3, crate::Parallelism::with_threads(2));
        let clustered = boot.bootstrap_with_cluster(&ctx, &ct, &cluster);
        assert_eq!(clustered.c0(), serial.c0());
        assert_eq!(clustered.c1(), serial.c1());
    }

    #[test]
    fn single_node_cluster_has_no_transfers() {
        let cluster = LocalCluster::new(1);
        assert_eq!(cluster.node_count(), 1);
        assert_eq!(cluster.ledger().lwe_sent(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_cluster_rejected() {
        LocalCluster::new(0);
    }
}
