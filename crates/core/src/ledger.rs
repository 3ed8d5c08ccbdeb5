//! Measured inter-node traffic (paper §V).
//!
//! The blind rotations of distinct LWE ciphertexts have no data
//! dependencies, so HEAP distributes them over eight FPGAs: a *primary*
//! node scatters LWE batches to *secondaries* and gathers the accumulators
//! back for repacking. `heap-runtime`'s `Scheduler` over `ServiceNode`s is
//! that execution model; this module holds only the ledger its socket
//! backend writes, kept in `heap-core` because `benchmark/` imports it here.

use std::sync::atomic::{AtomicU64, Ordering};

/// Ledger of inter-node transfers: the primary → secondary LWE scatter and
/// secondary → primary RLWE gather that ride HEAP's 100G CMAC links, plus
/// the control and key-distribution frames on the same sockets.
///
/// A measurement, never a model: the only writer is `heap-runtime`'s
/// `RemoteNode`, which records the bytes it actually wrote to and read from
/// its TCP sockets. In-process nodes move nothing and record nothing. The
/// `heap-hw` CMAC model is checked against these counts.
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
