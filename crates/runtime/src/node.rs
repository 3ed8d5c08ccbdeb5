//! The fallible compute-node abstraction used by the scheduler.
//!
//! An in-process node cannot fail, but a remote node can lose its
//! connection mid-batch. The scheduler therefore dispatches through
//! [`ServiceNode`], whose batch call returns a [`Result`], and treats any
//! `Err` as "this node is gone: reassign its shard".
//! [`LocalServiceNode`] adapts the in-process executor;
//! [`crate::RemoteNode`] is the socket-backed implementation.

use std::time::Duration;

use heap_ckks::CkksContext;
use heap_core::Bootstrapper;
use heap_parallel::Parallelism;
use heap_tfhe::{LweCiphertext, RlweCiphertext};

/// Why a node failed to execute a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeError {
    /// Transport failure (connect, read, write, or peer hangup).
    Io(String),
    /// A socket deadline expired: the peer is hung or unreachable rather
    /// than erroring. `phase` names the operation (`connect`, `hello`,
    /// `read`, `write`, `ping`), `after` the deadline that fired.
    Timeout {
        /// The operation that timed out.
        phase: &'static str,
        /// The configured deadline that expired.
        after: Duration,
    },
    /// The peer sent bytes that do not decode as the expected frame.
    Protocol(String),
    /// The peer reported an error frame of its own.
    Remote(String),
    /// The reply decoded but does not match the request shape.
    Mismatch(&'static str),
    /// An integrity check caught corrupted data. `frame` names what was
    /// corrupted (a frame kind or `"accumulators"`), `phase` the layer
    /// that detected it: `"crc"` (wire checksum), `"attest"` (end-to-end
    /// FNV-1a digest), or `"audit"` (redundant-dispatch bit comparison).
    Corrupt {
        /// What was corrupted (frame kind name or payload description).
        frame: String,
        /// Detection layer: `crc`, `attest`, or `audit`.
        phase: &'static str,
    },
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::Io(e) => write!(f, "transport error: {e}"),
            NodeError::Timeout { phase, after } => {
                write!(f, "{phase} timed out after {:?}", after)
            }
            NodeError::Protocol(e) => write!(f, "protocol error: {e}"),
            NodeError::Remote(e) => write!(f, "remote node error: {e}"),
            NodeError::Mismatch(why) => write!(f, "reply mismatch: {why}"),
            NodeError::Corrupt { frame, phase } => {
                write!(
                    f,
                    "integrity failure: corrupt {frame} (detected at {phase} layer)"
                )
            }
        }
    }
}

impl std::error::Error for NodeError {}

/// A transport failure with no phase or deadline to attach.
impl From<std::io::Error> for NodeError {
    fn from(e: std::io::Error) -> Self {
        NodeError::Io(e.to_string())
    }
}

/// A shard result carrying the node-side attestation digest.
///
/// The digest is FNV-1a over the canonical wire encoding of the
/// accumulators ([`attest_digest`]), computed *where the accumulators
/// were produced*. The scheduler re-encodes what it received and
/// recomputes the digest, so corruption anywhere between the node's
/// compute and the client's memory — bad node RAM, a buggy backend, a
/// flip the frame CRC window does not cover — surfaces as a typed
/// [`NodeError::Corrupt`] instead of wrong bits.
#[derive(Debug, Clone)]
pub struct AttestedBatch {
    /// One accumulator per input LWE, in order.
    pub accs: Vec<RlweCiphertext>,
    /// FNV-1a digest over the accumulators' canonical wire encoding.
    pub digest: u64,
}

/// The canonical attestation digest of an accumulator batch: FNV-1a over
/// the bit-packed wire encoding at `ctx`'s boot-basis moduli. The wire
/// encoding is canonical (decode ∘ encode is the identity), so digesting
/// the re-encoded batch equals digesting the received payload.
pub fn attest_digest(ctx: &CkksContext, accs: &[RlweCiphertext]) -> u64 {
    heap_math::wire::fnv1a(&accumulators_to_wire(ctx, accs))
}

/// The wire encoding both listeners send and [`attest_digest`] digests.
pub(crate) fn accumulators_to_wire(ctx: &CkksContext, accs: &[RlweCiphertext]) -> Vec<u8> {
    heap_tfhe::rlwe_batch_to_wire(accs, &boot_moduli(ctx))
}

/// The basis accumulators live over: `ctx`'s bootstrapping limbs.
pub(crate) fn boot_moduli(ctx: &CkksContext) -> Vec<u64> {
    (0..ctx.boot_limbs())
        .map(|j| ctx.rns().modulus(j).value())
        .collect()
}

/// The `(modulus, dimension)` every LWE rotated under `boot` must have:
/// the mod-switched sample of `ctx`'s ring (modulus 2N) under its LWE key
/// (dimension `n_t`). Both wire doors decode `LBT1` against it.
pub(crate) fn lwe_shape(ctx: &CkksContext, boot: &Bootstrapper) -> (u64, usize) {
    (2 * ctx.n() as u64, boot.config().n_t)
}

/// Whether in-process `lwes` fit `boot`'s key ([`lwe_shape`]), so the
/// service door refuses a misfit before the rotation's shape asserts can
/// see it. The rule and its messages are the `LBT1` decoder's.
pub(crate) fn check_lwes_fit(
    ctx: &CkksContext,
    boot: &Bootstrapper,
    lwes: &[LweCiphertext],
) -> Result<(), &'static str> {
    let want = lwe_shape(ctx, boot);
    lwes.iter()
        .try_for_each(|lwe| LweCiphertext::check_shape(lwe.modulus, lwe.dim(), want))
}

/// A compute node the scheduler can dispatch to, with failure reporting.
pub trait ServiceNode: Send + Sync {
    /// Executes blind rotations for `lwes`, returning one accumulator per
    /// input in order, or an error if the node cannot complete the batch.
    fn try_blind_rotate_batch(
        &self,
        ctx: &CkksContext,
        boot: &Bootstrapper,
        lwes: &[LweCiphertext],
    ) -> Result<Vec<RlweCiphertext>, NodeError>;

    /// Like [`Self::try_blind_rotate_batch`], but the result carries the
    /// node-side attestation digest. The scheduler dispatches through
    /// this method and verifies the digest against what it received.
    ///
    /// The default computes the digest client-side after the plain batch
    /// call — correct for in-process nodes, where the accumulators never
    /// leave this address space. Transports ([`crate::RemoteNode`])
    /// override it to carry the digest the *peer* computed.
    fn try_blind_rotate_attested(
        &self,
        ctx: &CkksContext,
        boot: &Bootstrapper,
        lwes: &[LweCiphertext],
    ) -> Result<AttestedBatch, NodeError> {
        let accs = self.try_blind_rotate_batch(ctx, boot, lwes)?;
        Ok(AttestedBatch {
            digest: attest_digest(ctx, &accs),
            accs,
        })
    }

    /// Cheap liveness check used by the scheduler's health prober to
    /// decide whether an open-circuit node can be readmitted. Remote
    /// nodes reconnect, re-run the Hello handshake, and ping; in-process
    /// nodes are always alive.
    fn probe(&self) -> Result<(), NodeError> {
        Ok(())
    }

    /// Whether this node already holds the evaluation key its next batch
    /// runs under (no upload needed). The scheduler prefers key-holding
    /// nodes when ranking dispatch targets. In-process nodes (and remote
    /// nodes riding the server's default key) trivially do; a wire-keyed
    /// [`crate::RemoteNode`] answers from its handshake/ack knowledge.
    fn holds_key(&self) -> bool {
        true
    }

    /// Human-readable node name (diagnostics and stats).
    fn name(&self) -> String {
        "node".to_string()
    }
}

/// An in-process node: executes on a bounded thread pool, never fails.
#[derive(Debug, Default)]
pub struct LocalServiceNode {
    /// Node index (naming only).
    pub index: usize,
    /// Thread budget for this node's batches.
    pub parallelism: Parallelism,
}

impl LocalServiceNode {
    /// A local node named `local-{index}` with the given thread budget.
    pub fn new(index: usize, parallelism: Parallelism) -> Self {
        Self { index, parallelism }
    }
}

impl ServiceNode for LocalServiceNode {
    fn try_blind_rotate_batch(
        &self,
        ctx: &CkksContext,
        boot: &Bootstrapper,
        lwes: &[LweCiphertext],
    ) -> Result<Vec<RlweCiphertext>, NodeError> {
        Ok(boot.blind_rotate_batch_par(ctx, lwes, self.parallelism))
    }

    fn name(&self) -> String {
        format!("local-{}", self.index)
    }
}
