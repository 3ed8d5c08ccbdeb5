//! Multi-client bootstrapping service runtime for the HEAP reproduction.
//!
//! HEAP's deployment model (paper §V) is a *service*: a primary FPGA
//! accepts bootstrapping requests, fans the data-independent blind
//! rotations out over secondary FPGAs, and repacks the results. This crate
//! is the software analogue of that service, layered as:
//!
//! 1. **Jobs** (`job`) — typed requests ([`JobRequest::Bootstrap`],
//!    [`JobRequest::BlindRotate`]) carrying a [`JobId`] and [`Priority`],
//!    submitted into a bounded queue with backpressure and completed
//!    through a [`JobHandle`].
//! 2. **Admission + fair queueing** (`batch`, `queue`) — an optional
//!    [`SloPolicy`] projects each submission's completion from an EWMA of
//!    measured rotation cost and refuses jobs that would blow the deadline
//!    with a typed [`RuntimeError::Rejected`] carrying a retry hint;
//!    within the bounded queue, per-tenant weighted deficit-round-robin
//!    ([`FairnessPolicy`], keyed by [`SubmitOptions::tenant`]) keeps a
//!    flooding tenant from starving light ones.
//! 3. **Streaming pipeline** (`batch`, `service`, `scheduler`) — one pure
//!    machine decides admission, batching (flushing on size, as soon as a
//!    rotate slot is free, or at a deadline while none is), the hand-offs
//!    between the stage groups (extract/mod-switch prep, blind rotation,
//!    repack/rescale finish; [`PipelineConfig`] sizes their worker pools
//!    and buffers), settlement and drain; `service` executes it, so batch
//!    k+1's prep overlaps batch k's rotations. The rotate stage shards
//!    each batch across [`ServiceNode`]s least-loaded-first, reassembling
//!    results in input order and reassigning a shard when a node fails;
//!    the pipeline is bit-identical to serial execution.
//! 4. **Remote backend** (`proto`, `remote`, `server`) — [`RemoteNode`]
//!    speaks the HRT1 frame protocol (`proto`: the one frame table, every
//!    payload layout, the handshake) over `std::net::TcpStream` to a
//!    `heap-node-serve` process ([`serve`]), using the `heap-tfhe` wire
//!    encodings, so a `TransferLedger` fed by it records bytes *measured
//!    on a real socket* rather than modeled.
//! 5. **Fault tolerance** (`policy`, `scheduler`, `fault`) — `policy`
//!    decides and `scheduler` executes: a pure batch machine makes every
//!    decision of a batch across its rounds, and the breaker table every
//!    decision about a node, while `scheduler` keeps the node slots, one
//!    thread per attempt, each batch's lock and the prober. Every node
//!    sits behind a circuit breaker (Closed → Open → HalfOpen); failed shards
//!    are retried with exponential backoff and deterministic jitter, a
//!    background prober pings Open nodes and readmits recovered ones,
//!    socket operations all carry deadlines (hung peers surface as typed
//!    [`NodeError::Timeout`]s, never wedged shards), and an optional
//!    local fallback node keeps batches completing when remote capacity
//!    degrades. Every reply is integrity-checked end to end (frame CRC,
//!    attestation digest, optional redundant-dispatch audit — see
//!    [`AttestedBatch`]), straggling shards can be speculatively hedged
//!    onto a second node ([`RetryPolicy::hedge_after`]), and a node caught
//!    lying is quarantined for good. A deterministic [`FaultPlan`] /
//!    [`ChaosNode`] harness drives the chaos test suite.
//! 6. **Sessions** (`session`) — a [`SessionServer`] fronts the
//!    service with connection multiplexing over the same frame protocol
//!    (one socket carries many tagged in-flight jobs; completions stream
//!    back out of order), and [`SessionClient`] mirrors it with
//!    [`SessionJob`] handles resolved by a reader thread.
//!
//! The primary/secondary split mirrors the paper exactly: extraction,
//!  modulus switching, and repacking stay on the primary (this process);
//! only the embarrassingly parallel blind rotations travel.
//!
//! ```no_run
//! use heap_runtime::{BootstrapService, ParamPreset, RuntimeConfig};
//!
//! let setup = heap_runtime::insecure_deterministic_setup(ParamPreset::Tiny, 42);
//! let service =
//!     BootstrapService::start(setup.ctx, setup.boot, RuntimeConfig::default()).unwrap();
//! // submit jobs from any number of client threads, then:
//! service.shutdown();
//! ```

mod batch;
mod channel;
mod conn;
mod fault;
mod job;
mod node;
mod policy;
mod preset;
mod proto;
mod queue;
mod remote;
mod scheduler;
mod server;
mod service;
mod session;
mod telemetry;

pub use batch::BatchPolicy;
pub use fault::{ChaosNode, FaultAction, FaultPlan, FaultState};
pub use job::{JobHandle, JobId, JobOutput, JobRequest, Priority, TenantId};
pub use node::{attest_digest, AttestedBatch, LocalServiceNode, NodeError, ServiceNode};
pub use policy::RetryPolicy;
pub use preset::{
    insecure_deterministic_setup, keyed_setup, DeterministicSetup, KeyedSetup, ParamPreset,
};
pub use queue::FairnessPolicy;
pub use remote::{NodeTimeouts, RemoteNode};
pub use scheduler::Scheduler;
pub use server::{serve, serve_keyless, NodeKeyStore, NodeTelemetry, ServeOptions};
pub use service::{BootstrapService, PipelineConfig, RuntimeConfig, SloPolicy, SubmitOptions};
pub use session::{SessionClient, SessionJob, SessionServer};
pub use telemetry::{RuntimeStats, SchedulerStats};

// The key-distribution vocabulary types, re-exported so runtime clients
// need not depend on `heap-keys` directly.
pub use heap_keys::{EvalKeySet, KeyId, KeyPackage};

/// Errors surfaced to clients of the runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The submission queue is at capacity (only from `try_submit`).
    QueueFull,
    /// The service is shutting down; the job was not (or will not be)
    /// executed.
    Shutdown,
    /// The request failed validation at submission time.
    Invalid(&'static str),
    /// A service or scheduler was configured with no compute nodes at
    /// all (no regular nodes and no fallback).
    NoNodes,
    /// Every node failed while executing the job's batch; the message
    /// carries the last node error observed.
    AllNodesFailed(String),
    /// SLO admission control refused the job: the deadline model says
    /// the current backlog would blow the configured SLO. The job was
    /// *not* queued; retry after the hinted delay.
    Rejected {
        /// How long the client should back off before resubmitting.
        retry_after: std::time::Duration,
    },
    /// A session-transport failure (broken socket, protocol violation,
    /// or a server-side error that has no structured mapping).
    Transport(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::QueueFull => write!(f, "submission queue full"),
            RuntimeError::Shutdown => write!(f, "service shut down"),
            RuntimeError::Invalid(why) => write!(f, "invalid request: {why}"),
            RuntimeError::NoNodes => write!(f, "no compute nodes configured"),
            RuntimeError::AllNodesFailed(last) => {
                write!(f, "all compute nodes failed (last error: {last})")
            }
            RuntimeError::Rejected { retry_after } => {
                write!(
                    f,
                    "admission refused (SLO would be blown); retry after {retry_after:?}"
                )
            }
            RuntimeError::Transport(why) => write!(f, "session transport: {why}"),
        }
    }
}

impl std::error::Error for RuntimeError {}
