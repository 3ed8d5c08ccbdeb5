//! Session multiplexing over HRT1: one socket, many in-flight jobs.
//!
//! The per-shard [`crate::RemoteNode`] protocol is strictly one request
//! in flight per connection — fine between primary and secondaries, but
//! wasteful for *clients* of the service, which would otherwise need a
//! socket (and a parked thread) per outstanding job. A session fixes
//! that with three more HRT1 frame kinds — `SubmitReq`, `SubmitAck`,
//! `JobDone`, whose layouts live with the rest of the protocol in
//! `proto`.
//!
//! The client tags every submission; the server answers `SubmitAck`
//! *only on refusal* (SLO rejection with the retry hint, validation
//! failure, shutdown) and otherwise streams `JobDone` frames back **in
//! completion order**, not submission order — a multiplexed session
//! never head-of-line-blocks a fast job behind a slow one. The session
//! handshake is the same `Hello`/`HelloAck` ring-shape check the node
//! protocol uses, so mismatched parameter sets fail before any
//! ciphertext moves; a session listener's `HelloAck` carries no key-id
//! list, which is how either client notices it dialled the wrong kind of
//! listener.
//!
//! Server side, a connection costs two threads (a reader that decodes
//! and submits, a writer that drains a completion outbox fed by each
//! job's completion notifier) regardless of how many jobs are in
//! flight. Client side, [`SessionClient`] is `Sync`: any number of
//! application threads submit concurrently and block on their own
//! [`SessionJob`] handles while one reader thread routes completions by
//! tag. Accepted jobs are never dropped: on shutdown or a broken peer
//! the service still completes them, and an unreachable client simply
//! stops receiving the results.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use heap_ckks::CkksContext;
use heap_telemetry::{Counter, Gauge, Registry};
use heap_tfhe::{lwe_batch_from_wire, lwe_batch_to_wire, rlwe_batch_from_wire};

use crate::channel::Channel;
use crate::job::{JobOutput, JobRequest, JobState, TenantId};
use crate::node::accumulators_to_wire;
use crate::proto::{
    self, read_frame, write_frame, FrameKind, JobKind, JobOutcome, Shape, SubmitReq,
};
use crate::remote::NodeTimeouts;
use crate::service::{BootstrapService, SubmitOptions};
use crate::RuntimeError;

/// Completion tags a connection's writer can buffer before completing
/// pipeline threads block on the notifier (per-connection backpressure).
const OUTBOX_DEPTH: usize = 1024;

fn transport(why: impl std::fmt::Display) -> RuntimeError {
    RuntimeError::Transport(why.to_string())
}

/// Per-session-server telemetry (one registry shared by every session).
struct SessionTelemetry {
    registry: Arc<Registry>,
    open: Arc<Gauge>,
    jobs: Arc<Counter>,
    rejections: Arc<Counter>,
    completions: Arc<Counter>,
}

impl SessionTelemetry {
    fn new() -> Self {
        let registry = Arc::new(Registry::new("session"));
        Self {
            open: registry.gauge("heap_sessions_open", "live multiplexed sessions"),
            jobs: registry.counter(
                "heap_session_jobs_total",
                "jobs accepted over multiplexed sessions",
            ),
            rejections: registry.counter(
                "heap_session_rejections_total",
                "session submissions refused (SLO, invalid, shutdown)",
            ),
            completions: registry.counter(
                "heap_session_completions_total",
                "JobDone frames streamed back to session clients",
            ),
            registry,
        }
    }
}

/// State shared between a connection's reader and writer threads.
struct ConnShared {
    /// Completion tags, fed by each job's completion notifier.
    outbox: Channel<u64>,
    /// Accepted-and-undelivered jobs by tag.
    pending: Mutex<HashMap<u64, Arc<JobState>>>,
    /// Set when the reader stops accepting (EOF, `Shutdown`, error);
    /// the writer closes the outbox once the last pending job delivers.
    draining: AtomicBool,
    /// All frame writes (reader's refusals, writer's completions) are
    /// serialized here so they never interleave on the wire.
    stream: Mutex<TcpStream>,
}

impl ConnShared {
    /// Ends the writer once nothing can arrive anymore. Safe to call
    /// from either thread; `Channel::close` is idempotent.
    fn close_if_drained(&self) {
        if self.draining.load(Ordering::SeqCst)
            && self.pending.lock().expect("session pending").is_empty()
        {
            self.outbox.close();
        }
    }

    fn write(&self, kind: FrameKind, payload: &[u8]) -> std::io::Result<u64> {
        write_frame(
            &mut *self.stream.lock().expect("session stream"),
            kind,
            payload,
        )
    }
}

/// A listener accepting multiplexed job-submission sessions for one
/// [`BootstrapService`].
pub struct SessionServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    telemetry: Arc<SessionTelemetry>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl SessionServer {
    /// Binds `addr` (port 0 for ephemeral) and serves sessions against
    /// `service` until [`SessionServer::stop`] or drop. Each accepted
    /// connection runs its own reader/writer thread pair.
    pub fn serve(addr: &str, service: Arc<BootstrapService>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let telemetry = Arc::new(SessionTelemetry::new());
        let accept_thread = {
            let (stop, telemetry) = (Arc::clone(&stop), Arc::clone(&telemetry));
            std::thread::Builder::new()
                .name("heap-session-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let (service, telemetry) = (Arc::clone(&service), Arc::clone(&telemetry));
                        std::thread::spawn(move || {
                            let _ = run_session(stream, service, telemetry);
                        });
                    }
                })
                .expect("spawn session acceptor")
        };
        Ok(Self {
            addr,
            stop,
            telemetry,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The session metric registry (`heap_sessions_open`,
    /// `heap_session_jobs_total`, rejections, completions).
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.telemetry.registry
    }

    /// Stops accepting new sessions. Established sessions drain
    /// normally — their jobs are already accepted and will complete.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the acceptor with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SessionServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Decrements the open-sessions gauge however the session ends.
struct OpenSession(Arc<Gauge>);

impl Drop for OpenSession {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

/// One accepted connection: handshake, then reader loop (this thread)
/// plus a writer thread draining the completion outbox.
fn run_session(
    mut stream: TcpStream,
    service: Arc<BootstrapService>,
    telemetry: Arc<SessionTelemetry>,
) -> std::io::Result<()> {
    let ctx = Arc::clone(service.context());
    if proto::server_handshake(&mut stream, Shape::of(&ctx), None).is_err() {
        return Ok(());
    }
    telemetry.open.add(1);
    let _open = OpenSession(Arc::clone(&telemetry.open));

    let shared = Arc::new(ConnShared {
        outbox: Channel::new(OUTBOX_DEPTH),
        pending: Mutex::new(HashMap::new()),
        draining: AtomicBool::new(false),
        stream: Mutex::new(stream.try_clone()?),
    });
    let writer = {
        let (shared, ctx, telemetry) = (
            Arc::clone(&shared),
            Arc::clone(&ctx),
            Arc::clone(&telemetry),
        );
        std::thread::Builder::new()
            .name("heap-session-writer".into())
            .spawn(move || {
                while let Some(tag) = shared.outbox.recv() {
                    let state = shared.pending.lock().expect("session pending").remove(&tag);
                    if let Some(result) = state.and_then(|s| s.take_result()) {
                        let frame = encode_job_done(tag, result, &ctx);
                        // A broken peer doesn't stop the drain: keep
                        // consuming completions so the session always
                        // terminates once its accepted jobs finish.
                        if shared.write(FrameKind::JobDone, &frame).is_ok() {
                            telemetry.completions.inc();
                        }
                    }
                    shared.close_if_drained();
                }
            })
            .expect("spawn session writer")
    };

    // Reader loop: decode SubmitReqs and feed the service.
    while let Ok((kind, payload, _)) = read_frame(&mut stream) {
        match kind {
            FrameKind::SubmitReq => handle_submit(&service, &ctx, &shared, &telemetry, &payload),
            FrameKind::Ping => {
                let _ = shared.write(FrameKind::Pong, &[]);
            }
            FrameKind::Shutdown => break,
            other => {
                let why = format!("unexpected session frame {other:?}");
                let _ = shared.write(FrameKind::Error, why.as_bytes());
                break;
            }
        }
    }
    shared.draining.store(true, Ordering::SeqCst);
    shared.close_if_drained();
    let _ = writer.join();
    Ok(())
}

/// Decodes one `SubmitReq` and submits it; refusals are answered with a
/// `SubmitAck`, acceptance is answered only by the eventual `JobDone`.
fn handle_submit(
    service: &BootstrapService,
    ctx: &CkksContext,
    shared: &Arc<ConnShared>,
    telemetry: &SessionTelemetry,
    payload: &[u8],
) {
    let Ok(req) = SubmitReq::decode(payload) else {
        // No tag to address a refusal to; drop the malformed frame.
        return;
    };
    let tag = req.tag;
    let refuse = |refusal: RuntimeError| {
        telemetry.rejections.inc();
        let _ = shared.write(
            FrameKind::SubmitAck,
            &proto::encode_submit_ack(tag, &refusal),
        );
    };
    let Some(priority) = req.priority else {
        return refuse(RuntimeError::Invalid("bad priority byte"));
    };
    let decoded = match req.kind {
        Some(JobKind::Bootstrap) => ctx
            .ciphertext_from_wire(req.body)
            .map(|ct| JobRequest::Bootstrap { ct })
            .map_err(|e| format!("bad ciphertext: {e:?}")),
        Some(JobKind::BlindRotate) => {
            let (modulus, dim) = service.lwe_shape();
            lwe_batch_from_wire(req.body, modulus, dim)
                .map(|lwes| JobRequest::BlindRotate { lwes })
                .map_err(|e| format!("bad LWE batch: {e:?}"))
        }
        None => Err("bad request kind byte".to_string()),
    };
    let request = match decoded {
        Ok(request) => request,
        Err(why) => return refuse(transport(why)),
    };
    if shared
        .pending
        .lock()
        .expect("session pending")
        .contains_key(&tag)
    {
        return refuse(RuntimeError::Invalid("duplicate tag"));
    }
    let opts = SubmitOptions {
        priority,
        tenant: TenantId(req.tenant),
    };
    // Register inserts the pending entry and installs the completion
    // notifier *before* the job can reach the pipeline, so a completion
    // can never race past an un-indexed tag.
    let registered = service.submit_registered(request, opts, |_, state| {
        shared
            .pending
            .lock()
            .expect("session pending")
            .insert(tag, Arc::clone(state));
        let outbox = Arc::clone(shared);
        state.set_notifier(Box::new(move || {
            // Err means the outbox closed (connection torn down); the
            // job still completed service-side, it just has no reader.
            let _ = outbox.outbox.send(tag);
        }));
    });
    match registered {
        Ok(_) => telemetry.jobs.inc(),
        Err(e) => {
            // The job never entered the queue; un-index the tag.
            shared.pending.lock().expect("session pending").remove(&tag);
            refuse(e);
        }
    }
}

/// `JobDone` payload for a finished job.
fn encode_job_done(
    tag: u64,
    result: Result<JobOutput, RuntimeError>,
    ctx: &CkksContext,
) -> Vec<u8> {
    let body;
    let outcome = match result {
        Ok(JobOutput::Bootstrapped(ct)) => {
            body = ctx.ciphertext_to_wire(&ct);
            Ok((JobKind::Bootstrap, body.as_slice()))
        }
        Ok(JobOutput::Accumulators(accs)) => {
            body = accumulators_to_wire(ctx, &accs);
            Ok((JobKind::BlindRotate, body.as_slice()))
        }
        Err(e) => Err(e),
    };
    proto::encode_job_done(tag, &outcome)
}

/// One submission's completion slot on the client.
struct SessionSlot {
    slot: Mutex<Option<Result<JobOutput, RuntimeError>>>,
    done: Condvar,
}

impl SessionSlot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            slot: Mutex::new(None),
            done: Condvar::new(),
        })
    }

    fn fill(&self, result: Result<JobOutput, RuntimeError>) {
        let mut slot = self.slot.lock().expect("session slot");
        if slot.is_none() {
            *slot = Some(result);
            self.done.notify_all();
        }
    }
}

/// A client's handle to one in-flight session submission.
pub struct SessionJob {
    tag: u64,
    slot: Arc<SessionSlot>,
}

impl SessionJob {
    /// The wire tag identifying this job on its session.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Blocks until the server streams this job's completion (or the
    /// session dies, which fails every outstanding job with
    /// [`RuntimeError::Transport`]).
    pub fn wait(self) -> Result<JobOutput, RuntimeError> {
        let mut slot = self.slot.slot.lock().expect("session slot");
        loop {
            if let Some(done) = slot.take() {
                return done;
            }
            slot = self.slot.done.wait(slot).expect("session slot");
        }
    }
}

/// Client state shared with the completion-routing reader thread.
struct ClientShared {
    ctx: Arc<CkksContext>,
    pending: Mutex<HashMap<u64, Arc<SessionSlot>>>,
    dead: AtomicBool,
}

impl ClientShared {
    /// Fails every outstanding job; the session is unusable.
    fn poison(&self, why: &str) {
        self.dead.store(true, Ordering::SeqCst);
        for (_, slot) in self.pending.lock().expect("client pending").drain() {
            slot.fill(Err(transport(why)));
        }
    }
}

/// A multiplexed job-submission session to a [`SessionServer`].
///
/// `Sync`: many application threads may submit concurrently; one socket
/// carries all of their jobs and completions stream back out of order,
/// routed to each [`SessionJob`] by tag.
pub struct SessionClient {
    writer: Mutex<TcpStream>,
    shared: Arc<ClientShared>,
    next_tag: AtomicU64,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl SessionClient {
    /// Connects and runs the ring-shape handshake. `ctx` must match the
    /// server's parameter set.
    pub fn connect(addr: impl ToSocketAddrs, ctx: &Arc<CkksContext>) -> Result<Self, RuntimeError> {
        // A node client's connect and write deadlines; reads are unbounded
        // because the reader thread idles for as long as no job completes.
        let t = NodeTimeouts {
            read: Duration::ZERO,
            ..NodeTimeouts::default()
        };
        let (stream, key_ids) =
            proto::client_handshake(addr, Shape::of(ctx), t, &|_, _, _| {}).map_err(transport)?;
        if key_ids.is_some() {
            return Err(transport(
                "HelloAck carries a key-id list: the peer is a node listener, not a session",
            ));
        }
        let shared = Arc::new(ClientShared {
            ctx: Arc::clone(ctx),
            pending: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
        });
        let reader = {
            let shared = Arc::clone(&shared);
            let mut stream = stream.try_clone().map_err(transport)?;
            std::thread::Builder::new()
                .name("heap-session-reader".into())
                .spawn(move || client_reader(&mut stream, &shared))
                .expect("spawn session reader")
        };
        Ok(Self {
            writer: Mutex::new(stream),
            shared,
            next_tag: AtomicU64::new(0),
            reader: Some(reader),
        })
    }

    /// Submits a job over the session; completion streams back whenever
    /// the service finishes it. Refusals surface on the returned
    /// handle's `wait` (typed [`RuntimeError::Rejected`] for SLO
    /// refusals), not here — the submit itself only fails when the
    /// session transport does.
    pub fn submit(
        &self,
        request: &JobRequest,
        opts: SubmitOptions,
    ) -> Result<SessionJob, RuntimeError> {
        if self.shared.dead.load(Ordering::SeqCst) {
            return Err(transport("session connection lost"));
        }
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let (kind, body) = match request {
            JobRequest::Bootstrap { ct } => {
                (JobKind::Bootstrap, self.shared.ctx.ciphertext_to_wire(ct))
            }
            JobRequest::BlindRotate { lwes } => (JobKind::BlindRotate, lwe_batch_to_wire(lwes)),
        };
        let p = SubmitReq {
            tag,
            tenant: opts.tenant.0,
            priority: Some(opts.priority),
            kind: Some(kind),
            body: &body,
        }
        .encode();
        let slot = SessionSlot::new();
        // Index the tag before the frame can travel: the completion may
        // come back before the write call even returns.
        self.shared
            .pending
            .lock()
            .expect("client pending")
            .insert(tag, Arc::clone(&slot));
        let written = write_frame(
            &mut *self.writer.lock().expect("client writer"),
            FrameKind::SubmitReq,
            &p,
        );
        if let Err(e) = written {
            self.shared
                .pending
                .lock()
                .expect("client pending")
                .remove(&tag);
            return Err(transport(e));
        }
        Ok(SessionJob { tag, slot })
    }

    /// Number of submissions still awaiting completion.
    pub fn in_flight(&self) -> usize {
        self.shared.pending.lock().expect("client pending").len()
    }
}

impl Drop for SessionClient {
    fn drop(&mut self) {
        // Clean end: the server drains our accepted jobs, streams the
        // remaining JobDones, and closes; the reader exits on EOF.
        {
            let mut w = self.writer.lock().expect("client writer");
            let _ = write_frame(&mut *w, FrameKind::Shutdown, &[]);
        }
        if let Some(t) = self.reader.take() {
            let _ = t.join();
        }
    }
}

/// Routes completion frames to their slots until the session ends.
fn client_reader(stream: &mut TcpStream, shared: &ClientShared) {
    loop {
        let (kind, payload, _) = match read_frame(stream) {
            Ok(frame) => frame,
            Err(_) => {
                shared.poison("session connection lost");
                return;
            }
        };
        let routed = match kind {
            FrameKind::SubmitAck => proto::decode_submit_ack(&payload)
                .map(|(tag, refused)| (tag, Err(refused)))
                .ok(),
            FrameKind::JobDone => proto::decode_job_done(&payload)
                .map(|(tag, outcome)| (tag, decode_job_output(outcome, &shared.ctx)))
                .ok(),
            FrameKind::Pong => continue,
            FrameKind::Error => {
                shared.poison(&format!("server error: {}", proto::decode_error(&payload)));
                return;
            }
            _ => None,
        };
        // A frame too short to carry its tag has no job to fail: it ends
        // the session like any other frame that does not belong here.
        let Some((tag, result)) = routed else {
            shared.poison("unexpected frame on session");
            return;
        };
        fill(shared, tag, result);
    }
}

fn fill(shared: &ClientShared, tag: u64, result: Result<JobOutput, RuntimeError>) {
    if let Some(slot) = shared.pending.lock().expect("client pending").remove(&tag) {
        slot.fill(result);
    }
}

/// Decodes the result body a `JobDone` carries.
fn decode_job_output(
    outcome: JobOutcome<'_>,
    ctx: &CkksContext,
) -> Result<JobOutput, RuntimeError> {
    match outcome? {
        (JobKind::BlindRotate, body) => rlwe_batch_from_wire(body)
            .map(JobOutput::Accumulators)
            .map_err(|e| transport(format!("bad accumulator batch: {e:?}"))),
        (JobKind::Bootstrap, body) => ctx
            .ciphertext_from_wire(body)
            .map(JobOutput::Bootstrapped)
            .map_err(|e| transport(format!("bad ciphertext: {e:?}"))),
    }
}
