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
//! What each frame means is `conn`'s: a `SessionDoor` per server
//! connection, a `SessionRoutes` per client. This file is their shells.
//! Server side, a connection costs two threads (a reader that feeds the
//! door and submits what it passes, a writer that drains a completion
//! outbox fed by each job's completion notifier) regardless of how many
//! jobs are in flight. Client side, [`SessionClient`] is `Sync`: any
//! number of application threads submit concurrently and block on their
//! own [`SessionJob`] handles while one reader thread routes completions
//! by tag. Accepted jobs are never dropped: on shutdown or a broken peer
//! the service still completes them, and an unreachable client simply
//! stops receiving the results.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use heap_ckks::CkksContext;
use heap_telemetry::{Counter, Gauge, Registry};
use heap_tfhe::{lwe_batch_from_wire, lwe_batch_to_wire, rlwe_batch_from_wire_in};

use crate::channel::Channel;
use crate::conn::{Backend, Out, SessionDoor, SessionRoutes};
use crate::job::{JobHandle, JobId, JobOutput, JobRequest, JobState, TenantId};
use crate::node::{accumulators_to_wire, boot_moduli};
use crate::proto::{self, FrameKind, JobKind, JobOutcome, Shape, SubmitReq};
use crate::remote::{self, NodeTimeouts};
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

/// One accepted connection, shared by its reader and writer threads: the
/// machine, the socket, and the jobs behind the tags.
struct Conn {
    door: Mutex<SessionDoor>,
    /// All frame writes (reader's refusals, writer's completions) are
    /// serialized here so they never interleave on the wire.
    stream: Mutex<TcpStream>,
    /// Completion tags, fed by each job's completion notifier.
    outbox: Arc<Channel<u64>>,
    /// Accepted jobs by tag, until the writer takes their results.
    jobs: Mutex<HashMap<u64, Arc<JobState>>>,
    service: Arc<BootstrapService>,
    telemetry: Arc<SessionTelemetry>,
}

impl Conn {
    fn door(&self) -> MutexGuard<'_, SessionDoor> {
        self.door.lock().expect("session door")
    }

    /// The session's output executor.
    fn execute(&self, outs: Vec<Out<'_>>) {
        for out in outs {
            match out {
                Out::Frame(kind, payload) => {
                    // A broken peer doesn't stop the drain: completions are
                    // still consumed, so the session always terminates
                    // once its accepted jobs finish.
                    let mut stream = self.stream.lock().expect("session stream");
                    let sent = proto::write_frame(&mut *stream, kind, &payload);
                    match kind {
                        FrameKind::SubmitAck => self.telemetry.rejections.inc(),
                        FrameKind::JobDone if sent.is_ok() => self.telemetry.completions.inc(),
                        _ => {}
                    }
                }
                Out::Submit(job) => match self.submit(&job) {
                    Ok(()) => self.telemetry.jobs.inc(),
                    Err(e) => {
                        let outs = self.door().refused(job.tag, &e);
                        self.execute(outs);
                    }
                },
                Out::Close(_) => self.outbox.close(),
                Out::Raw(_) | Out::Sleep(_) => unreachable!("a session door sends frames only"),
            }
        }
    }
}

impl Backend for Conn {
    /// Decodes the body for the service and submits it; acceptance is
    /// answered only by the eventual `JobDone`.
    fn submit(&self, job: &SubmitReq<'_>) -> Result<(), RuntimeError> {
        let (Some(priority), Some(kind)) = (job.priority, job.kind) else {
            return Err(RuntimeError::Invalid("unchecked submission"));
        };
        let request = match kind {
            JobKind::Bootstrap => self
                .service
                .context()
                .ciphertext_from_wire(job.body)
                .map(|ct| JobRequest::Bootstrap { ct })
                .map_err(|e| transport(format!("bad ciphertext: {e:?}")))?,
            JobKind::BlindRotate => {
                let (modulus, dim) = self.service.lwe_shape();
                lwe_batch_from_wire(job.body, modulus, dim)
                    .map(|lwes| JobRequest::BlindRotate { lwes })
                    .map_err(|e| transport(format!("bad LWE batch: {e:?}")))?
            }
        };
        let (tag, tenant, jobs) = (job.tag, TenantId(job.tenant), &self.jobs);
        // Register indexes the job and installs the completion notifier
        // *before* the job can reach the pipeline, so a completion can
        // never race past an un-indexed tag.
        let opts = SubmitOptions { priority, tenant };
        let registered = self.service.submit_registered(request, opts, |_, state| {
            jobs.lock()
                .expect("session jobs")
                .insert(tag, Arc::clone(state));
            let outbox = Arc::clone(&self.outbox);
            state.set_notifier(Box::new(move || {
                // Err means the outbox closed (connection torn down); the
                // job still completed service-side, it just has no reader.
                let _ = outbox.send(tag);
            }));
        });
        if registered.is_err() {
            // The job never entered the queue; un-index the tag.
            jobs.lock().expect("session jobs").remove(&tag);
        }
        registered.map(drop)
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
                        std::thread::spawn(move || run_session(stream, service, telemetry));
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

/// One accepted connection: the handshake, then a reader loop (this
/// thread) feeding the machine, plus a writer thread turning completions
/// into `JobDone`s.
fn run_session(
    mut stream: TcpStream,
    service: Arc<BootstrapService>,
    telemetry: Arc<SessionTelemetry>,
) {
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    if proto::configure(&stream, proto::SERVER_TIMEOUTS).is_err() {
        return;
    }
    let conn = Arc::new(Conn {
        door: Mutex::new(SessionDoor::new(Shape::of(service.context()))),
        stream: Mutex::new(writer),
        outbox: Arc::new(Channel::new(OUTBOX_DEPTH)),
        jobs: Mutex::new(HashMap::new()),
        service,
        telemetry: Arc::clone(&telemetry),
    });
    let Ok(hello) = proto::read_frame(&mut stream) else {
        return;
    };
    let outs = conn.door().on_frame(&hello);
    conn.execute(outs);
    if !conn.door().reading() {
        return;
    }
    telemetry.open.add(1);
    let _open = OpenSession(Arc::clone(&telemetry.open));

    let writer = {
        let conn = Arc::clone(&conn);
        std::thread::Builder::new()
            .name("heap-session-writer".into())
            .spawn(move || {
                let ctx = conn.service.context();
                while let Some(tag) = conn.outbox.recv() {
                    let state = conn.jobs.lock().expect("session jobs").remove(&tag);
                    let result = state.and_then(|s| s.take_result());
                    let body;
                    let outcome =
                        match result.expect("a notified job is indexed and has its result") {
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
                    let outs = conn.door().on_done(tag, &outcome);
                    conn.execute(outs);
                }
            })
            .expect("spawn session writer")
    };
    while conn.door().reading() {
        let frame = proto::read_frame(&mut stream);
        let outs = match &frame {
            Ok(frame) => conn.door().on_frame(frame),
            Err(_) => conn.door().on_eof(),
        };
        conn.execute(outs);
    }
    let _ = writer.join();
}

/// A client's handle to one in-flight session submission.
pub struct SessionJob {
    tag: u64,
    state: Arc<JobState>,
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
        let (id, state) = (JobId(self.tag), self.state);
        JobHandle { id, state }.wait()
    }
}

/// A client's waiters, shared with the completion-routing reader thread.
type Routes = Mutex<SessionRoutes<Arc<JobState>>>;

/// A multiplexed job-submission session to a [`SessionServer`].
///
/// `Sync`: many application threads may submit concurrently; one socket
/// carries all of their jobs and completions stream back out of order,
/// routed to each [`SessionJob`] by tag.
pub struct SessionClient {
    ctx: Arc<CkksContext>,
    writer: Mutex<TcpStream>,
    routes: Arc<Routes>,
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
        let (stream, _) =
            remote::dial(addr, Shape::of(ctx), false, t, &|_, _, _| {}).map_err(transport)?;
        let routes = Arc::new(Mutex::new(SessionRoutes::new()));
        let reader = {
            let (routes, ctx) = (Arc::clone(&routes), Arc::clone(ctx));
            let mut stream = stream.try_clone().map_err(transport)?;
            std::thread::Builder::new()
                .name("heap-session-reader".into())
                .spawn(move || client_reader(&mut stream, &routes, &ctx))
                .expect("spawn session reader")
        };
        Ok(Self {
            ctx: Arc::clone(ctx),
            writer: Mutex::new(stream),
            routes,
            reader: Some(reader),
        })
    }

    fn routes(&self) -> MutexGuard<'_, SessionRoutes<Arc<JobState>>> {
        self.routes.lock().expect("session routes")
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
        let (kind, body) = match request {
            JobRequest::Bootstrap { ct } => (JobKind::Bootstrap, self.ctx.ciphertext_to_wire(ct)),
            JobRequest::BlindRotate { lwes } => (JobKind::BlindRotate, lwe_batch_to_wire(lwes)),
        };
        let state = JobState::new();
        let tag = self.routes().submit(Arc::clone(&state))?;
        let p = SubmitReq {
            tag,
            tenant: opts.tenant.0,
            priority: Some(opts.priority),
            kind: Some(kind),
            body: &body,
        }
        .encode();
        let written = proto::write_frame(
            &mut *self.writer.lock().expect("client writer"),
            FrameKind::SubmitReq,
            &p,
        );
        if let Err(e) = written {
            self.routes().cancel(tag);
            return Err(transport(e));
        }
        Ok(SessionJob { tag, state })
    }

    /// Number of submissions still awaiting completion.
    pub fn in_flight(&self) -> usize {
        self.routes().in_flight()
    }
}

impl Drop for SessionClient {
    fn drop(&mut self) {
        // Clean end: the server drains our accepted jobs, streams the
        // remaining JobDones, and closes; the reader exits on EOF.
        {
            let mut w = self.writer.lock().expect("client writer");
            let _ = proto::write_frame(&mut *w, FrameKind::Shutdown, &[]);
        }
        if let Some(t) = self.reader.take() {
            let _ = t.join();
        }
    }
}

/// Routes completion frames to their waiters until the session ends.
fn client_reader(stream: &mut TcpStream, routes: &Routes, ctx: &CkksContext) {
    loop {
        let frame = proto::read_frame(stream);
        let mut machine = routes.lock().expect("session routes");
        let routed = match &frame {
            Ok(frame) => machine.on_frame(frame),
            Err(_) => machine.lose("session connection lost"),
        };
        let lost = machine.is_lost();
        drop(machine);
        for (state, outcome) in routed {
            state.complete_and(decode_job_output(outcome, ctx), || {});
        }
        if lost {
            return;
        }
    }
}

/// Decodes the result body a `JobDone` carries.
fn decode_job_output(
    outcome: JobOutcome<'_>,
    ctx: &CkksContext,
) -> Result<JobOutput, RuntimeError> {
    match outcome? {
        // Held to the context's basis: a foreign header is refused before
        // its residues are unpacked.
        (JobKind::BlindRotate, body) => rlwe_batch_from_wire_in(body, ctx.n(), &boot_moduli(ctx))
            .map(JobOutput::Accumulators)
            .map_err(|e| transport(format!("bad accumulator batch: {e:?}"))),
        (JobKind::Bootstrap, body) => ctx
            .ciphertext_from_wire(body)
            .map(JobOutput::Bootstrapped)
            .map_err(|e| transport(format!("bad ciphertext: {e:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamPreset;
    use heap_tfhe::LweCiphertext;
    use std::sync::mpsc;

    /// A peer that completes the handshake and hangs up: every submission
    /// is refused or fails with `Transport` — none waits forever, and none
    /// stays in flight.
    #[test]
    fn a_server_that_hangs_up_strands_no_submission() {
        let ctx = Arc::new(CkksContext::new(ParamPreset::Tiny.ckks_params()));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shape = Shape::of(&ctx);
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            proto::read_frame(&mut stream).expect("hello");
            let ack = proto::encode_hello_ack(shape, None);
            proto::write_frame(&mut stream, FrameKind::HelloAck, &ack).expect("ack");
        });
        let client = SessionClient::connect(addr, &ctx).expect("handshake");
        server.join().expect("server");
        let lwes = vec![LweCiphertext::trivial(1, 4, 64)];
        let request = JobRequest::BlindRotate { lwes };
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..64 {
                let outcome = client
                    .submit(&request, SubmitOptions::from(crate::Priority::Normal))
                    .and_then(SessionJob::wait);
                tx.send((outcome.map(drop), client.in_flight()))
                    .expect("watchdog");
            }
        });
        for _ in 0..64 {
            let (outcome, in_flight) = rx.recv_timeout(Duration::from_secs(20)).expect("no hang");
            assert!(
                matches!(outcome, Err(RuntimeError::Transport(_))),
                "{outcome:?}"
            );
            assert_eq!(in_flight, 0);
        }
    }
}
