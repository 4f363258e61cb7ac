//! The TCP daemon: accept loop, per-connection reader/writer threads,
//! and the runner pool draining the [`JobQueue`].
//!
//! Threading model:
//!
//! - one **accept** thread polls the listener until [`Server::stop`];
//! - each connection gets a **reader** thread (parses request frames,
//!   answers control requests inline, admits submit jobs) and a
//!   **writer** thread draining an `mpsc` channel of serialized event
//!   frames — so runners stream progress to a client without ever
//!   touching its socket directly, and interleaved jobs from one
//!   connection cannot tear each other's frames;
//! - `workers` **runner** threads pop jobs and run the conversion
//!   engine. Each flow run internally fans its three variant
//!   evaluations onto the shared [`triphase_par`] work-stealing pool,
//!   so a large batch shards across every core even when `workers` is
//!   small, and a single job still parallelizes on an idle server.
//!
//! Resilience model (the PR-10 hardening):
//!
//! - **Admission**: submits pass through the bounded queue's two-phase
//!   `reserve`/`commit`. The durability invariant is *reserve → journal
//!   the accept (fsync) → ack → commit*: an acknowledged job is always
//!   on disk before the client hears about it, so a SIGKILL at any
//!   instant loses nothing that was acknowledged. Shed jobs get a typed
//!   `overloaded` done with a `retry_after_ms` hint.
//! - **Recovery**: with a journal configured, startup replays it —
//!   stage records re-seed the memo store, and accepted-but-unfinished
//!   jobs are re-enqueued (bypassing admission: they were already
//!   admitted in a previous life) and run to a journaled terminal state.
//! - **Cancellation**: `cancel` removes a queued job outright or fires
//!   the running job's [`CancelToken`]; the engine aborts at the next
//!   stage boundary, keeping every banked stage.
//! - **Drain**: `shutdown` defaults to drain mode (finish queued and
//!   running jobs, then exit); `mode: "now"` re-journals queued jobs as
//!   pending for the next daemon life and exits after running jobs
//!   finish.
//!
//! Runner panics are contained per job: the panic is caught, reported
//! as a typed `done` event (`code: "panic"`), and the runner moves on.
//! Because memo-hit stages are recorded *before* a stage's fault site
//! fires, a job killed mid-flow can be resubmitted and will replay the
//! completed prefix from the stage cache, resuming from where it died —
//! and with the journal, that replay survives a full daemon restart.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use triphase_netlist::snapshot;

use crate::engine::{CancelToken, CancelUnwind, Engine, StageProv};
use crate::frame::{read_frame, write_frame, FrameError, MAX_FRAME_DEFAULT};
use crate::journal::{AcceptRecord, Journal};
use crate::json::Json;
use crate::memo::MemoStore;
use crate::proto::{self, ProtoError, Request};
use crate::queue::{AdmitError, Job, JobQueue, QueueLimits};

/// Daemon configuration.
pub struct ServerOptions {
    /// Bind address; port 0 picks an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Runner threads; 0 means [`triphase_par::default_threads`].
    pub workers: usize,
    /// Per-frame payload cap in bytes.
    pub max_frame: usize,
    /// Memo-store capacity per cache tier (entries).
    pub memo_capacity: usize,
    /// Memo-store byte budget per cache tier.
    pub memo_bytes: usize,
    /// Admission bound: maximum queued jobs.
    pub queue_depth: usize,
    /// Admission bound: maximum estimated queued bytes.
    pub queue_bytes: usize,
    /// Durable job journal path. `None` runs memory-only (no recovery).
    pub journal: Option<PathBuf>,
    /// Fault-injection plan forced into every job (test-only).
    pub fault: Option<triphase_fault::SharedInjector>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            max_frame: MAX_FRAME_DEFAULT,
            memo_capacity: 4096,
            memo_bytes: 512 << 20,
            queue_depth: 256,
            queue_bytes: 256 << 20,
            journal: None,
            fault: None,
        }
    }
}

struct Ctx {
    queue: JobQueue,
    engine: Engine,
    journal: Option<Arc<Journal>>,
    /// Cancellation tokens for every admitted-but-unfinished job.
    tokens: Mutex<HashMap<u64, CancelToken>>,
    stop: AtomicBool,
    next_id: AtomicU64,
    jobs_done: AtomicU64,
    workers: usize,
    max_frame: usize,
}

impl Ctx {
    fn tokens(&self) -> std::sync::MutexGuard<'_, HashMap<u64, CancelToken>> {
        self.tokens.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn journal_done(&self, id: u64, code: &str) {
        if let Some(j) = &self.journal {
            let _ = j.append_done(id, code);
        }
    }
}

/// A running daemon. Dropping the handle does not stop the server;
/// call [`Server::stop`] then [`Server::wait`].
pub struct Server {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    handles: Vec<thread::JoinHandle<()>>,
    /// Jobs recovered from the journal at startup (for observability).
    resumed: usize,
}

impl Server {
    /// Bind, replay the journal (when configured), spawn the accept
    /// thread and the runner pool, and return.
    ///
    /// # Errors
    ///
    /// Bind/listen failures, or journal open/replay I/O failures.
    pub fn start(opts: ServerOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let workers = if opts.workers == 0 {
            triphase_par::default_threads()
        } else {
            opts.workers
        };
        let memo = MemoStore::bounded(opts.memo_capacity, opts.memo_bytes);
        let mut journal = None;
        let mut pending = Vec::new();
        let mut next_id = 1;
        if let Some(path) = &opts.journal {
            let (j, replay) = Journal::open_replay(path)?;
            for (key, data) in replay.stages {
                memo.seed_stage(key, data);
            }
            next_id = replay.next_id;
            pending = replay.pending;
            journal = Some(Arc::new(j));
        }
        let mut engine = Engine::with_memo(memo);
        if let Some(j) = &journal {
            engine = engine.with_journal(Arc::clone(j));
        }
        if let Some(fault) = opts.fault {
            engine = engine.with_fault(fault);
        }
        let ctx = Arc::new(Ctx {
            queue: JobQueue::bounded(
                QueueLimits {
                    depth: opts.queue_depth,
                    bytes: opts.queue_bytes,
                },
                workers,
            ),
            engine,
            journal,
            tokens: Mutex::new(HashMap::new()),
            stop: AtomicBool::new(false),
            next_id: AtomicU64::new(next_id),
            jobs_done: AtomicU64::new(0),
            workers,
            max_frame: opts.max_frame,
        });
        // Re-enqueue recovered jobs before any worker or connection
        // exists: they were acknowledged in a previous daemon life and
        // must reach a terminal state in this one. Their submitter is
        // gone, so events go to a closed channel (dropped silently); the
        // terminal state still lands in the journal, and the report in
        // the cache — a reconnecting client's resubmit is a cache hit.
        let resumed = resume_pending(&ctx, pending);
        let mut handles = Vec::with_capacity(workers + 1);
        for _ in 0..workers {
            let ctx = Arc::clone(&ctx);
            handles.push(thread::spawn(move || runner_loop(&ctx)));
        }
        {
            let ctx = Arc::clone(&ctx);
            handles.push(thread::spawn(move || accept_loop(&listener, &ctx)));
        }
        Ok(Server {
            addr,
            ctx,
            handles,
            resumed,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Jobs recovered from the journal and re-enqueued at startup.
    pub fn resumed_jobs(&self) -> usize {
        self.resumed
    }

    /// Shared memo-store counters: (stage tier, report tier).
    pub fn memo_stats(&self) -> (crate::memo::TierStats, crate::memo::TierStats) {
        self.ctx.engine.memo().stats()
    }

    /// Signal drain shutdown: the accept loop exits, queued jobs drain,
    /// and runners stop once the queue empties.
    pub fn stop(&self) {
        self.ctx.stop.store(true, Ordering::SeqCst);
        self.ctx.queue.stop();
    }

    /// Join the accept thread and the runner pool, returning the final
    /// cache counters. Connection threads are not joined — they exit
    /// when their client disconnects.
    pub fn wait(self) -> (crate::memo::TierStats, crate::memo::TierStats) {
        for h in self.handles {
            let _ = h.join();
        }
        self.ctx.engine.memo().stats()
    }
}

/// Rebuild [`Job`]s from replayed accept records and force them onto
/// the queue (admission was already granted in a previous daemon life).
/// Returns how many were resumed; unparseable records are journaled as
/// terminally failed so they are not replayed forever.
fn resume_pending(ctx: &Arc<Ctx>, pending: Vec<AcceptRecord>) -> usize {
    let mut resumed = 0;
    for rec in pending {
        let netlist = match snapshot::from_text(&rec.netlist_text) {
            Ok(nl) => nl,
            Err(_) => {
                ctx.journal_done(rec.id, "bad_netlist");
                continue;
            }
        };
        let cfg = match proto::parse_config(&rec.config) {
            Ok(cfg) => cfg,
            Err(_) => {
                ctx.journal_done(rec.id, "bad_config");
                continue;
            }
        };
        // Re-fold the deadline into the ILP budget exactly as
        // `parse_submit` did: `config_json` round-trips every wire-
        // settable field, and the deadline (not wire-settable) is the
        // only other `time_limit` source — so the rebuilt config is
        // fingerprint-identical and the journaled stages hit.
        let mut cfg = cfg;
        if let Some(ms) = rec.deadline_ms {
            let budget = Duration::from_millis(ms);
            cfg.phase_cfg.time_limit = Some(match cfg.phase_cfg.time_limit {
                Some(existing) => existing.min(budget),
                None => budget,
            });
        }
        let est_bytes = rec.netlist_text.len();
        // The submitter's connection died with the previous daemon: a
        // pre-closed channel swallows the job's events.
        let (reply, _) = channel::<String>();
        ctx.tokens()
            .insert(rec.id, CancelToken::new(rec.deadline_ms));
        if ctx.queue.force_push(Job {
            id: rec.id,
            name: rec.name,
            netlist,
            cfg,
            return_netlist: rec.return_netlist,
            est_bytes,
            deadline_ms: rec.deadline_ms,
            reply,
        }) {
            resumed += 1;
        }
    }
    resumed
}

fn accept_loop(listener: &TcpListener, ctx: &Arc<Ctx>) {
    while !ctx.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let ctx = Arc::clone(ctx);
                thread::spawn(move || connection(stream, &ctx));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn send_json(tx: &Sender<String>, v: &Json) {
    // A closed receiver means the client went away; drop silently.
    let _ = tx.send(v.to_pretty());
}

fn connection(stream: TcpStream, ctx: &Arc<Ctx>) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = channel::<String>();
    let writer = thread::spawn(move || {
        let mut w = std::io::BufWriter::new(write_half);
        for frame in rx {
            if write_frame(&mut w, &frame).is_err() {
                break;
            }
        }
    });
    reader_loop(stream, ctx, &tx);
    drop(tx);
    let _ = writer.join();
}

/// Outcome of the pre-ack half of admitting one job of a submit batch.
enum Admitted {
    /// Reserved and journaled; committed to the queue after the ack.
    Reserved,
    /// Shed: queue depth and retry hint for the `overloaded` done.
    Shed { queued: usize, retry_after_ms: u64 },
    /// The server is stopping.
    Stopped,
    /// The accept record could not be made durable.
    JournalFailed(String),
}

/// The pre-ack half of admission: reserve → journal (fsync) → token.
/// The caller sends the ack and only then commits — so no worker can
/// emit events for a job before its ack frame is on the wire, while
/// durability is already settled when the client hears the id.
fn admit(ctx: &Arc<Ctx>, id: u64, j: &proto::JobRequest) -> Admitted {
    match ctx.queue.reserve(j.est_bytes) {
        Err(AdmitError::Overloaded {
            queued,
            retry_after_ms,
        }) => {
            return Admitted::Shed {
                queued,
                retry_after_ms,
            }
        }
        Err(AdmitError::Stopped) => return Admitted::Stopped,
        Ok(()) => {}
    }
    if let Some(journal) = &ctx.journal {
        let rec = AcceptRecord {
            id,
            name: j.name.clone(),
            netlist_text: snapshot::to_text(&j.netlist),
            config: proto::config_json(&j.cfg),
            return_netlist: j.return_netlist,
            deadline_ms: j.deadline_ms,
        };
        if let Err(e) = journal.append_accept(&rec) {
            ctx.queue.release(j.est_bytes);
            return Admitted::JournalFailed(e.to_string());
        }
    }
    ctx.tokens().insert(id, CancelToken::new(j.deadline_ms));
    Admitted::Reserved
}

/// The post-ack half: commit the reserved job to the queue, making it
/// runnable; `false` if the queue stopped first. The queue itself sends
/// the job's `queued` event.
fn commit(ctx: &Arc<Ctx>, id: u64, j: proto::JobRequest, tx: &Sender<String>) -> bool {
    match ctx.queue.commit(Job {
        id,
        name: j.name,
        netlist: j.netlist,
        cfg: j.cfg,
        return_netlist: j.return_netlist,
        est_bytes: j.est_bytes,
        deadline_ms: j.deadline_ms,
        reply: tx.clone(),
    }) {
        Ok(_) => true,
        Err(_) => {
            ctx.tokens().remove(&id);
            ctx.journal_done(id, "shutdown");
            false
        }
    }
}

fn reader_loop(mut stream: TcpStream, ctx: &Arc<Ctx>, tx: &Sender<String>) {
    loop {
        let text = match read_frame(&mut stream, ctx.max_frame) {
            Ok(text) => text,
            Err(FrameError::TooLarge { len, max }) => {
                // The oversized payload is still in flight: answer, then
                // close — the stream can no longer be framed.
                let e = ProtoError {
                    code: "frame_too_large",
                    message: format!("frame of {len} bytes exceeds the {max}-byte cap"),
                };
                send_json(tx, &e.event());
                return;
            }
            Err(FrameError::Utf8(e)) => {
                // Payload fully consumed, stream still frame-aligned.
                let e = ProtoError {
                    code: "bad_frame",
                    message: format!("frame is not UTF-8: {e}"),
                };
                send_json(tx, &e.event());
                continue;
            }
            Err(_) => return,
        };
        match proto::parse_request(&text) {
            Ok(Request::Submit(jobs)) => {
                let ids: Vec<u64> = jobs
                    .iter()
                    .map(|_| ctx.next_id.fetch_add(1, Ordering::SeqCst))
                    .collect();
                // Admit (reserve + journal) every job *before* the ack:
                // once the client sees an id without a following
                // `overloaded`/`shutdown` done, the job is durable. Jobs
                // become runnable (commit) only *after* the ack, so the
                // ack is always the submit's first event on the wire.
                let outcomes: Vec<Admitted> = ids
                    .iter()
                    .zip(&jobs)
                    .map(|(&id, j)| admit(ctx, id, j))
                    .collect();
                send_json(tx, &proto::ack_event(&ids));
                for ((id, j), outcome) in ids.iter().zip(jobs).zip(outcomes) {
                    match outcome {
                        Admitted::Reserved => {
                            let name = j.name.clone();
                            if !commit(ctx, *id, j, tx) {
                                send_json(
                                    tx,
                                    &proto::done_err(*id, &name, "shutdown", "server is stopping"),
                                );
                            }
                        }
                        Admitted::Shed {
                            queued,
                            retry_after_ms,
                        } => send_json(
                            tx,
                            &proto::done_overloaded(*id, &j.name, queued, retry_after_ms),
                        ),
                        Admitted::Stopped => send_json(
                            tx,
                            &proto::done_err(*id, &j.name, "shutdown", "server is stopping"),
                        ),
                        Admitted::JournalFailed(e) => send_json(
                            tx,
                            &proto::done_err(
                                *id,
                                &j.name,
                                "journal_failed",
                                &format!("could not journal the accept: {e}"),
                            ),
                        ),
                    }
                }
            }
            Ok(Request::Cancel { job }) => {
                if let Some(queued) = ctx.queue.remove(job) {
                    ctx.tokens().remove(&job);
                    ctx.journal_done(job, "cancelled");
                    send_json(tx, &proto::cancelled_event(job, "queued"));
                    send_json(
                        &queued.reply,
                        &proto::done_err(job, &queued.name, "cancelled", "cancelled while queued"),
                    );
                } else if let Some(token) = ctx.tokens().get(&job) {
                    token.cancel();
                    send_json(tx, &proto::cancelled_event(job, "running"));
                } else {
                    send_json(tx, &proto::cancelled_event(job, "unknown"));
                }
            }
            Ok(Request::Status) => {
                let (stage, report) = ctx.engine.memo().stats();
                send_json(
                    tx,
                    &proto::status_event(
                        ctx.queue.depth(),
                        ctx.queue.queued_bytes(),
                        ctx.workers,
                        ctx.jobs_done.load(Ordering::SeqCst),
                        stage,
                        report,
                    ),
                );
            }
            Ok(Request::Ping) => send_json(tx, &proto::pong_event()),
            Ok(Request::Shutdown { drain }) => {
                send_json(tx, &proto::bye_event(if drain { "drain" } else { "now" }));
                ctx.stop.store(true, Ordering::SeqCst);
                if drain {
                    ctx.queue.stop();
                } else {
                    // Queued jobs stay journaled as pending: the next
                    // daemon life resumes them. Tell their submitters.
                    for job in ctx.queue.stop_discard() {
                        ctx.tokens().remove(&job.id);
                        send_json(
                            &job.reply,
                            &proto::done_err(
                                job.id,
                                &job.name,
                                "shutdown",
                                "server stopping; job stays journaled and resumes on restart",
                            ),
                        );
                    }
                }
                return;
            }
            Err(e) => send_json(tx, &e.event()),
        }
    }
}

fn runner_loop(ctx: &Arc<Ctx>) {
    while let Some(job) = ctx.queue.pop() {
        run_job(ctx, &job);
        ctx.jobs_done.fetch_add(1, Ordering::SeqCst);
    }
}

fn run_job(ctx: &Arc<Ctx>, job: &Job) {
    let started = Instant::now();
    let token = ctx.tokens().get(&job.id).cloned();
    let mut prov: Vec<StageProv> = Vec::new();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut emit = |p: &StageProv| {
            prov.push(p.clone());
            send_json(
                &job.reply,
                &proto::stage_event(job.id, p.stage, p.key, p.hit, p.millis, p.evictions),
            );
        };
        ctx.engine
            .run(&job.netlist, &job.cfg, token.as_ref(), &mut emit)
    }));
    let (done, code) = match result {
        Ok(Ok(report)) => {
            let text = job
                .return_netlist
                .then(|| snapshot::to_text(&report.three_phase.netlist));
            (
                proto::done_ok(job.id, &job.name, &report, &prov, text.as_deref()),
                "ok",
            )
        }
        Ok(Err(e)) => {
            let code = proto::error_code(&e);
            (
                proto::done_err(job.id, &job.name, code, &e.to_string()),
                code,
            )
        }
        Err(payload) => match payload.downcast_ref::<CancelUnwind>() {
            Some(c) => (
                proto::done_err(
                    job.id,
                    &job.name,
                    c.reason,
                    &format!(
                        "aborted at a stage boundary; last banked stage: {}",
                        c.last_banked
                    ),
                ),
                c.reason,
            ),
            None => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "worker panicked".into());
                (proto::done_err(job.id, &job.name, "panic", &msg), "panic")
            }
        },
    };
    ctx.tokens().remove(&job.id);
    ctx.journal_done(job.id, code);
    ctx.queue.note_job_ms(started.elapsed().as_secs_f64() * 1e3);
    send_json(&job.reply, &done);
}
