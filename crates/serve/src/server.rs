//! The panic-isolated worker pool: admission, retry, drain, accounting.
//!
//! One [`Server`] owns `workers` OS threads looping over a shared
//! [`BoundedQueue`]. The lifecycle of every submitted job:
//!
//! ```text
//! submit ── full? ──────────────▶ shed   (reply `overloaded`, never queued)
//!    │           draining? ─────▶ reject (reply `draining`, never queued)
//!    ▼
//! queued ── drain flushes ──────▶ reply `draining`
//!    │      deadline_ms expired ▶ reply error `deadline` (never run)
//!    ▼
//! running ── ok ────────────────▶ reply `ok` (attempts counted)
//!    │       preempted ─────────▶ checkpointed, requeued (not terminal)
//!    │       panic ─────────────▶ reply error `panic`; the worker survives
//!    │       transient failure ─▶ seeded backoff, requeued (bounded retries)
//!    └────── final failure ─────▶ reply error with the failure's code
//! ```
//!
//! The invariant the chaos benchmark asserts: **every accepted job gets
//! exactly one terminal reply** (`ok`, `error`, or flushed `draining`),
//! whatever combination of panics, watchdog trips, retries, and drain
//! happens around it — at quiescence,
//! `accepted == ok + failed + drained`.
//!
//! Panic isolation uses `catch_unwind` per job, so a crashing job kills
//! neither its worker thread nor its sibling jobs; the runner sees only
//! `&self`, and any interior state it keeps must stay sound across an
//! unwind (the stock runners share only atomics and the sharded eval
//! cache). Retries re-enter through a *delayed* set that bypasses the
//! admission bound — a job admitted once is never shed on re-entry.

use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use codesign_trace::json::Object;
use codesign_trace::Tracer;

use crate::protocol::{reply_draining, reply_error, reply_ok, reply_shed, Request};
use crate::queue::BoundedQueue;
use crate::retry::{backoff_delay, job_key, RetryConfig};

/// A job failure as the runner reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// Stable machine-readable code (`"watchdog"`, `"budget"`,
    /// `"unknown_kind"`, ...).
    pub code: String,
    /// Human-readable detail.
    pub message: String,
    /// Whether the failure is transient — eligible for seeded-backoff
    /// retry. Mirrors `codesign_fault::retryable`.
    pub transient: bool,
}

impl JobError {
    /// A permanent (non-retryable) failure.
    #[must_use]
    pub fn permanent(code: impl Into<String>, message: impl Into<String>) -> Self {
        JobError {
            code: code.into(),
            message: message.into(),
            transient: false,
        }
    }

    /// A transient (retryable) failure.
    #[must_use]
    pub fn transient(code: impl Into<String>, message: impl Into<String>) -> Self {
        JobError {
            code: code.into(),
            message: message.into(),
            transient: true,
        }
    }
}

/// Displays the human-readable detail only; the code is for machines.
impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for JobError {}

/// How one dispatch of a job ended, short of an error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The job finished; the string is its terminal `ok` payload.
    Done(String),
    /// The job ran out of its execution slice and checkpointed. The
    /// server requeues it and hands `state` back on the next dispatch —
    /// a preemption is *not* a terminal outcome and does not consume a
    /// retry attempt.
    Preempted {
        /// Opaque resume blob (for cosim jobs, a replay checkpoint).
        state: Vec<u8>,
    },
}

/// What the server runs. Implementations live with the job registry
/// (the `codesign` core crate), keeping this crate free of a dependency
/// cycle; the server only needs *a* runner.
///
/// `attempt` is 1-based and lets chaos runners model transient faults
/// deterministically ("fail the first K attempts"). The returned string
/// must be the exact bytes the equivalent CLI invocation prints.
pub trait JobRunner: Send + Sync + 'static {
    /// Runs one job. May panic: the server isolates it.
    fn run(&self, request: &Request, attempt: u32) -> Result<String, JobError>;

    /// Runs one *slice* of a job. Runners that support checkpoint
    /// preemption override this: when the slice budget expires they
    /// return [`RunOutcome::Preempted`] with a resume blob, and receive
    /// it back as `resume` on the next dispatch. The default runs the
    /// job to completion via [`JobRunner::run`] (never preempts, never
    /// sees a resume blob).
    fn run_slice(
        &self,
        request: &Request,
        attempt: u32,
        resume: Option<&[u8]>,
    ) -> Result<RunOutcome, JobError> {
        debug_assert!(resume.is_none(), "default runners never preempt");
        self.run(request, attempt).map(RunOutcome::Done)
    }
}

/// Pool shape and retry policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads (minimum 1).
    pub workers: usize,
    /// Total queue bound across the three priority classes.
    pub queue_capacity: usize,
    /// Retry policy for transient failures.
    pub retry: RetryConfig,
    /// Checkpoint preemptions one job may accumulate before it is
    /// failed with code `preempt_limit` (guards against a runner that
    /// never completes a slice).
    pub max_preemptions: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            retry: RetryConfig::default(),
            max_preemptions: 64,
        }
    }
}

/// Where a submission landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Queued; a terminal reply will follow.
    Accepted,
    /// Shed at admission (`overloaded` reply already sent).
    Shed,
    /// Rejected because the server is draining (reply already sent).
    Draining,
}

/// Monotonic counters, readable while the server runs.
#[derive(Debug, Default)]
struct Stats {
    accepted: AtomicU64,
    ok: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    drained: AtomicU64,
    rejected: AtomicU64,
    retried: AtomicU64,
    panicked: AtomicU64,
    watchdogged: AtomicU64,
    deadline_expired: AtomicU64,
    preempted: AtomicU64,
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Jobs admitted to the queue.
    pub accepted: u64,
    /// Jobs finished successfully.
    pub ok: u64,
    /// Jobs finished with a terminal error (panics and deadline
    /// expiries included).
    pub failed: u64,
    /// Submissions shed at admission (never accepted).
    pub shed: u64,
    /// **Accepted** jobs flushed by drain before running.
    pub drained: u64,
    /// Submissions rejected at admission because the server was
    /// draining (never accepted).
    pub rejected: u64,
    /// Retry re-queues performed.
    pub retried: u64,
    /// Jobs that panicked (isolated; each also counts as failed).
    pub panicked: u64,
    /// Failures whose code was `watchdog` (counted per occurrence).
    pub watchdogged: u64,
    /// Jobs failed at dequeue because their queue-wait deadline passed.
    pub deadline_expired: u64,
    /// Checkpoint preemptions performed (slice expired, job requeued;
    /// counted per occurrence — not terminal).
    pub preempted: u64,
}

impl StatsSnapshot {
    /// Terminal replies delivered to accepted jobs. Every accepted job
    /// ends as exactly one of ok/failed/drained, so at quiescence
    /// `terminal() == accepted`.
    #[must_use]
    pub fn terminal(&self) -> u64 {
        self.ok + self.failed + self.drained
    }

    /// One-line JSON rendering (the `stats` request's reply body).
    #[must_use]
    pub fn to_json(&self) -> String {
        Object::compact()
            .num("accepted", self.accepted)
            .num("ok", self.ok)
            .num("failed", self.failed)
            .num("shed", self.shed)
            .num("drained", self.drained)
            .num("rejected", self.rejected)
            .num("retried", self.retried)
            .num("panicked", self.panicked)
            .num("watchdogged", self.watchdogged)
            .num("deadline_expired", self.deadline_expired)
            .num("preempted", self.preempted)
            .finish()
    }
}

struct Job {
    request: Request,
    reply: Sender<String>,
    attempt: u32,
    accepted_at: Instant,
    /// Checkpoint blob from a preempted slice; its presence also marks
    /// the job as started, exempting it from the queue-wait deadline.
    resume: Option<Vec<u8>>,
    preemptions: u32,
}

/// A retry waiting out its backoff. Ordered by readiness (earliest
/// first), sequence-number tie-broken, so the heap is deterministic.
struct Delayed {
    ready_at: Instant,
    seq: u64,
    job: Job,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.ready_at == other.ready_at && self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap: invert so the earliest pops first.
        other
            .ready_at
            .cmp(&self.ready_at)
            .then(other.seq.cmp(&self.seq))
    }
}

struct State {
    queue: BoundedQueue<Job>,
    delayed: BinaryHeap<Delayed>,
    seq: u64,
    draining: bool,
    in_flight: usize,
}

struct Inner<R> {
    runner: R,
    cfg: ServerConfig,
    state: Mutex<State>,
    cv: Condvar,
    stats: Stats,
    tracer: Tracer,
    started: Instant,
}

impl<R> Inner<R> {
    fn submit(&self, request: Request, reply: &Sender<String>) -> SubmitOutcome {
        let mut state = self.state.lock().expect("server state");
        if state.draining {
            let _ = reply.send(reply_draining(&request.id));
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return SubmitOutcome::Draining;
        }
        let priority = request.priority;
        let job = Job {
            request,
            reply: reply.clone(),
            attempt: 1,
            accepted_at: Instant::now(),
            resume: None,
            preemptions: 0,
        };
        match state.queue.push(job, priority) {
            Ok(()) => {
                self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                self.cv.notify_one();
                SubmitOutcome::Accepted
            }
            Err(job) => {
                let _ = job.reply.send(reply_shed(
                    &job.request.id,
                    state.queue.len(),
                    state.queue.capacity(),
                ));
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                SubmitOutcome::Shed
            }
        }
    }

    fn drain(&self) {
        let mut state = self.state.lock().expect("server state");
        state.draining = true;
        let mut flushed = state.queue.drain_all();
        flushed.extend(
            std::mem::take(&mut state.delayed)
                .into_sorted_vec()
                .into_iter()
                .map(|d| d.job),
        );
        drop(state);
        for job in flushed {
            let _ = job.reply.send(reply_draining(&job.request.id));
            self.stats.drained.fetch_add(1, Ordering::Relaxed);
        }
        self.cv.notify_all();
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            ok: self.stats.ok.load(Ordering::Relaxed),
            failed: self.stats.failed.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            drained: self.stats.drained.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            retried: self.stats.retried.load(Ordering::Relaxed),
            panicked: self.stats.panicked.load(Ordering::Relaxed),
            watchdogged: self.stats.watchdogged.load(Ordering::Relaxed),
            deadline_expired: self.stats.deadline_expired.load(Ordering::Relaxed),
            preempted: self.stats.preempted.load(Ordering::Relaxed),
        }
    }

    fn queue_depth(&self) -> usize {
        self.state.lock().expect("server state").queue.len()
    }

    /// Blocks until every accepted job has its terminal reply. Only
    /// meaningful after [`Inner::drain`] (otherwise new acceptances can
    /// keep moving the goalposts).
    fn await_quiescence(&self) {
        loop {
            let s = self.stats_snapshot();
            if s.terminal() == s.accepted {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// A cloneable, shareable reference to a running server — what
/// transport connection threads hold.
pub struct Handle<R> {
    inner: Arc<Inner<R>>,
}

impl<R> Clone for Handle<R> {
    fn clone(&self) -> Self {
        Handle {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<R> std::fmt::Debug for Handle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle")
            .field("stats", &self.inner.stats_snapshot())
            .finish_non_exhaustive()
    }
}

impl<R: JobRunner> Handle<R> {
    /// See [`Server::submit`].
    pub fn submit(&self, request: Request, reply: &Sender<String>) -> SubmitOutcome {
        self.inner.submit(request, reply)
    }

    /// See [`Server::drain`].
    pub fn drain(&self) {
        self.inner.drain();
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats_snapshot()
    }

    /// Jobs currently queued (excluding delayed retries and in-flight).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }

    /// Blocks until every accepted job has resolved. Call after
    /// [`Handle::drain`].
    pub fn await_quiescence(&self) {
        self.inner.await_quiescence();
    }
}

/// The job server: a bounded queue in front of a panic-isolated pool.
pub struct Server<R: JobRunner> {
    inner: Arc<Inner<R>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl<R: JobRunner> std::fmt::Debug for Server<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.workers.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<R: JobRunner> Server<R> {
    /// Starts the pool. The tracer records one span per job run on a
    /// `serve` track (microsecond timestamps since server start).
    #[must_use]
    pub fn new(runner: R, cfg: ServerConfig, tracer: &Tracer) -> Self {
        let inner = Arc::new(Inner {
            runner,
            cfg,
            state: Mutex::new(State {
                queue: BoundedQueue::new(cfg.queue_capacity),
                delayed: BinaryHeap::new(),
                seq: 0,
                draining: false,
                in_flight: 0,
            }),
            cv: Condvar::new(),
            stats: Stats::default(),
            tracer: tracer.clone(),
            started: Instant::now(),
        });
        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        Server { inner, workers }
    }

    /// A shareable reference for transport threads.
    #[must_use]
    pub fn handle(&self) -> Handle<R> {
        Handle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Submits one parsed request. The server itself sends the
    /// `overloaded`/`draining` reply on rejection; on acceptance the
    /// terminal reply arrives via `reply` once the job resolves.
    pub fn submit(&self, request: Request, reply: &Sender<String>) -> SubmitOutcome {
        self.inner.submit(request, reply)
    }

    /// Begins graceful drain: new submissions are rejected, queued and
    /// backoff-delayed jobs are flushed with `draining` replies, and
    /// in-flight jobs run to completion. Idempotent.
    pub fn drain(&self) {
        self.inner.drain();
    }

    /// Drains (if not already draining) and joins every worker. Returns
    /// the final counters.
    pub fn shutdown(self) -> StatsSnapshot {
        self.drain();
        for w in self.workers {
            let _ = w.join();
        }
        self.inner.stats_snapshot()
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats_snapshot()
    }

    /// Jobs currently queued (excluding delayed retries and in-flight).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.inner.queue_depth()
    }
}

fn worker_loop<R: JobRunner>(inner: &Inner<R>) {
    let track = inner.tracer.track("serve");
    let mut state = inner.state.lock().expect("server state");
    loop {
        let now = Instant::now();
        // A backoff-delayed retry that is ready takes precedence over
        // fresh work: it is older than anything still queued.
        let job = if state.delayed.peek().is_some_and(|d| d.ready_at <= now) {
            Some(state.delayed.pop().expect("peeked").job)
        } else {
            state.queue.pop()
        };
        let Some(job) = job else {
            if state.draining && state.delayed.is_empty() {
                return;
            }
            let timeout = state
                .delayed
                .peek()
                .map_or(Duration::from_millis(100), |d| {
                    d.ready_at.saturating_duration_since(now)
                });
            state = inner
                .cv
                .wait_timeout(state, timeout.min(Duration::from_millis(100)))
                .expect("server state")
                .0;
            continue;
        };

        // Queue-wait deadline: a job the client gave up on is failed,
        // never run — the cheapest form of load shedding under overload.
        // A preempted job is exempt: it already started running, and
        // from then on `deadline_ms` means its execution slice, not its
        // queue wait.
        if let Some(deadline_ms) = job.request.deadline_ms {
            if job.resume.is_none()
                && job.accepted_at.elapsed() > Duration::from_millis(deadline_ms)
            {
                inner.stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
                inner.stats.failed.fetch_add(1, Ordering::Relaxed);
                let _ = job.reply.send(reply_error(
                    Some(&job.request.id),
                    "deadline",
                    &format!("queued longer than deadline_ms={deadline_ms}"),
                ));
                continue;
            }
        }

        state.in_flight += 1;
        drop(state);

        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            inner
                .runner
                .run_slice(&job.request, job.attempt, job.resume.as_deref())
        }));
        let ts = inner.started.elapsed().as_micros() as u64;
        let dur = t0.elapsed().as_micros() as u64;
        inner.tracer.span(
            track,
            &format!("job:{}", job.request.kind),
            ts.saturating_sub(dur),
            dur,
            &[
                ("id", job.request.id.as_str().into()),
                ("attempt", u64::from(job.attempt).into()),
            ],
        );

        state = inner.state.lock().expect("server state");
        match outcome {
            Err(_) => {
                // The job panicked; this worker and its siblings live on.
                inner.stats.panicked.fetch_add(1, Ordering::Relaxed);
                inner.stats.failed.fetch_add(1, Ordering::Relaxed);
                let _ = job.reply.send(reply_error(
                    Some(&job.request.id),
                    "panic",
                    "job panicked; isolated by the worker pool",
                ));
            }
            Ok(Ok(RunOutcome::Done(result))) => {
                inner.stats.ok.fetch_add(1, Ordering::Relaxed);
                let _ = job
                    .reply
                    .send(reply_ok(&job.request.id, job.attempt, &result));
            }
            Ok(Ok(RunOutcome::Preempted { state: resume })) => {
                if state.draining {
                    // Drain already flushed the queues; a slice that
                    // lands now gets the same terminal `draining` reply
                    // a queued job would have.
                    inner.stats.drained.fetch_add(1, Ordering::Relaxed);
                    let _ = job.reply.send(reply_draining(&job.request.id));
                } else if job.preemptions >= inner.cfg.max_preemptions {
                    inner.stats.failed.fetch_add(1, Ordering::Relaxed);
                    let _ = job.reply.send(reply_error(
                        Some(&job.request.id),
                        "preempt_limit",
                        &format!(
                            "preempted {} times without completing (max_preemptions={})",
                            job.preemptions + 1,
                            inner.cfg.max_preemptions
                        ),
                    ));
                } else {
                    // Requeue through the delayed set (immediately
                    // ready): like a retry, a job admitted once is never
                    // shed on re-entry — but the attempt number is
                    // unchanged, because nothing failed.
                    inner.stats.preempted.fetch_add(1, Ordering::Relaxed);
                    let seq = state.seq;
                    state.seq += 1;
                    state.delayed.push(Delayed {
                        ready_at: Instant::now(),
                        seq,
                        job: Job {
                            resume: Some(resume),
                            preemptions: job.preemptions + 1,
                            ..job
                        },
                    });
                    inner.cv.notify_one();
                }
            }
            Ok(Err(e)) => {
                if e.code == "watchdog" {
                    inner.stats.watchdogged.fetch_add(1, Ordering::Relaxed);
                }
                if e.transient && job.attempt < inner.cfg.retry.max_attempts && !state.draining {
                    inner.stats.retried.fetch_add(1, Ordering::Relaxed);
                    let delay =
                        backoff_delay(&inner.cfg.retry, job_key(&job.request.id), job.attempt - 1);
                    let seq = state.seq;
                    state.seq += 1;
                    state.delayed.push(Delayed {
                        ready_at: Instant::now() + Duration::from_millis(delay),
                        seq,
                        job: Job {
                            attempt: job.attempt + 1,
                            ..job
                        },
                    });
                    inner.cv.notify_one();
                } else {
                    inner.stats.failed.fetch_add(1, Ordering::Relaxed);
                    let _ = job
                        .reply
                        .send(reply_error(Some(&job.request.id), &e.code, &e.message));
                }
            }
        }
        state.in_flight -= 1;
        inner.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Priority;
    use std::collections::BTreeMap;
    use std::sync::mpsc::channel;

    /// A scriptable runner: job kinds select behaviour.
    struct ScriptRunner;

    impl JobRunner for ScriptRunner {
        fn run(&self, request: &Request, attempt: u32) -> Result<String, JobError> {
            match request.kind.as_str() {
                "ok" => Ok(format!("ran {}", request.id)),
                "panic" => panic!("deliberate test panic"),
                "watchdog" => Err(JobError::permanent("watchdog", "stalled")),
                "flaky2" => {
                    if attempt <= 2 {
                        Err(JobError::transient("hardware_fault", "transient glitch"))
                    } else {
                        Ok(format!("recovered {}", request.id))
                    }
                }
                "always_transient" => Err(JobError::transient("hardware_fault", "never heals")),
                "slow" => {
                    std::thread::sleep(Duration::from_millis(30));
                    Ok("slow done".to_string())
                }
                other => Err(JobError::permanent("unknown_kind", other)),
            }
        }
    }

    fn req(id: &str, kind: &str) -> Request {
        Request {
            id: id.to_string(),
            kind: kind.to_string(),
            priority: Priority::Normal,
            deadline_ms: None,
            chaos: None,
            params: BTreeMap::new(),
        }
    }

    fn quick_cfg() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_capacity: 8,
            retry: RetryConfig {
                max_attempts: 3,
                base_delay_ms: 1,
                max_delay_ms: 4,
                seed: 7,
            },
            max_preemptions: 64,
        }
    }

    #[test]
    fn ok_jobs_reply_ok() {
        let server = Server::new(ScriptRunner, quick_cfg(), &Tracer::off());
        let (tx, rx) = channel();
        assert_eq!(server.submit(req("a", "ok"), &tx), SubmitOutcome::Accepted);
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(reply.contains("\"status\":\"ok\""), "{reply}");
        assert!(reply.contains("\"attempts\":1"), "{reply}");
        let stats = server.shutdown();
        assert_eq!((stats.accepted, stats.ok), (1, 1));
    }

    #[test]
    fn a_panicking_job_kills_neither_workers_nor_siblings() {
        let server = Server::new(ScriptRunner, quick_cfg(), &Tracer::off());
        let (tx, rx) = channel();
        server.submit(req("boom", "panic"), &tx);
        for i in 0..4 {
            server.submit(req(&format!("s{i}"), "ok"), &tx);
        }
        let replies: Vec<String> = (0..5)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        let panics = replies
            .iter()
            .filter(|r| r.contains("\"code\":\"panic\""))
            .count();
        let oks = replies
            .iter()
            .filter(|r| r.contains("\"status\":\"ok\""))
            .count();
        assert_eq!((panics, oks), (1, 4), "{replies:?}");
        let stats = server.shutdown();
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.ok, 4);
        assert_eq!(stats.terminal(), stats.accepted);
    }

    #[test]
    fn transient_failures_retry_until_recovery() {
        let server = Server::new(ScriptRunner, quick_cfg(), &Tracer::off());
        let (tx, rx) = channel();
        server.submit(req("f", "flaky2"), &tx);
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(reply.contains("\"status\":\"ok\""), "{reply}");
        assert!(reply.contains("\"attempts\":3"), "{reply}");
        let stats = server.shutdown();
        assert_eq!(stats.retried, 2);
        assert_eq!(stats.ok, 1);
    }

    #[test]
    fn retries_are_bounded_then_fail_with_the_real_code() {
        let server = Server::new(ScriptRunner, quick_cfg(), &Tracer::off());
        let (tx, rx) = channel();
        server.submit(req("t", "always_transient"), &tx);
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(reply.contains("\"code\":\"hardware_fault\""), "{reply}");
        let stats = server.shutdown();
        assert_eq!(stats.retried, 2, "max_attempts=3 means 2 retries");
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn watchdog_failures_are_counted() {
        let server = Server::new(ScriptRunner, quick_cfg(), &Tracer::off());
        let (tx, rx) = channel();
        server.submit(req("w", "watchdog"), &tx);
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(reply.contains("\"code\":\"watchdog\""), "{reply}");
        let stats = server.shutdown();
        assert_eq!(stats.watchdogged, 1);
    }

    #[test]
    fn overload_sheds_explicitly() {
        // One worker, tiny queue, slow jobs: the burst must shed.
        let server = Server::new(
            ScriptRunner,
            ServerConfig {
                workers: 1,
                queue_capacity: 2,
                ..quick_cfg()
            },
            &Tracer::off(),
        );
        let (tx, rx) = channel();
        let mut outcomes = Vec::new();
        for i in 0..10 {
            outcomes.push(server.submit(req(&format!("b{i}"), "slow"), &tx));
        }
        let shed = outcomes
            .iter()
            .filter(|o| **o == SubmitOutcome::Shed)
            .count();
        assert!(shed > 0, "a 10-job burst into capacity 2 must shed");
        // Every submission resolves: shed replies arrive immediately,
        // accepted ones when their job finishes.
        for _ in 0..10 {
            let _ = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        let stats = server.shutdown();
        assert_eq!(stats.shed as usize, shed);
        assert_eq!(stats.accepted + stats.shed, 10);
        assert_eq!(stats.terminal(), stats.accepted);
    }

    #[test]
    fn drain_rejects_new_flushes_queued_finishes_in_flight() {
        let server = Server::new(
            ScriptRunner,
            ServerConfig {
                workers: 1,
                queue_capacity: 8,
                ..quick_cfg()
            },
            &Tracer::off(),
        );
        let (tx, rx) = channel();
        for i in 0..5 {
            server.submit(req(&format!("d{i}"), "slow"), &tx);
        }
        server.drain();
        assert_eq!(
            server.submit(req("late", "ok"), &tx),
            SubmitOutcome::Draining
        );
        let stats = server.shutdown();
        // 5 accepted; the in-flight one (and any popped before drain)
        // finish, the rest flush; the late one was never accepted.
        assert_eq!(stats.accepted, 5);
        assert_eq!(stats.terminal(), stats.accepted, "{stats:?}");
        assert!(stats.drained >= 1, "{stats:?}");
        assert_eq!(stats.rejected, 1);
        // 5 terminal replies for accepted + 1 draining for the late job.
        let mut replies = Vec::new();
        for _ in 0..6 {
            replies.push(rx.recv_timeout(Duration::from_secs(10)).unwrap());
        }
        assert!(replies.iter().any(|r| r.contains("\"id\":\"late\"")));
    }

    #[test]
    fn expired_deadlines_fail_without_running() {
        let server = Server::new(
            ScriptRunner,
            ServerConfig {
                workers: 1,
                queue_capacity: 8,
                ..quick_cfg()
            },
            &Tracer::off(),
        );
        let (tx, rx) = channel();
        // Head-of-line job holds the single worker long enough for the
        // zero-deadline job behind it to expire in queue.
        server.submit(req("head", "slow"), &tx);
        let mut expired = req("late", "ok");
        expired.deadline_ms = Some(0);
        server.submit(expired, &tx);
        let mut saw_deadline = false;
        for _ in 0..2 {
            let r = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            if r.contains("\"code\":\"deadline\"") {
                saw_deadline = true;
            }
        }
        assert!(saw_deadline);
        let stats = server.shutdown();
        assert_eq!(stats.deadline_expired, 1);
    }

    #[test]
    fn handle_shares_the_server() {
        let server = Server::new(ScriptRunner, quick_cfg(), &Tracer::off());
        let handle = server.handle();
        let (tx, rx) = channel();
        handle.submit(req("h", "ok"), &tx);
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(reply.contains("\"status\":\"ok\""));
        handle.drain();
        handle.await_quiescence();
        assert_eq!(handle.stats().ok, 1);
        let stats = server.shutdown();
        assert_eq!(stats.ok, 1);
    }

    #[test]
    fn stats_json_is_one_line_with_every_counter() {
        let json = StatsSnapshot::default().to_json();
        assert!(!json.contains('\n'));
        for key in [
            "accepted",
            "ok",
            "failed",
            "shed",
            "drained",
            "rejected",
            "retried",
            "panicked",
            "watchdogged",
            "deadline_expired",
            "preempted",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "{json}");
        }
    }

    /// A runner whose `sliced` jobs take `deadline_ms`-many preemptions
    /// to finish: each slice "executes" one unit, checkpoints the count,
    /// and resumes from it.
    struct SliceRunner;

    impl JobRunner for SliceRunner {
        fn run(&self, request: &Request, _attempt: u32) -> Result<String, JobError> {
            Ok(format!("ran {} unsliced", request.id))
        }

        fn run_slice(
            &self,
            request: &Request,
            attempt: u32,
            resume: Option<&[u8]>,
        ) -> Result<RunOutcome, JobError> {
            let Some(units) = request.deadline_ms else {
                return self.run(request, attempt).map(RunOutcome::Done);
            };
            let done = resume.map_or(0, |b| u64::from(b[0]));
            if done + 1 >= units {
                Ok(RunOutcome::Done(format!(
                    "ran {} in {units} slices",
                    request.id
                )))
            } else {
                Ok(RunOutcome::Preempted {
                    state: vec![(done + 1) as u8],
                })
            }
        }
    }

    #[test]
    fn preempted_jobs_resume_from_their_checkpoint_and_finish() {
        let server = Server::new(SliceRunner, quick_cfg(), &Tracer::off());
        let (tx, rx) = channel();
        let mut long = req("long", "sliced");
        long.deadline_ms = Some(4);
        server.submit(long, &tx);
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(reply.contains("ran long in 4 slices"), "{reply}");
        assert!(reply.contains("\"attempts\":1"), "preemption is not retry");
        let stats = server.shutdown();
        assert_eq!(stats.preempted, 3, "4 slices = 3 preemptions");
        assert_eq!((stats.ok, stats.failed), (1, 0));
        assert_eq!(stats.terminal(), stats.accepted);
    }

    #[test]
    fn runaway_preemption_is_bounded() {
        let server = Server::new(
            SliceRunner,
            ServerConfig {
                max_preemptions: 5,
                ..quick_cfg()
            },
            &Tracer::off(),
        );
        let (tx, rx) = channel();
        let mut endless = req("endless", "sliced");
        endless.deadline_ms = Some(u64::MAX);
        server.submit(endless, &tx);
        let reply = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(reply.contains("\"code\":\"preempt_limit\""), "{reply}");
        let stats = server.shutdown();
        assert_eq!(stats.preempted, 5);
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.terminal(), stats.accepted);
    }

    #[test]
    fn accounting_holds_under_preemption_and_drain() {
        // One worker so preempted jobs interleave with fresh ones, then
        // drain mid-flight: every accepted job must still get exactly
        // one terminal reply.
        let server = Server::new(
            SliceRunner,
            ServerConfig {
                workers: 1,
                queue_capacity: 16,
                ..quick_cfg()
            },
            &Tracer::off(),
        );
        let (tx, rx) = channel();
        for i in 0..6 {
            let mut job = req(&format!("p{i}"), "sliced");
            job.deadline_ms = Some(50);
            server.submit(job, &tx);
        }
        server.drain();
        let stats = server.shutdown();
        assert_eq!(stats.accepted, 6);
        assert_eq!(stats.terminal(), stats.accepted, "{stats:?}");
        for _ in 0..6 {
            let _ = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
    }
}
