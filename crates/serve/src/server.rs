//! The batched-GEMM server: admission, coalescing, planning, execution,
//! and the resilience layer (panic isolation, retry, degradation).
//!
//! Thread structure (all plain OS threads, spawned at construction):
//!
//! ```text
//!  producers ──submit()──▶ admission queue (bounded, blocking)
//!                               │
//!                          batcher thread
//!                 (batching window, ≤ max_batch, groups
//!                  by (alpha, beta), drops expired)
//!                               │  GemmBatch jobs
//!                          batch queue ◀── per-member retry re-admissions
//!                       ┌───────┴───────┐
//!                   worker 0 … worker W-1
//!            session.plan (shared cache + SimMemo)
//!            execute_plan (packed executor)
//!              │ plan error / panic / open breaker
//!              ▼
//!            degraded per-kernel baseline (ctb-baselines default)
//!                               │
//!                  per-request response channels
//! ```
//!
//! **Backpressure contract:** [`Server::submit`] blocks while the
//! admission queue is at capacity; once it returns `Ok`, the request
//! *will* be completed — by a result (coordinated or degraded), a
//! deadline expiry, or a typed error — even if the server is shut down
//! immediately afterwards. Producers that must not block go through
//! [`Server::front`], which buffers what the queue cannot take yet.
//!
//! **Failure contract:** workers never die and never drop a ticket. A
//! panic anywhere in the planning/execution path is caught at the job
//! boundary ([`std::panic::catch_unwind`]); its batch members are
//! re-admitted individually with bounded exponential backoff, and when
//! retries are exhausted (or planning fails, or the circuit breaker is
//! open) the request executes on the per-kernel default baseline and is
//! tagged [`GemmResult::degraded`]. Only a panic in that last-resort
//! path surfaces as [`ServeError::WorkerPanic`]. Undeliverable
//! responses (requester dropped its ticket) are counted in
//! [`ServeStats::abandoned`], never silently discarded.
//!
//! **Shutdown contract:** [`Server::shutdown`] stops admissions, lets
//! the batcher drain every queued request into batches, lets the
//! workers finish every batch (retries that race the shutdown are
//! resolved inline through the degraded path instead of being
//! re-queued), joins all threads and returns the final [`ServeStats`].
//! Dropping the server without calling `shutdown` does the same,
//! discarding the stats.

use crate::fault::{
    panic_message, FaultInjector, FaultSite, INJECTED_DEGRADED_PANIC_MSG, INJECTED_PANIC_MSG,
};
use crate::queue::BoundedQueue;
use crate::request::{GemmRequest, GemmResult, RequestTiming, ServeError, Ticket};
use crate::retry::{Breaker, BreakerPolicy, RetryPolicy};
use crate::stats::{ServeStats, StatsInner};
use ctb_core::{execute_plan, ExecutionPlan, Framework, Session};
use ctb_matrix::{GemmBatch, MatF32};
use ctb_obs::{Obs, PointKind, SpanKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most requests coalesced into one batch (the paper's `B`).
    pub max_batch: usize,
    /// How long the batcher holds the first request of a batch open for
    /// more arrivals. Zero coalesces only what is already queued.
    pub batch_window: Duration,
    /// Admission-queue bound; `submit` blocks past this.
    pub queue_capacity: usize,
    /// Executor threads consuming coalesced batches.
    pub workers: usize,
    /// Per-request retry/backoff policy for panicked batches.
    pub retry: RetryPolicy,
    /// Circuit-breaker policy for the coordinated path.
    pub breaker: BreakerPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            batch_window: Duration::from_micros(200),
            queue_capacity: 256,
            workers: 2,
            retry: RetryPolicy::default(),
            breaker: BreakerPolicy::default(),
        }
    }
}

/// One admitted request waiting to be batched. Built by the blocking
/// admission path here and by the buffering [`crate::AsyncFront`].
pub(crate) struct Pending {
    /// Server-unique request id; ties the trace's `Admit` event to its
    /// terminal event.
    pub(crate) id: u64,
    pub(crate) req: GemmRequest,
    pub(crate) tx: mpsc::Sender<Result<GemmResult, ServeError>>,
    pub(crate) enqueued: Instant,
    /// Admission time on the observability clock (0 when no bus is
    /// installed). Kept alongside `enqueued` so instrumented runs
    /// measure queue time on the *same* clock the trace records.
    pub(crate) enqueued_us: u64,
}

/// One response route of a coalesced batch.
struct Member {
    id: u64,
    tx: mpsc::Sender<Result<GemmResult, ServeError>>,
    enqueued: Instant,
    enqueued_us: u64,
    /// Times this request has been re-admitted after a worker panic.
    attempts: u32,
}

/// A coalesced batch (or a single-member retry) ready for a worker.
pub(crate) struct Job {
    batch: GemmBatch,
    members: Vec<Member>,
}

pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    pub(crate) session: Arc<Session>,
    pub(crate) admission: BoundedQueue<Pending>,
    pub(crate) jobs: BoundedQueue<Job>,
    pub(crate) stats: StatsInner,
    pub(crate) breaker: Breaker,
    /// Remaining server-lifetime retry budget.
    pub(crate) retry_tokens: AtomicUsize,
    /// The chaos seam; `None` (the default) costs one discriminant test
    /// per site.
    pub(crate) fault: Option<Arc<FaultInjector>>,
    /// The observability seam; `None` (the default) costs one
    /// discriminant test per site, same as `fault`.
    pub(crate) obs: Option<Arc<Obs>>,
    /// Request-id source for trace linkage.
    pub(crate) req_ids: AtomicU64,
}

impl Shared {
    pub(crate) fn roll(&self, site: FaultSite) -> bool {
        match &self.fault {
            Some(f) => f.roll(site),
            None => false,
        }
    }

    /// Claim one retry token; `false` when the budget is spent.
    fn take_retry_token(&self) -> bool {
        let mut cur = self.retry_tokens.load(Ordering::Relaxed);
        while cur > 0 {
            match self.retry_tokens.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
        false
    }

    /// Send a response, counting it as abandoned when the requester has
    /// dropped its ticket. Nothing the server computes vanishes
    /// untracked. Returns the abandoned flag so instrumentation can
    /// record it on the terminal trace event.
    pub(crate) fn respond(
        &self,
        tx: &mpsc::Sender<Result<GemmResult, ServeError>>,
        r: Result<GemmResult, ServeError>,
    ) -> bool {
        let abandoned = tx.send(r).is_err();
        if abandoned {
            self.stats.abandoned.fetch_add(1, Ordering::Relaxed);
        }
        abandoned
    }

    /// Count and trace an admitted request refused because admissions
    /// had stopped: the one accounting both ways in give it.
    pub(crate) fn reject(&self, id: u64) {
        self.stats.rejected.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.obs() {
            o.point(PointKind::Reject { req: id });
        }
    }

    pub(crate) fn obs(&self) -> Option<&Obs> {
        self.obs.as_deref()
    }
}

/// A running batched-GEMM server. Cheap to share: wrap it in an `Arc`
/// and hand clones to every producer thread.
pub struct Server {
    shared: Arc<Shared>,
    batcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Spawn a server owning a fresh [`Session`] around `framework`.
    pub fn new(framework: Framework, cfg: ServeConfig) -> Self {
        Server::with_session(Arc::new(Session::new(framework)), cfg)
    }

    /// Spawn a server over an existing shared session — this is how
    /// several servers (or a server plus offline callers) share one
    /// plan cache and simulation memo.
    pub fn with_session(session: Arc<Session>, cfg: ServeConfig) -> Self {
        Server::build(session, cfg, None, None)
    }

    /// Spawn a server with any combination of the chaos seam and the
    /// observability bus. Every failure-capable site consults `fault`;
    /// keep a clone of the `Arc` to reconcile its [`crate::FaultLog`]
    /// against the final [`ServeStats`]. With `obs`, every hot seam
    /// emits spans and point events, and the bus is also attached to
    /// the session so plan-cache activity lands in the same trace; the
    /// session is taken by value because attaching the bus is a
    /// consuming builder ([`Session::with_obs`]). The chaos suites use
    /// both at once and reconcile the trace against the fault log
    /// exactly.
    pub fn with_instrumentation(
        session: Session,
        cfg: ServeConfig,
        fault: Option<Arc<FaultInjector>>,
        obs: Option<Arc<Obs>>,
    ) -> Self {
        let session = match &obs {
            Some(o) => session.with_obs(Arc::clone(o)),
            None => session,
        };
        Server::build(Arc::new(session), cfg, fault, obs)
    }

    fn build(
        session: Arc<Session>,
        cfg: ServeConfig,
        fault: Option<Arc<FaultInjector>>,
        obs: Option<Arc<Obs>>,
    ) -> Self {
        let shared = Arc::new(Shared {
            admission: BoundedQueue::new(cfg.queue_capacity),
            // The batcher is the only producer besides retry
            // re-admissions, and both are themselves fed from bounded
            // work, so the job queue never needs to push back.
            jobs: BoundedQueue::new(usize::MAX),
            session,
            stats: StatsInner::default(),
            breaker: Breaker::new(cfg.breaker.clone()),
            retry_tokens: AtomicUsize::new(cfg.retry.retry_budget),
            fault,
            obs,
            req_ids: AtomicU64::new(0),
            cfg,
        });

        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || batcher_loop(&shared))
        };
        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        Server { shared, batcher: Some(batcher), workers }
    }

    /// Submit a request, blocking while the admission queue is full.
    /// A server that has stopped admissions refuses it with
    /// [`ServeError::ShuttingDown`].
    pub fn submit(&self, req: GemmRequest) -> Result<Ticket, ServeError> {
        if let Err(m) = req.validate() {
            return Err(ServeError::Invalid(m));
        }
        let id = self.shared.req_ids.fetch_add(1, Ordering::Relaxed);
        // Admit is traced *before* the push: once the pending request is
        // in the queue the batcher can emit downstream events for it,
        // and the log must never show those ahead of the admission. A
        // push refused by a closed queue is closed out with a Reject.
        let enqueued_us = match self.shared.obs() {
            Some(o) => o.point(PointKind::Admit { req: id }),
            None => 0,
        };
        let (tx, rx) = mpsc::channel();
        let pending = Pending { id, req, tx, enqueued: Instant::now(), enqueued_us };
        if self.shared.admission.push(pending).is_err() {
            self.shared.reject(id);
            return Err(ServeError::ShuttingDown);
        }
        self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(Ticket { rx })
    }

    /// Submit and wait — the synchronous convenience path.
    pub fn call(&self, req: GemmRequest) -> Result<GemmResult, ServeError> {
        self.submit(req)?.wait()
    }

    /// An asynchronous, never-blocking front door over this server's
    /// admission queue. Producers get a [`Ticket`] immediately; requests
    /// the queue cannot take right now are buffered in the front and
    /// flushed in submission batches. See [`crate::AsyncFront`].
    pub fn front(&self) -> crate::AsyncFront {
        crate::AsyncFront::new(Arc::clone(&self.shared))
    }

    /// Point-in-time accounting: request/batch/resilience counters plus
    /// the shared session's plan-cache and simulation-memo statistics.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats.snapshot(
            self.shared.session.stats(),
            self.shared.session.sim_stats(),
            self.shared.breaker.is_open(),
        )
    }

    /// The shared planning session (plan cache + simulation memo).
    pub fn session(&self) -> &Arc<Session> {
        &self.shared.session
    }

    /// The attached observability bus, if any.
    pub fn observer(&self) -> Option<&Arc<Obs>> {
        self.shared.obs.as_ref()
    }

    /// Stop accepting new requests without waiting for the drain:
    /// subsequent `submit` calls fail with [`ServeError::ShuttingDown`]
    /// (a front's tickets resolve to it), already-admitted requests keep
    /// flowing. Call [`Server::shutdown`] to drain and join.
    pub fn close(&self) {
        self.shared.admission.close();
    }

    /// Stop admissions, drain every in-flight request, join all threads
    /// and return the final statistics.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        self.shared.admission.close();
        if let Some(b) = self.batcher.take() {
            let _ = b.join();
        }
        debug_assert!(self.shared.admission.is_empty(), "batcher exits only when drained");
        // Only after the batcher has drained the admission queue may the
        // job queue be closed — workers then drain it and exit. Retries
        // racing this close resolve inline through the degraded path.
        self.shared.jobs.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Collect one batching window's worth of requests: the blocking first
/// pop opens the window, then arrivals are added until the window
/// closes, `max_batch` is reached, or the queue reports closed+drained.
/// Returns `None` when the server is fully drained.
fn collect_window(shared: &Shared) -> Option<Vec<Pending>> {
    let first = shared.admission.pop()?;
    // The first pop opens the batching window; the guard's drop at
    // return closes the Coalesce span.
    let _window = shared.obs().map(|o| o.span(SpanKind::Coalesce));
    let deadline = Instant::now() + shared.cfg.batch_window;
    let mut picked = vec![first];
    while picked.len() < shared.cfg.max_batch.max(1) {
        match shared.admission.pop_until(deadline) {
            Ok(Some(p)) => picked.push(p),
            // Closed and drained: ship what we have; the outer loop's
            // next `pop` returns `None` and ends the batcher.
            Ok(None) => break,
            // Window expired.
            Err(_timeout) => break,
        }
    }
    Some(picked)
}

fn batcher_loop(shared: &Shared) {
    while let Some(picked) = collect_window(shared) {
        let now = Instant::now();
        // Expire requests that out-waited their deadline in the queue —
        // plus any the chaos schedule declares expired (deadline storms
        // only strike requests that actually carry a deadline).
        let mut live = Vec::with_capacity(picked.len());
        for p in picked {
            match p.req.deadline {
                Some(d) if now.duration_since(p.enqueued) > d || shared.roll(FaultSite::Expire) => {
                    shared.stats.expired.fetch_add(1, Ordering::Relaxed);
                    let abandoned = shared.respond(&p.tx, Err(ServeError::Expired));
                    if let Some(o) = shared.obs() {
                        o.point(PointKind::Expired { req: p.id, abandoned });
                    }
                }
                _ => live.push(p),
            }
        }
        // Coalesce per (alpha, beta) — GemmBatch carries one scalar
        // pair, so only scalar-compatible requests share a batch.
        // Arrival order is preserved within each group.
        let mut groups: Vec<(u32, u32, Vec<Pending>)> = Vec::new();
        for p in live {
            let key = (p.req.alpha.to_bits(), p.req.beta.to_bits());
            match groups.iter_mut().find(|(a, b, _)| (*a, *b) == key) {
                Some((_, _, g)) => g.push(p),
                None => groups.push((key.0, key.1, vec![p])),
            }
        }
        for (alpha_bits, beta_bits, group) in groups {
            ship_group(shared, f32::from_bits(alpha_bits), f32::from_bits(beta_bits), group);
        }
    }
}

/// Assemble one scalar-compatible group into a `GemmBatch` job.
fn ship_group(shared: &Shared, alpha: f32, beta: f32, group: Vec<Pending>) {
    let mut a = Vec::with_capacity(group.len());
    let mut b = Vec::with_capacity(group.len());
    let mut c = Vec::with_capacity(group.len());
    let mut members = Vec::with_capacity(group.len());
    for p in group {
        a.push(p.req.a);
        b.push(p.req.b);
        c.push(p.req.c);
        members.push(Member {
            id: p.id,
            tx: p.tx,
            enqueued: p.enqueued,
            enqueued_us: p.enqueued_us,
            attempts: 0,
        });
    }
    match GemmBatch::from_parts(a, b, c, alpha, beta) {
        Ok(batch) => {
            // The job queue is effectively unbounded and is only closed
            // after this thread exits (see `shutdown_inner`), so the
            // push cannot fail.
            let pushed = shared.jobs.try_push(Job { batch, members });
            debug_assert!(pushed.is_ok(), "job queue closed while the batcher was live");
        }
        Err(m) => {
            for member in members {
                let abandoned = shared.respond(&member.tx, Err(ServeError::PlanFailed(m.clone())));
                if let Some(o) = shared.obs() {
                    o.point(PointKind::Failed { req: member.id, abandoned });
                }
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.jobs.pop() {
        run_job(shared, job);
    }
}

fn run_job(shared: &Shared, job: Job) {
    // Retried jobs pay their bounded exponential backoff first, in the
    // worker, so the admission path never stalls on a retry.
    let attempt = job.members.iter().map(|m| m.attempts).max().unwrap_or(0);
    if attempt > 0 {
        std::thread::sleep(shared.cfg.retry.backoff_for(attempt));
    }

    let n = job.batch.len();
    let obs = shared.obs();
    let t_plan = Instant::now();
    // When the bus is installed, all reported durations come off its
    // clock so (a) SimClock runs are reproducible and (b) the audit can
    // demand exact equality between `RequestTiming` and the trace.
    let t0_us = obs.map(|o| o.now_us());
    let queue_us: Vec<f64> = match t0_us {
        Some(t0) => job.members.iter().map(|m| t0.saturating_sub(m.enqueued_us) as f64).collect(),
        None => job
            .members
            .iter()
            .map(|m| t_plan.duration_since(m.enqueued).as_secs_f64() * 1e6)
            .collect(),
    };

    // Open breaker: the coordinated path is suspect — go straight to
    // the baseline, consuming one of the breaker's open slots.
    if shared.breaker.consume_open() {
        degrade_job(shared, job, &queue_us, 0.0, n);
        return;
    }

    // Injected worker stall (slow-worker chaos).
    if let Some(f) = &shared.fault {
        if let Some(delay) = f.roll_slow() {
            std::thread::sleep(delay);
        }
    }

    // Plan — panic-isolated, with injected failures folded in as typed
    // planning errors. Any failure degrades the batch to the baseline.
    let planned: Result<Arc<ExecutionPlan>, String> = if shared.roll(FaultSite::PlanFail) {
        Err("injected planning failure".to_string())
    } else {
        match catch_unwind(AssertUnwindSafe(|| shared.session.plan(&job.batch.shapes))) {
            Ok(r) => r,
            Err(payload) => {
                shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = obs {
                    o.point(PointKind::PanicCaught);
                    o.dump_flight("planner panic");
                }
                Err(format!("planner panicked: {}", panic_message(&*payload)))
            }
        }
    };
    let plan = match planned {
        Ok(plan) => plan,
        Err(_m) => {
            shared.stats.plan_failures.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = obs {
                o.point(PointKind::PlanFailure);
            }
            if shared.breaker.record_failure() {
                shared.stats.breaker_trips.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = obs {
                    o.point(PointKind::BreakerTrip);
                    o.dump_flight("breaker trip");
                }
            }
            let plan_us = match (obs, t0_us) {
                (Some(o), Some(t0)) => o.now_us().saturating_sub(t0) as f64,
                _ => t_plan.elapsed().as_secs_f64() * 1e6,
            };
            degrade_job(shared, job, &queue_us, plan_us, n);
            return;
        }
    };

    // Execute — panic-isolated. A panic converts the batch into
    // per-member retries instead of killing the worker. The exec span is
    // opened *outside* the unwind boundary so a panicking batch still
    // gets a closed span in the trace (and in any flight dump).
    let exec_guard = obs.map(|o| o.span(SpanKind::Exec));
    let t_exec = Instant::now();
    let plan_us = match (&exec_guard, t0_us) {
        (Some(g), Some(t0)) => g.begin_us().saturating_sub(t0) as f64,
        _ => t_plan.elapsed().as_secs_f64() * 1e6,
    };
    let inject_panic = shared.roll(FaultSite::ExecPanic);
    let executed = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            // panic_any keeps the payload a &'static str so harnesses
            // can filter injected-fault noise out of the panic hook.
            std::panic::panic_any(INJECTED_PANIC_MSG);
        }
        execute_plan(&job.batch, &plan.plan)
    }));
    match executed {
        Ok(results) => {
            shared.breaker.record_success();
            let (batch_span, exec_us) = match exec_guard {
                Some(g) => {
                    let id = g.id();
                    let (begin, end) = g.finish();
                    (id, end.saturating_sub(begin) as f64)
                }
                None => (0, t_exec.elapsed().as_secs_f64() * 1e6),
            };
            shared.stats.batches.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = obs {
                o.point(PointKind::BatchExecuted { size: n });
            }
            for ((member, c), queue_us) in job.members.into_iter().zip(results).zip(queue_us) {
                let timing = RequestTiming { queue_us, plan_us, exec_us, batch_size: n };
                let total_us = timing.total_us();
                shared.stats.completed.fetch_add(1, Ordering::Relaxed);
                let abandoned =
                    shared.respond(&member.tx, Ok(GemmResult { c, timing, degraded: false }));
                if let Some(o) = obs {
                    o.point(PointKind::Respond {
                        req: member.id,
                        batch: batch_span,
                        degraded: false,
                        abandoned,
                        queue_us,
                        plan_us,
                        exec_us,
                        total_us,
                    });
                }
            }
        }
        Err(_payload) => {
            // Close the span before the dump's mark, so the dump holds
            // the panicking batch's complete exec span.
            if let Some(g) = exec_guard {
                g.finish();
            }
            shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = obs {
                o.point(PointKind::PanicCaught);
            }
            if shared.breaker.record_failure() {
                shared.stats.breaker_trips.fetch_add(1, Ordering::Relaxed);
                if let Some(o) = obs {
                    o.point(PointKind::BreakerTrip);
                }
            }
            if let Some(o) = obs {
                o.dump_flight("worker panic");
            }
            retry_or_degrade(shared, job, &queue_us, plan_us, n);
        }
    }
}

/// Split a panicked batch into its members and give each one its own
/// recovery: re-admission (retry budget and per-request cap allowing)
/// or the degraded baseline. One poisoned request can re-poison at most
/// itself.
fn retry_or_degrade(shared: &Shared, job: Job, queue_us: &[f64], plan_us: f64, n: usize) {
    let Job { batch, members } = job;
    let (alpha, beta) = (batch.alpha, batch.beta);
    for (i, mut member) in members.into_iter().enumerate() {
        member.attempts += 1;
        let single = member_batch(&batch, i, alpha, beta);
        if member.attempts <= shared.cfg.retry.max_retries && shared.take_retry_token() {
            shared.stats.retries.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = shared.obs() {
                o.point(PointKind::Retry { req: member.id });
            }
            let retry = Job { batch: single, members: vec![member] };
            if let Err((_closed, retry)) = shared.jobs.try_push(retry) {
                // Shutdown already closed the job queue: resolve inline
                // rather than dropping the ticket.
                let Job { batch, members } = retry;
                for (j, m) in members.into_iter().enumerate() {
                    degrade_member(
                        shared,
                        &batch,
                        j,
                        m,
                        queue_us.get(i).copied().unwrap_or(0.0),
                        plan_us,
                        n,
                    );
                }
            }
        } else {
            degrade_member(
                shared,
                &single,
                0,
                member,
                queue_us.get(i).copied().unwrap_or(0.0),
                plan_us,
                n,
            );
        }
    }
}

/// Re-wrap one member of a batch as a single-GEMM batch.
fn member_batch(batch: &GemmBatch, i: usize, alpha: f32, beta: f32) -> GemmBatch {
    GemmBatch::from_parts(
        vec![batch.a[i].clone()],
        vec![batch.b[i].clone()],
        vec![batch.c[i].clone()],
        alpha,
        beta,
    )
    .expect("member buffers were validated at admission")
}

/// Serve every member of a job through the degraded baseline.
fn degrade_job(shared: &Shared, job: Job, queue_us: &[f64], plan_us: f64, n: usize) {
    let Job { batch, members } = job;
    for (i, member) in members.into_iter().enumerate() {
        degrade_member(
            shared,
            &batch,
            i,
            member,
            queue_us.get(i).copied().unwrap_or(0.0),
            plan_us,
            n,
        );
    }
}

/// Last-resort execution of one member on the per-kernel default
/// baseline (the paper's Fig 8 reference executor). Panic-isolated like
/// the coordinated path; a panic *here* is terminal and surfaces as the
/// typed [`ServeError::WorkerPanic`].
fn degrade_member(
    shared: &Shared,
    batch: &GemmBatch,
    i: usize,
    member: Member,
    queue_us: f64,
    plan_us: f64,
    n: usize,
) {
    let obs = shared.obs();
    let t_exec = Instant::now();
    let inject_panic = shared.roll(FaultSite::DegradedPanic);
    let arch = shared.session.framework().arch();
    let single = member_batch(batch, i, batch.alpha, batch.beta);
    // Span opened outside the unwind boundary, same as the coordinated
    // path: a panicking baseline still leaves a closed span behind.
    let exec_guard = obs.map(|o| o.span(SpanKind::DegradedExec));
    let out: Result<Vec<MatF32>, _> = catch_unwind(AssertUnwindSafe(|| {
        if inject_panic {
            std::panic::panic_any(INJECTED_DEGRADED_PANIC_MSG);
        }
        ctb_baselines::default_functional(arch, &single)
    }));
    match out {
        Ok(mut results) => {
            let c = results.pop().expect("single-GEMM baseline yields one result");
            let (batch_span, exec_us) = match exec_guard {
                Some(g) => {
                    let id = g.id();
                    let (begin, end) = g.finish();
                    (id, end.saturating_sub(begin) as f64)
                }
                None => (0, t_exec.elapsed().as_secs_f64() * 1e6),
            };
            let timing = RequestTiming { queue_us, plan_us, exec_us, batch_size: n };
            let total_us = timing.total_us();
            shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            shared.stats.degraded.fetch_add(1, Ordering::Relaxed);
            let abandoned =
                shared.respond(&member.tx, Ok(GemmResult { c, timing, degraded: true }));
            if let Some(o) = obs {
                o.point(PointKind::Respond {
                    req: member.id,
                    batch: batch_span,
                    degraded: true,
                    abandoned,
                    queue_us,
                    plan_us,
                    exec_us,
                    total_us,
                });
            }
        }
        Err(payload) => {
            if let Some(g) = exec_guard {
                g.finish();
            }
            shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = obs {
                o.point(PointKind::PanicCaught);
                o.dump_flight("degraded worker panic");
            }
            let abandoned =
                shared.respond(&member.tx, Err(ServeError::WorkerPanic(panic_message(&*payload))));
            if let Some(o) = obs {
                o.point(PointKind::Failed { req: member.id, abandoned });
            }
        }
    }
}
