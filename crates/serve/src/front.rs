//! The asynchronous front door: non-blocking admission with submission
//! batching.
//!
//! [`crate::Server::submit`] blocks the producer while the admission
//! queue is at capacity. [`AsyncFront`] never does: `try_submit`
//! *always* returns a [`Ticket`] once the request validates, and
//! requests the bounded queue cannot take right now are buffered inside
//! the front and flushed — many at a time, under one queue lock
//! (`BoundedQueue::try_push_many`) — as capacity frees up. Producers
//! never block and never see backpressure; the bound still holds
//! because buffered requests only enter the server when the queue has
//! room.
//!
//! **Equivalence contract.** For any submission order, driving requests
//! through the front yields bitwise-identical results and identical
//! [`crate::ServeStats`] accounting to driving the same order through
//! the blocking `submit` path: the front traces `Admit` before
//! buffering exactly as `submit` traces it before pushing, counts
//! `submitted` per request actually handed to the queue, and closes
//! every admitted-but-unpushable request out with a `Reject` trace
//! event, a `rejected` count and a [`ServeError::ShuttingDown`]
//! response. Neither path consults a fault site at admission, so the
//! chaos cursors advance alike downstream. The differential suite in
//! `tests/async_front.rs` pins this down across the chaos schedules.
//!
//! **Terminal contract.** Every `Admit` the front traces is eventually
//! matched by exactly one terminal event: the server's (respond, expire,
//! fail) once pushed, or the front's own `Reject` when the server shuts
//! down before the buffered request could be pushed. Dropping the front
//! flushes what it can and resolves the rest, so no ticket is left
//! dangling and the obs audit's admit/terminal reconciliation holds.

use crate::queue::PushError;
use crate::request::{GemmRequest, ServeError, Ticket};
use crate::server::{Pending, Shared};
use ctb_obs::PointKind;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Non-blocking, buffering admission front over a [`crate::Server`].
/// Obtain one with [`crate::Server::front`]; cheap to create, and
/// several fronts over one server are fine (each owns only its own
/// backlog). The front holds the server's shared state alive, so
/// tickets stay valid even if the `Server` itself is dropped first.
pub struct AsyncFront {
    shared: Arc<Shared>,
    /// Admitted requests the bounded queue had no room for, in
    /// submission order.
    backlog: Mutex<VecDeque<Pending>>,
}

impl AsyncFront {
    pub(crate) fn new(shared: Arc<Shared>) -> Self {
        AsyncFront { shared, backlog: Mutex::new(VecDeque::new()) }
    }

    /// Submit without ever blocking or reporting a full queue: once the
    /// request validates, the producer holds a [`Ticket`] and the front
    /// guarantees a terminal outcome for it.
    /// If the server is shutting down, the ticket resolves to
    /// [`ServeError::ShuttingDown`] rather than the call failing.
    pub fn try_submit(&self, req: GemmRequest) -> Result<Ticket, ServeError> {
        if let Err(m) = req.validate() {
            return Err(ServeError::Invalid(m));
        }
        let id = self.shared.req_ids.fetch_add(1, Ordering::Relaxed);
        // Admit is traced *before* the request is buffered, mirroring
        // the blocking path's trace-before-push: downstream events for
        // this id must never precede its admission in the log.
        let enqueued_us = match self.shared.obs() {
            Some(o) => o.point(PointKind::Admit { req: id }),
            None => 0,
        };
        let (tx, rx) = mpsc::channel();
        let pending = Pending { id, req, tx, enqueued: Instant::now(), enqueued_us };
        let mut backlog = self.lock_backlog();
        backlog.push_back(pending);
        self.flush_locked(&mut backlog);
        Ok(Ticket { rx })
    }

    /// Push as much of the backlog as the queue will take right now.
    /// Returns the number of requests still buffered afterwards.
    pub fn flush(&self) -> usize {
        let mut backlog = self.lock_backlog();
        self.flush_locked(&mut backlog);
        backlog.len()
    }

    /// Requests currently buffered in the front (admitted, not yet in
    /// the server's queue). Monitoring hook; racy by nature.
    pub fn backlog_len(&self) -> usize {
        self.lock_backlog().len()
    }

    fn lock_backlog(&self) -> MutexGuard<'_, VecDeque<Pending>> {
        self.backlog.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Flush under the held backlog lock. Leftovers of a full queue
    /// stay buffered; those of a closed one are resolved as rejected.
    fn flush_locked(&self, backlog: &mut VecDeque<Pending>) {
        let (pushed, err) = self.shared.admission.try_push_many(backlog);
        if pushed > 0 {
            self.shared.stats.submitted.fetch_add(pushed, Ordering::Relaxed);
        }
        if err == Some(PushError::Closed) {
            self.reject_all(backlog);
        }
    }

    /// Close every buffered request out with the same accounting the
    /// blocking path gives a push that fails on a closed queue: a
    /// `Reject` trace event, a `rejected` count, and a `ShuttingDown`
    /// response (undeliverable ones count as abandoned).
    fn reject_all(&self, backlog: &mut VecDeque<Pending>) {
        while let Some(p) = backlog.pop_front() {
            self.shared.reject(p.id);
            self.shared.respond(&p.tx, Err(ServeError::ShuttingDown));
        }
    }
}

impl Drop for AsyncFront {
    /// A dropped front may not strand tickets: flush what fits, then
    /// resolve the rest as `ShuttingDown` so every traced `Admit` still
    /// reaches a terminal event.
    fn drop(&mut self) {
        let mut backlog = self.lock_backlog();
        self.flush_locked(&mut backlog);
        self.reject_all(&mut backlog);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::BoundedQueue;
    use crate::retry::{Breaker, BreakerPolicy};
    use crate::server::{ServeConfig, Server};
    use crate::stats::StatsInner;
    use ctb_core::{Framework, Session};
    use ctb_gpu_specs::ArchSpec;
    use ctb_matrix::MatF32;
    use std::sync::atomic::{AtomicU64, AtomicUsize};

    fn request(seed: u64) -> GemmRequest {
        GemmRequest::new(MatF32::random(16, 8, seed), MatF32::random(8, 12, seed + 1))
    }

    /// A `Shared` with *no* batcher or worker threads: the admission
    /// queue fills deterministically, which is exactly what the
    /// buffering tests need.
    fn standalone_shared(queue_capacity: usize) -> Arc<Shared> {
        Arc::new(Shared {
            cfg: ServeConfig { queue_capacity, ..ServeConfig::default() },
            session: Arc::new(Session::new(Framework::new(ArchSpec::volta_v100()))),
            admission: BoundedQueue::new(queue_capacity),
            jobs: BoundedQueue::new(usize::MAX),
            stats: StatsInner::default(),
            breaker: Breaker::new(BreakerPolicy::default()),
            retry_tokens: AtomicUsize::new(0),
            fault: None,
            obs: None,
            req_ids: AtomicU64::new(0),
        })
    }

    #[test]
    fn front_serves_results_through_a_live_server() {
        let server = Server::new(Framework::new(ArchSpec::volta_v100()), ServeConfig::default());
        let front = server.front();
        let req = request(1);
        let expected_rows = req.c.rows();
        let t = front.try_submit(req).expect("valid request");
        let got = t.wait().expect("served");
        assert_eq!(got.c.rows(), expected_rows);
        assert_eq!(front.backlog_len(), 0, "uncontended push bypasses the backlog");
        let stats = server.shutdown();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.submitted, 1);
    }

    #[test]
    fn invalid_requests_fail_synchronously() {
        let shared = standalone_shared(4);
        let front = AsyncFront::new(shared);
        let bad = GemmRequest {
            b: MatF32::random(9, 12, 2), // K mismatch
            ..request(1)
        };
        assert!(matches!(front.try_submit(bad), Err(ServeError::Invalid(_))));
        assert_eq!(front.backlog_len(), 0);
    }

    #[test]
    fn full_queue_buffers_instead_of_blocking() {
        let shared = standalone_shared(1);
        let front = AsyncFront::new(Arc::clone(&shared));
        let tickets: Vec<Ticket> =
            (0..3).map(|i| front.try_submit(request(i)).expect("admitted")).collect();
        // One in the queue, two buffered — and nothing blocked.
        assert_eq!(shared.admission.len(), 1);
        assert_eq!(front.backlog_len(), 2);
        assert_eq!(shared.stats.submitted.load(Ordering::Relaxed), 1);
        // Freeing a slot lets the next flush hand over the oldest
        // buffered request, preserving submission order.
        let first = shared.admission.pop().expect("queued");
        assert_eq!(first.id, 0);
        assert_eq!(front.flush(), 1);
        assert_eq!(shared.admission.pop().expect("flushed").id, 1);
        assert_eq!(shared.stats.submitted.load(Ordering::Relaxed), 2);
        drop(tickets);
    }

    #[test]
    fn closed_queue_resolves_tickets_as_shutting_down() {
        let shared = standalone_shared(4);
        let front = AsyncFront::new(Arc::clone(&shared));
        shared.admission.close();
        let t = front.try_submit(request(0)).expect("validates before the close matters");
        match t.wait() {
            Err(ServeError::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {:?}", other.map(|r| r.timing)),
        }
        assert_eq!(front.backlog_len(), 0);
        assert_eq!(shared.stats.rejected.load(Ordering::Relaxed), 1);
        assert_eq!(shared.stats.submitted.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn drop_resolves_buffered_tickets() {
        let shared = standalone_shared(1);
        let front = AsyncFront::new(Arc::clone(&shared));
        let t0 = front.try_submit(request(0)).expect("admitted");
        let t1 = front.try_submit(request(2)).expect("admitted");
        assert_eq!(front.backlog_len(), 1);
        drop(front);
        // The queued request is untouched; the buffered one was closed
        // out rather than stranded.
        assert!(t0.poll().is_none(), "queued request still pending server-side");
        match t1.wait() {
            Err(ServeError::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {:?}", other.map(|r| r.timing)),
        }
        assert_eq!(shared.stats.rejected.load(Ordering::Relaxed), 1);
    }
}
