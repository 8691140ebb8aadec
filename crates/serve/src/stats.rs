//! Server-wide counters and the [`ServeStats`] snapshot.

use ctb_core::CacheStats;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Point-in-time view of the server's accounting: counters and the
/// shared session's cache statistics. It holds no latency: what each
/// request paid comes back on its response
/// ([`crate::GemmResult::timing`]) and, with a bus installed, on the
/// trace's `Respond` point.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Requests accepted into the admission queue.
    pub submitted: usize,
    /// Admitted requests refused because admissions had stopped: a
    /// `submit` that found the queue closed, or a request the async
    /// front still held when the server shut down.
    pub rejected: usize,
    /// Requests completed with [`crate::ServeError::Expired`].
    pub expired: usize,
    /// Requests completed with a result (coordinated or degraded).
    pub completed: usize,
    /// Coalesced batches executed on the coordinated path.
    pub batches: usize,
    /// `completed / batches` (0 when idle) — the coalescing payoff.
    /// Degraded completions inflate this slightly; `degraded` says by
    /// how much.
    pub mean_batch_size: f64,
    /// Re-admissions of individual members after a worker panic.
    pub retries: usize,
    /// Worker panics caught by the isolation boundary (coordinated
    /// executor, planner, or degraded path — the worker survives all).
    pub worker_panics: usize,
    /// Planning failures observed (real or injected); each one routes
    /// its batch to the degraded baseline.
    pub plan_failures: usize,
    /// Requests completed through the degraded per-kernel baseline.
    pub degraded: usize,
    /// Responses the server computed but could not deliver because the
    /// requester had dropped its ticket. Every undeliverable response —
    /// results, expiries, errors — is counted here, never silently lost.
    pub abandoned: usize,
    /// Times the circuit breaker tripped open.
    pub breaker_trips: usize,
    /// Whether the breaker was open (serving degraded) at snapshot time.
    pub breaker_open: bool,
    /// Shared-session plan cache (hits = re-used shape signatures).
    pub plan_cache: CacheStats,
    /// Candidate-simulation memo behind the planner.
    pub sim_memo: CacheStats,
}

/// Internal mutable counters.
#[derive(Debug, Default)]
pub struct StatsInner {
    pub submitted: AtomicUsize,
    pub rejected: AtomicUsize,
    pub expired: AtomicUsize,
    pub completed: AtomicUsize,
    pub batches: AtomicUsize,
    pub retries: AtomicUsize,
    pub worker_panics: AtomicUsize,
    pub plan_failures: AtomicUsize,
    pub degraded: AtomicUsize,
    pub abandoned: AtomicUsize,
    pub breaker_trips: AtomicUsize,
}

impl StatsInner {
    /// Snapshot the counters together with the session's plan-cache and
    /// memo statistics and the breaker's point-in-time state.
    pub fn snapshot(
        &self,
        plan_cache: CacheStats,
        sim_memo: CacheStats,
        breaker_open: bool,
    ) -> ServeStats {
        let completed = self.completed.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            completed,
            batches,
            mean_batch_size: if batches == 0 { 0.0 } else { completed as f64 / batches as f64 },
            retries: self.retries.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            plan_failures: self.plan_failures.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            abandoned: self.abandoned.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_open,
            plan_cache,
            sim_memo,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_computes_mean_batch_size() {
        let inner = StatsInner::default();
        inner.completed.store(12, Ordering::Relaxed);
        inner.batches.store(4, Ordering::Relaxed);
        let s = inner.snapshot(CacheStats::default(), CacheStats::default(), false);
        assert_eq!(s.mean_batch_size, 3.0);
        assert!(!s.breaker_open);
    }

    #[test]
    fn snapshot_carries_resilience_counters() {
        let inner = StatsInner::default();
        inner.retries.store(3, Ordering::Relaxed);
        inner.worker_panics.store(2, Ordering::Relaxed);
        inner.plan_failures.store(4, Ordering::Relaxed);
        inner.degraded.store(5, Ordering::Relaxed);
        inner.abandoned.store(1, Ordering::Relaxed);
        inner.breaker_trips.store(6, Ordering::Relaxed);
        let s = inner.snapshot(CacheStats::default(), CacheStats::default(), true);
        assert_eq!(
            (s.retries, s.worker_panics, s.plan_failures, s.degraded, s.abandoned, s.breaker_trips),
            (3, 2, 4, 5, 1, 6)
        );
        assert!(s.breaker_open);
    }
}
