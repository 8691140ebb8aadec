//! Retry policy, bounded exponential backoff, and the circuit breaker.
//!
//! Failure handling is split between two deterministic, count-based
//! mechanisms (count-based rather than time-based so chaos schedules
//! replay identically regardless of machine speed):
//!
//! * **Per-request retry** ([`RetryPolicy`]) — when a coalesced batch
//!   panics, its members are re-admitted *individually* (a poisoned
//!   request must not take its batch-mates down with it a second time),
//!   each re-admission paying an exponential backoff bounded by
//!   `backoff_cap`. A server-lifetime `retry_budget` caps total
//!   re-admissions so a panic storm cannot amplify itself indefinitely.
//! * **Circuit breaker** ([`BreakerPolicy`], [`Breaker`]) — after
//!   `trip_threshold` consecutive coordinated-path failures the breaker
//!   opens and the next `open_batches` batches bypass planning entirely,
//!   executing on the per-kernel baseline (degraded mode, the paper's
//!   Fig 8 default executor). The breaker then closes and the
//!   coordinated path gets another chance.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Per-request retry with bounded exponential backoff.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Re-admissions allowed per request after its first attempt.
    /// Zero disables retry: a panicked member degrades immediately.
    pub max_retries: u32,
    /// Backoff before retry attempt 1; attempt `n` waits
    /// `backoff_base * 2^(n-1)`, capped at `backoff_cap`.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_cap: Duration,
    /// Server-lifetime cap on total re-admissions across all requests.
    pub retry_budget: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_millis(2),
            retry_budget: 100_000,
        }
    }
}

impl RetryPolicy {
    /// The bounded exponential backoff before retry `attempt` (1-based).
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(20);
        (self.backoff_base * 2u32.pow(shift)).min(self.backoff_cap)
    }
}

/// Consecutive-failure circuit breaker configuration.
#[derive(Debug, Clone)]
pub struct BreakerPolicy {
    /// Consecutive coordinated-path failures (plan errors or executor
    /// panics) that open the breaker. Zero disables the breaker.
    pub trip_threshold: usize,
    /// Batches served degraded (baseline, no planning) while open;
    /// after consuming them the breaker closes again.
    pub open_batches: usize,
}

ctb_savestate::savestate_struct!(BreakerPolicy { trip_threshold, open_batches });

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy { trip_threshold: 8, open_batches: 16 }
    }
}

/// Breaker state: lock-free, shared by every worker (public so the
/// cluster layer can run one breaker per device over the same policy).
#[derive(Debug)]
pub struct Breaker {
    policy: BreakerPolicy,
    consecutive: AtomicUsize,
    open_remaining: AtomicUsize,
}

impl Breaker {
    pub fn new(policy: BreakerPolicy) -> Self {
        Breaker { policy, consecutive: AtomicUsize::new(0), open_remaining: AtomicUsize::new(0) }
    }

    /// Record a coordinated-path failure; `true` when this failure
    /// tripped the breaker open (the caller counts the trip).
    pub fn record_failure(&self) -> bool {
        if self.policy.trip_threshold == 0 {
            return false;
        }
        let seen = self.consecutive.fetch_add(1, Ordering::Relaxed) + 1;
        if seen >= self.policy.trip_threshold && !self.is_open() {
            self.consecutive.store(0, Ordering::Relaxed);
            self.open_remaining.store(self.policy.open_batches, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// A coordinated-path success resets the consecutive-failure run.
    pub fn record_success(&self) {
        self.consecutive.store(0, Ordering::Relaxed);
    }

    /// If open, consume one degraded-batch slot and return `true` (the
    /// batch must be served on the baseline). The last consumed slot
    /// closes the breaker.
    pub fn consume_open(&self) -> bool {
        let mut cur = self.open_remaining.load(Ordering::Relaxed);
        while cur > 0 {
            match self.open_remaining.compare_exchange_weak(
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

    pub fn is_open(&self) -> bool {
        self.open_remaining.load(Ordering::Relaxed) > 0
    }

    /// Observable breaker state `(consecutive failures, open slots
    /// remaining)` — with the policy, everything needed to rebuild the
    /// breaker mid-run (savestate serialization view).
    pub fn state(&self) -> (usize, usize) {
        (self.consecutive.load(Ordering::Relaxed), self.open_remaining.load(Ordering::Relaxed))
    }

    /// Rebuild a breaker mid-run from [`Breaker::state`] (savestate
    /// restore): same policy, same failure run, same open slots.
    pub fn restore(policy: BreakerPolicy, (consecutive, open_remaining): (usize, usize)) -> Self {
        Breaker {
            policy,
            consecutive: AtomicUsize::new(consecutive),
            open_remaining: AtomicUsize::new(open_remaining),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy {
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_micros(350),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_for(1), Duration::from_micros(100));
        assert_eq!(p.backoff_for(2), Duration::from_micros(200));
        assert_eq!(p.backoff_for(3), Duration::from_micros(350), "capped");
        assert_eq!(p.backoff_for(30), Duration::from_micros(350), "huge attempts stay capped");
    }

    #[test]
    fn breaker_trips_after_threshold_consecutive_failures() {
        let b = Breaker::new(BreakerPolicy { trip_threshold: 3, open_batches: 2 });
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.record_failure(), "third consecutive failure trips");
        assert!(b.is_open());
        assert!(b.consume_open());
        assert!(b.consume_open());
        assert!(!b.is_open(), "open slots consumed, breaker closed");
        assert!(!b.consume_open());
    }

    #[test]
    fn success_resets_the_run() {
        let b = Breaker::new(BreakerPolicy { trip_threshold: 2, open_batches: 1 });
        assert!(!b.record_failure());
        b.record_success();
        assert!(!b.record_failure(), "run restarted by the success");
        assert!(b.record_failure());
    }

    #[test]
    fn zero_threshold_disables_the_breaker() {
        let b = Breaker::new(BreakerPolicy { trip_threshold: 0, open_batches: 4 });
        for _ in 0..50 {
            assert!(!b.record_failure());
        }
        assert!(!b.is_open());
    }

    #[test]
    fn restored_breaker_continues_mid_run() {
        let policy = BreakerPolicy { trip_threshold: 3, open_batches: 4 };
        let b = Breaker::new(policy.clone());
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), (2, 0));
        let r = Breaker::restore(policy.clone(), b.state());
        assert!(r.record_failure(), "third failure after restore trips");
        assert!(r.is_open());
        // An open breaker round-trips its remaining slots too.
        let r2 = Breaker::restore(policy, r.state());
        assert_eq!(r2.state(), r.state());
        for _ in 0..4 {
            assert!(r2.consume_open());
        }
        assert!(!r2.is_open());
    }

    #[test]
    fn failures_while_open_do_not_retrip() {
        let b = Breaker::new(BreakerPolicy { trip_threshold: 1, open_batches: 3 });
        assert!(b.record_failure(), "first failure trips");
        assert!(!b.record_failure(), "already open: no second trip counted");
        assert!(b.consume_open());
    }
}
