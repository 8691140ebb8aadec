//! Pluggable monotonic clocks for the event bus.
//!
//! Instrumented code never calls [`std::time::Instant`] directly; it
//! reads microseconds through an [`ObsClock`], the installed
//! [`Obs`](crate::Obs)'s ([`Obs::clock`](crate::Obs::clock)) when there
//! is one. Wall-time runs use [`WallClock`]; deterministic tests
//! install a [`SimClock`] they advance by hand, which makes two runs of
//! the same seeded workload produce byte-identical traces.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Monotonic microsecond source. Implementations must never go
/// backwards between two calls observed by the same thread.
pub trait ObsClock: Send + Sync {
    /// Microseconds since the clock's origin.
    fn now_us(&self) -> u64;
}

/// Wall-time clock: microseconds since construction.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    pub fn new() -> Self {
        WallClock { origin: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsClock for WallClock {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }
}

/// Simulated clock: a shared counter the test advances explicitly.
/// Reads never tick it, so a run's timestamps depend only on where the
/// test put the clock — the bedrock of the byte-identical-trace
/// determinism property.
pub struct SimClock {
    now: AtomicU64,
}

impl SimClock {
    pub fn new() -> Self {
        SimClock { now: AtomicU64::new(0) }
    }

    /// Advance the clock by `us` microseconds.
    pub fn advance(&self, us: u64) {
        self.now.fetch_add(us, Ordering::SeqCst);
    }

    /// Jump the clock to an absolute time. Panics on rewind: the bus
    /// relies on monotonicity.
    pub fn set(&self, us: u64) {
        let prev = self.now.swap(us, Ordering::SeqCst);
        assert!(us >= prev, "SimClock::set would rewind time ({us} < {prev})");
    }

    /// Step the clock forward to `us` if that is ahead of the current
    /// reading; a stale or equal target is a no-op. Returns whether the
    /// clock moved. This is the seam the discrete-event engine drives:
    /// the heap pops events in timestamp order, so each pop advances
    /// the shared clock monotonically without ever tripping the
    /// [`set`](Self::set) rewind panic on same-timestamp event runs.
    pub fn advance_to(&self, us: u64) -> bool {
        let mut cur = self.now.load(Ordering::SeqCst);
        while us > cur {
            match self.now.compare_exchange_weak(cur, us, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
        false
    }
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new()
    }
}

impl ObsClock for SimClock {
    fn now_us(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.now_us();
        let b = c.now_us();
        assert!(b >= a);
    }

    #[test]
    fn sim_clock_only_moves_when_told() {
        let c = SimClock::new();
        assert_eq!(c.now_us(), 0);
        assert_eq!(c.now_us(), 0);
        c.advance(250);
        assert_eq!(c.now_us(), 250);
        c.set(1_000);
        assert_eq!(c.now_us(), 1_000);
    }

    #[test]
    #[should_panic(expected = "rewind")]
    fn sim_clock_refuses_to_rewind() {
        let c = SimClock::new();
        c.advance(10);
        c.set(5);
    }

    #[test]
    fn advance_to_is_monotonic_and_idempotent() {
        let c = SimClock::new();
        assert!(c.advance_to(100));
        assert_eq!(c.now_us(), 100);
        // Equal and stale targets are no-ops, never a rewind panic.
        assert!(!c.advance_to(100));
        assert!(!c.advance_to(40));
        assert_eq!(c.now_us(), 100);
        assert!(c.advance_to(101));
        assert_eq!(c.now_us(), 101);
    }
}
