//! Deterministic, seedable fault injection for the serving layer.
//!
//! Production serving code earns its resilience claims only if every
//! failure path can be *driven on demand*: a chaos test that merely
//! hopes for a panic proves nothing. [`FaultInjector`] is the seam the
//! server consults at each failure-capable site — admission, batch
//! expiry, planning, coordinated execution, the degraded baseline path,
//! and worker pacing — and it decides *deterministically* (a counter
//! per site hashed with the schedule seed) whether to inject a fault
//! there.
//!
//! Two properties matter:
//!
//! 1. **Zero cost when absent.** The server stores an
//!    `Option<Arc<FaultInjector>>` that defaults to `None`; every site
//!    is a single `Option` discriminant test on the hot path, and no
//!    counter or hash is ever touched. `reproduce serve` throughput
//!    with the seam compiled in is tracked in `BENCH_serve.json`.
//! 2. **Accountable when present.** Every injected fault is recorded in
//!    the injector's [`FaultLog`], so the chaos suite can assert that
//!    the server's [`crate::ServeStats`] counters reconcile *exactly*
//!    with what was injected — nothing vanishes untracked.
//!
//! Rates are expressed in per-mille (0..=1000). Decisions are a pure
//! function of `(seed, site, n-th draw at that site)`, so a schedule is
//! reproducible run-to-run for a fixed request order, and the *counts*
//! asserted by the chaos suite are meaningful under any interleaving
//! because the log records what actually fired.

use ctb_core::hash::splitmix64;
use ctb_savestate::{savestate_struct, Reader, Savestate, SavestateError, Writer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Panic payload marker used by injected panics, so test harnesses can
/// distinguish scheduled chaos from a genuine executor bug (e.g. to
/// silence the default panic hook for injected faults only).
pub const INJECTED_PANIC_MSG: &str = "ctb-serve injected fault: executor panic";

/// As [`INJECTED_PANIC_MSG`], for the degraded baseline path.
pub const INJECTED_DEGRADED_PANIC_MSG: &str = "ctb-serve injected fault: degraded-path panic";

/// Human-readable panic payload (shared by the server and the cluster
/// layer when surfacing a caught panic as a typed error).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The failure-capable sites the server consults the injector at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum FaultSite {
    /// `try_submit` is forced to report a saturated admission queue.
    AdmitReject = 0,
    /// A deadline-carrying request is expired at batch formation.
    Expire = 1,
    /// `Session::plan` is replaced by a typed planning error.
    PlanFail = 2,
    /// The coordinated executor panics mid-batch.
    ExecPanic = 3,
    /// The degraded (baseline) executor panics.
    DegradedPanic = 4,
    /// The worker stalls for `slow_delay` before planning.
    SlowWorker = 5,
}

const N_SITES: usize = 6;

/// One chaos schedule: a seed plus a per-site injection rate.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Schedule seed; two injectors with equal configs draw identical
    /// per-site decision sequences.
    pub seed: u64,
    /// Forced `QueueFull` rate on `try_submit`, per mille.
    pub admit_reject_per_mille: u32,
    /// Forced expiry rate for deadline-carrying requests, per mille.
    pub expire_per_mille: u32,
    /// Planning-failure rate, per mille.
    pub plan_fail_per_mille: u32,
    /// Coordinated-executor panic rate, per mille.
    pub exec_panic_per_mille: u32,
    /// Degraded-path (baseline) panic rate, per mille.
    pub degraded_panic_per_mille: u32,
    /// Worker-stall rate, per mille.
    pub slow_worker_per_mille: u32,
    /// Stall length when a `SlowWorker` fault fires.
    pub slow_delay: Duration,
}

savestate_struct!(FaultConfig {
    seed,
    admit_reject_per_mille,
    expire_per_mille,
    plan_fail_per_mille,
    exec_panic_per_mille,
    degraded_panic_per_mille,
    slow_worker_per_mille,
    slow_delay,
});

impl FaultConfig {
    /// A quiet schedule (all rates zero) with the given seed; chain the
    /// setters to arm individual fault classes.
    pub fn new(seed: u64) -> Self {
        FaultConfig {
            seed,
            admit_reject_per_mille: 0,
            expire_per_mille: 0,
            plan_fail_per_mille: 0,
            exec_panic_per_mille: 0,
            degraded_panic_per_mille: 0,
            slow_worker_per_mille: 0,
            slow_delay: Duration::from_micros(500),
        }
    }

    pub fn admit_reject(mut self, per_mille: u32) -> Self {
        self.admit_reject_per_mille = per_mille;
        self
    }

    pub fn expire(mut self, per_mille: u32) -> Self {
        self.expire_per_mille = per_mille;
        self
    }

    pub fn plan_fail(mut self, per_mille: u32) -> Self {
        self.plan_fail_per_mille = per_mille;
        self
    }

    pub fn exec_panic(mut self, per_mille: u32) -> Self {
        self.exec_panic_per_mille = per_mille;
        self
    }

    pub fn degraded_panic(mut self, per_mille: u32) -> Self {
        self.degraded_panic_per_mille = per_mille;
        self
    }

    pub fn slow_worker(mut self, per_mille: u32, delay: Duration) -> Self {
        self.slow_worker_per_mille = per_mille;
        self.slow_delay = delay;
        self
    }

    fn rate(&self, site: FaultSite) -> u32 {
        match site {
            FaultSite::AdmitReject => self.admit_reject_per_mille,
            FaultSite::Expire => self.expire_per_mille,
            FaultSite::PlanFail => self.plan_fail_per_mille,
            FaultSite::ExecPanic => self.exec_panic_per_mille,
            FaultSite::DegradedPanic => self.degraded_panic_per_mille,
            FaultSite::SlowWorker => self.slow_worker_per_mille,
        }
    }
}

/// Point-in-time record of every fault the injector has fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultLog {
    pub admit_rejects: usize,
    pub expires: usize,
    pub plan_fails: usize,
    pub exec_panics: usize,
    pub degraded_panics: usize,
    pub slow_workers: usize,
}

impl FaultLog {
    /// Total faults fired across every site.
    pub fn total(&self) -> usize {
        self.admit_rejects
            + self.expires
            + self.plan_fails
            + self.exec_panics
            + self.degraded_panics
            + self.slow_workers
    }
}

/// The deterministic injector. Share it (`Arc`) between the server and
/// the chaos harness; the harness reads the log, the server rolls.
#[derive(Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    draws: [AtomicUsize; N_SITES],
    fired: [AtomicUsize; N_SITES],
}

impl FaultInjector {
    pub fn new(cfg: FaultConfig) -> Self {
        FaultInjector {
            cfg,
            draws: Default::default(),
            fired: Default::default(),
        }
    }

    /// Draw the next decision at `site`: `true` means inject. The n-th
    /// draw at a site is a pure function of `(seed, site, n)`.
    pub fn roll(&self, site: FaultSite) -> bool {
        let rate = self.cfg.rate(site);
        if rate == 0 {
            return false;
        }
        let n = self.draws[site as usize].fetch_add(1, Ordering::Relaxed) as u64;
        let h = splitmix64(
            self.cfg.seed ^ ((site as u64 + 1) << 56) ^ n.wrapping_mul(0xD6E8_FEB8_6659_FD93),
        );
        let hit = h % 1000 < rate as u64;
        if hit {
            self.fired[site as usize].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Roll the slow-worker site, returning the stall to apply.
    pub fn roll_slow(&self) -> Option<Duration> {
        if self.roll(FaultSite::SlowWorker) {
            Some(self.cfg.slow_delay)
        } else {
            None
        }
    }

    /// Snapshot of everything fired so far.
    pub fn log(&self) -> FaultLog {
        let f = |s: FaultSite| self.fired[s as usize].load(Ordering::Relaxed);
        FaultLog {
            admit_rejects: f(FaultSite::AdmitReject),
            expires: f(FaultSite::Expire),
            plan_fails: f(FaultSite::PlanFail),
            exec_panics: f(FaultSite::ExecPanic),
            degraded_panics: f(FaultSite::DegradedPanic),
            slow_workers: f(FaultSite::SlowWorker),
        }
    }

    /// Total decisions drawn at `site` (fired or not).
    pub fn draws(&self, site: FaultSite) -> usize {
        self.draws[site as usize].load(Ordering::Relaxed)
    }
}

/// The config, then the per-site draw and fired cursors in
/// [`FaultSite`] discriminant order. The n-th decision at a site is a
/// pure function of `(seed, site, n)`, so the cursors are all the
/// state there is: a loaded injector continues the exact decision
/// stream the saved one would have drawn next.
impl Savestate for FaultInjector {
    fn save(&self, w: &mut Writer) {
        self.cfg.save(w);
        for v in self.draws.iter().chain(&self.fired) {
            v.load(Ordering::Relaxed).save(w);
        }
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        let inj = FaultInjector::new(FaultConfig::load(r)?);
        for v in inj.draws.iter().chain(&inj.fired) {
            v.store(usize::load(r)?, Ordering::Relaxed);
        }
        Ok(inj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_fires_and_never_counts_draws() {
        let inj = FaultInjector::new(FaultConfig::new(7));
        for _ in 0..100 {
            assert!(!inj.roll(FaultSite::ExecPanic));
        }
        assert_eq!(inj.log(), FaultLog::default());
        assert_eq!(inj.draws(FaultSite::ExecPanic), 0, "quiet sites skip the counter");
    }

    #[test]
    fn full_rate_always_fires() {
        let inj = FaultInjector::new(FaultConfig::new(1).plan_fail(1000));
        for _ in 0..50 {
            assert!(inj.roll(FaultSite::PlanFail));
        }
        assert_eq!(inj.log().plan_fails, 50);
    }

    #[test]
    fn same_seed_same_decision_sequence() {
        let a = FaultInjector::new(FaultConfig::new(42).exec_panic(250));
        let b = FaultInjector::new(FaultConfig::new(42).exec_panic(250));
        let sa: Vec<bool> = (0..200).map(|_| a.roll(FaultSite::ExecPanic)).collect();
        let sb: Vec<bool> = (0..200).map(|_| b.roll(FaultSite::ExecPanic)).collect();
        assert_eq!(sa, sb);
        assert!(sa.iter().any(|&x| x) && sa.iter().any(|&x| !x), "rate 250 mixes hits and misses");
    }

    #[test]
    fn sites_draw_independent_sequences() {
        let inj = FaultInjector::new(FaultConfig::new(9).plan_fail(500).exec_panic(500));
        let plans: Vec<bool> = (0..64).map(|_| inj.roll(FaultSite::PlanFail)).collect();
        let execs: Vec<bool> = (0..64).map(|_| inj.roll(FaultSite::ExecPanic)).collect();
        assert_ne!(plans, execs, "per-site streams are decorrelated");
        let log = inj.log();
        assert_eq!(log.plan_fails, plans.iter().filter(|&&x| x).count());
        assert_eq!(log.exec_panics, execs.iter().filter(|&&x| x).count());
        assert_eq!(log.total(), log.plan_fails + log.exec_panics);
    }

    #[test]
    fn rates_are_roughly_respected() {
        let inj = FaultInjector::new(FaultConfig::new(3).expire(100));
        let fired = (0..2000).filter(|_| inj.roll(FaultSite::Expire)).count();
        // 10% nominal; generous bounds, the stream is only pseudo-random.
        assert!((100..=320).contains(&fired), "got {fired} of 2000 at 10%");
    }

    #[test]
    fn restored_cursors_continue_the_exact_decision_stream() {
        let original =
            FaultInjector::new(FaultConfig::new(0xC0FFEE).exec_panic(300).plan_fail(200));
        // Burn an uneven prefix of draws across two sites.
        for _ in 0..37 {
            original.roll(FaultSite::ExecPanic);
        }
        for _ in 0..11 {
            original.roll(FaultSite::PlanFail);
        }
        let mut w = Writer::new();
        original.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let restored = FaultInjector::load(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(restored.log(), original.log(), "fired counts carry over");
        // Both continue with byte-identical decision streams.
        for _ in 0..100 {
            assert_eq!(
                restored.roll(FaultSite::ExecPanic),
                original.roll(FaultSite::ExecPanic)
            );
            assert_eq!(
                restored.roll(FaultSite::PlanFail),
                original.roll(FaultSite::PlanFail)
            );
        }
        assert_eq!(restored.log(), original.log());
        for site in [FaultSite::ExecPanic, FaultSite::PlanFail] {
            assert_eq!(restored.draws(site), original.draws(site));
        }
    }

    #[test]
    fn roll_slow_returns_the_configured_delay() {
        let d = Duration::from_millis(3);
        let inj = FaultInjector::new(FaultConfig::new(5).slow_worker(1000, d));
        assert_eq!(inj.roll_slow(), Some(d));
        let quiet = FaultInjector::new(FaultConfig::new(5));
        assert_eq!(quiet.roll_slow(), None);
    }
}
