//! Device-level chaos suite: PR 3's deterministic fault machinery
//! composed with multi-device routing, on the discrete-event engine.
//!
//! The contracts under fire:
//!
//! 1. **Zero drops** — every admitted batch completes, whatever one
//!    device's injector does to it.
//! 2. **Bitwise exactness** — every request is a witness
//!    (`witness_every: 1`): it executes for real on whichever device or
//!    degraded baseline finished it and must equal
//!    `GemmBatch::reference_result_exact` for its own inputs.
//! 3. **Failover accounting** — breaker trips, re-routes, kills and
//!    residency landings are visible in [`ClusterStats`], reconcile
//!    with the trace ([`TraceAudit`]) and with the injectors' own
//!    [`FaultLog`]s using `==`, and agree with per-request provenance.
//!
//! Every schedule is a pure function of its seeds, so each assertion is
//! a fact about one deterministic run, not a bound on OS scheduling.

use ctb_cluster::{
    ClusterStats, EngineReport, EventCluster, EventConfig, ReqOutcome, SimTime, StealPolicy,
};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use ctb_obs::{Obs, TraceAudit, TraceCounts};
use ctb_serve::{BreakerPolicy, FaultConfig, FaultInjector, FaultLog};
use std::sync::Arc;
use std::time::Duration;

/// Arrival gap of a burst: every request arrives at t = 0.
const BURST: u64 = 0;
/// Arrival gap of a closed loop: every request (and its re-route chain)
/// retires before the next one arrives.
const CLOSED_LOOP: u64 = 1_000_000_000;

fn pool() -> Vec<ArchSpec> {
    ArchSpec::pool_presets(2)
}

fn injector(cfg: FaultConfig) -> Option<Arc<FaultInjector>> {
    Some(Arc::new(FaultInjector::new(cfg)))
}

/// The 3-signature batch mix every chaos schedule drives.
fn mix_shapes(i: usize) -> Arc<[GemmShape]> {
    let shape_mix: [&[GemmShape]; 3] = [
        &[GemmShape::new(96, 96, 384); 2],
        &[GemmShape::new(48, 64, 96), GemmShape::new(16, 32, 640)],
        &[GemmShape::new(128, 32, 32); 4],
    ];
    shape_mix[i % shape_mix.len()].into()
}

/// Audit the trace's structural invariants, then reconcile its counts
/// against the final stats with `==` — no tolerances.
fn audit_and_reconcile(obs: &Obs, stats: &ClusterStats) -> TraceCounts {
    let counts = TraceAudit::new(obs.events()).check().expect("trace invariants hold");
    assert_eq!(counts.terminals(), counts.admits, "one terminal event per admitted batch");
    assert_eq!(counts.admits - counts.rejects, stats.submitted, "admits vs submitted");
    assert_eq!(counts.batch_done, stats.completed, "batch-done events vs completed");
    assert_eq!(counts.batch_done_degraded, stats.degraded, "degraded events vs degraded");
    assert_eq!(counts.routed, stats.routed, "routed events vs routed");
    assert_eq!(counts.steals, stats.steals, "steal events vs steals");
    assert_eq!(counts.reroutes, stats.reroutes, "reroute events vs reroutes");
    assert_eq!(counts.kills, stats.kills, "kill events vs kills");
    assert_eq!(counts.panics_caught, stats.worker_panics, "panic events vs worker_panics");
    assert_eq!(counts.plan_failures, stats.plan_failures, "plan-failure events vs plan_failures");
    assert_eq!(counts.breaker_trips, stats.breaker_trips, "breaker events vs breaker_trips");
    assert_eq!(counts.plan_cache_hits, stats.plan_cache.hits, "cache-hit events vs plan cache");
    assert_eq!(
        counts.plan_cache_misses, stats.plan_cache.misses,
        "cache-miss events vs plan cache"
    );
    assert_eq!(counts.residency_hits, stats.residency_hits, "residency-hit events");
    assert_eq!(counts.residency_misses, stats.residency_misses, "residency-miss events");
    counts
}

/// The injectors' own accounting agrees with the engine's: every fired
/// plan failure is a counted plan failure, every fired exec or degraded
/// panic a caught panic.
fn reconcile_fault_logs(logs: &[Option<FaultLog>], stats: &ClusterStats) {
    let fired = |f: fn(&FaultLog) -> usize| logs.iter().flatten().map(f).sum::<usize>();
    assert_eq!(fired(|l| l.plan_fails), stats.plan_failures, "plan failures vs fault logs");
    assert_eq!(
        fired(|l| l.exec_panics + l.degraded_panics),
        stats.worker_panics,
        "caught panics vs fault logs"
    );
}

struct Run {
    report: EngineReport,
    counts: TraceCounts,
}

/// Drive `n` mixed requests through an instrumented engine, arriving
/// `gap_ns` apart from t = 1 ns, with an optional `(at, device)` kill.
/// Every request is witnessed; the trace and the fault logs must
/// reconcile with the final stats.
fn run(
    pool: Vec<ArchSpec>,
    cfg: EventConfig,
    faults: Vec<Option<Arc<FaultInjector>>>,
    n: usize,
    gap_ns: u64,
    kill: Option<(SimTime, usize)>,
) -> Run {
    assert_eq!(cfg.witness_every, 1, "chaos runs witness every request");
    let (mut eng, obs) = EventCluster::with_instrumentation(pool, cfg, faults);
    for i in 0..n {
        eng.submit_at(SimTime(1 + i as u64 * gap_ns), mix_shapes(i), i as u64);
    }
    if let Some((at, device)) = kill {
        eng.kill_at(at, device);
    }
    let report = eng.run();
    assert_eq!(report.requests, n);
    assert_eq!(report.witnesses, n, "every request is a witness");
    assert_eq!(report.witness_mismatches, 0, "every result is bitwise-exact");
    let counts = audit_and_reconcile(&obs, &report.stats);
    reconcile_fault_logs(&eng.fault_logs(), &report.stats);
    Run { report, counts }
}

/// `(device, degraded, reroutes)` of every request, in completion order.
fn done(report: &EngineReport) -> Vec<(usize, bool, u32)> {
    report
        .outcomes
        .iter()
        .map(|o| match o {
            ReqOutcome::Done { device, degraded, reroutes, .. } => (*device, *degraded, *reroutes),
            other => panic!("chaos schedules complete every request, got {other:?}"),
        })
        .collect()
}

#[test]
fn breaker_opens_mid_load_with_zero_drops_and_exact_results() {
    // Device 0 fails every planning attempt at run time (placement-time
    // predictions stay clean, so the placer keeps offering it work until
    // its breaker trips). Every batch must still complete bitwise-exact
    // on the survivor.
    let cfg = EventConfig {
        breaker: BreakerPolicy { trip_threshold: 3, open_batches: 8 },
        ..EventConfig::default()
    };
    let faults = vec![injector(FaultConfig::new(0xA11CE).plan_fail(1000)), None];
    let Run { report, .. } = run(pool(), cfg, faults, 24, BURST, None);
    let stats = &report.stats;

    assert_eq!(stats.completed, 24, "zero drops");
    assert!(stats.breaker_trips >= 1, "constant plan failures must trip the breaker");
    assert_eq!(stats.devices[0].breaker_trips, stats.breaker_trips);
    assert!(stats.reroutes >= 1, "failed batches must move to the survivor");
    assert_eq!(stats.devices[0].completed, 0, "device 0 never completes a batch");
    // Every coordinated completion happened on the healthy device.
    for (device, degraded, _) in done(&report) {
        assert!(degraded || device == 1);
    }
    assert!(stats.plan_failures >= 3, "the trips were caused by observed failures");
}

#[test]
fn exec_panic_storm_on_one_device_is_contained() {
    // Device 0 panics mid-execution 40% of the time. Panicked batches
    // re-route, results stay exact, and the healthy device is never
    // poisoned.
    let cfg = EventConfig {
        breaker: BreakerPolicy { trip_threshold: 6, open_batches: 4 },
        ..EventConfig::default()
    };
    let faults = vec![injector(FaultConfig::new(0x5EED).exec_panic(400)), None];
    let Run { report, .. } = run(pool(), cfg, faults, 30, BURST, None);
    let stats = &report.stats;

    assert_eq!(stats.completed, 30, "zero drops under a panic storm");
    assert!(stats.worker_panics >= 1, "the storm must actually fire");
    let rerouted = done(&report).iter().filter(|(_, _, r)| *r > 0).count();
    assert!(rerouted >= 1, "panicked batches must re-route");
    assert!(
        stats.worker_panics <= stats.reroutes + stats.degraded,
        "every caught panic is either re-routed or degraded"
    );
}

#[test]
fn kill_device_mid_load_reroutes_everything() {
    // A 16-batch burst arrives at t = 1 ns; device 0 (the V100) is
    // killed at t = 2 ns, after every placement and while it runs
    // exactly one batch. That batch retires on the killed device, every
    // batch queued behind it moves to the survivor, and nothing is
    // dropped or inexact.
    let cfg = EventConfig {
        steal: StealPolicy { enabled: false, ..StealPolicy::default() },
        ..EventConfig::default()
    };
    let Run { report, counts } =
        run(pool(), cfg, vec![None, None], 16, BURST, Some((SimTime(2), 0)));
    let stats = &report.stats;
    let dead = &stats.devices[0];

    assert_eq!(stats.completed, 16, "every batch resolved");
    assert_eq!((stats.kills, counts.kills), (1, 1), "the kill is visible in the trace");
    assert_eq!(counts.batch_done, 16, "the trace closes every admitted batch");
    assert!(!dead.alive);
    assert!(dead.placements > 1, "the kill must find queued work");
    assert_eq!(dead.completed, 1, "exactly the in-flight batch retires on the killed device");
    assert_eq!(dead.reroutes_out, dead.placements - 1, "every queued batch moved");
    assert_eq!(stats.reroutes, dead.reroutes_out);
    assert_eq!((stats.devices[1].completed, stats.degraded), (15, 0));
    // Per-request provenance agrees: one unmoved batch on the corpse,
    // one re-route for each batch that was waiting behind it.
    let outcomes = done(&report);
    assert_eq!(outcomes.iter().filter(|(d, _, r)| *d == 0 && *r == 0).count(), 1);
    assert_eq!(outcomes.iter().filter(|(d, _, r)| *d == 1 && *r == 1).count(), dead.reroutes_out);
}

#[test]
fn chaos_on_every_device_still_serves_exactly() {
    // Both devices are unreliable (different seeds, different fault
    // mixes). The pool as a whole must still complete everything
    // bitwise-exact — the degraded baseline is the terminal guarantee.
    let cfg = EventConfig {
        breaker: BreakerPolicy { trip_threshold: 4, open_batches: 4 },
        max_reroutes: 2,
        ..EventConfig::default()
    };
    let faults = vec![
        injector(FaultConfig::new(0xD00D).plan_fail(250).exec_panic(150)),
        injector(
            FaultConfig::new(0xF00D).exec_panic(250).slow_worker(100, Duration::from_micros(300)),
        ),
    ];
    let Run { report, .. } = run(pool(), cfg, faults, 32, BURST, None);
    let stats = &report.stats;
    assert_eq!(stats.completed, 32, "zero drops with every device unreliable");
    assert!(
        stats.worker_panics + stats.plan_failures >= 1,
        "the chaos schedules must actually fire"
    );
}

#[test]
fn fault_free_pool_never_fails_over() {
    // No faults at all: nothing re-routes, trips or degrades, and every
    // prediction reconciles exactly with execution.
    let Run { report, .. } =
        run(pool(), EventConfig::default(), vec![None, None], 18, CLOSED_LOOP, None);
    let stats = &report.stats;
    assert_eq!(stats.completed, 18);
    assert_eq!((stats.reroutes, stats.breaker_trips, stats.degraded), (0, 0, 0));
    assert_eq!(stats.mean_abs_placement_err_us, 0.0);
}

#[test]
fn multi_chiplet_chaos_with_locality() {
    // A B200 / H100 / MCM-GPU pool (two of the three devices
    // multi-chiplet) with locality-aware ranking on (the default) and
    // injected panics + plan failures forcing re-routes across the
    // interposer boundary. Every landing is classified and reconciled
    // against the trace.
    let cfg = EventConfig {
        breaker: BreakerPolicy { trip_threshold: 4, open_batches: 4 },
        max_reroutes: 2,
        ..EventConfig::default()
    };
    assert!(cfg.locality.enabled, "locality ranking defaults on");
    let faults = vec![
        None,
        injector(FaultConfig::new(0xC419).exec_panic(250)),
        injector(FaultConfig::new(0x1E7).plan_fail(150).exec_panic(100)),
    ];
    let Run { report, .. } =
        run(ArchSpec::chiplet_pool_presets(3), cfg, faults, 30, CLOSED_LOOP, None);
    let stats = &report.stats;
    assert_eq!(stats.completed, 30);
    assert!(stats.worker_panics + stats.plan_failures >= 1, "the faults must fire");
    // The schedule must actually exercise the locality machinery.
    assert!(stats.residency_misses > 0, "no operands were ever staged");
    assert!(stats.residency_hits > 0, "no placement ever re-used a resident device");
    assert!(stats.remote_operand_bytes > 0, "chiplet pool never charged remote traffic");
    assert_eq!(
        stats.residency_hits + stats.residency_misses,
        stats.routed + stats.steals,
        "every landing is classified"
    );
}
