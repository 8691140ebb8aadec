//! Routing-correctness suite: the sim-cost placer must send work where
//! the paper's hardware model says it belongs.
//!
//! These tests pin the *policy*: on the discrete-event engine a
//! placement is a pure function of the per-arch cost model, the device
//! backlogs and the arrival order, so every routing outcome is exact.
//! The stealing tests arrange a stalled victim (an injected slow-worker
//! stall, charged in simulated time) next to an idle thief explicitly.
//! Every request is a witness, executed for real and checked bit for
//! bit against its exact oracle.

use ctb_cluster::{EngineReport, EventCluster, EventConfig, ReqOutcome, SimTime, StealPolicy};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use ctb_serve::{FaultConfig, FaultInjector};
use std::sync::Arc;
use std::time::Duration;

/// Arrival gap of sequential submissions: every request retires long
/// before the next one arrives.
const SEQUENTIAL: u64 = 1_000_000_000;
/// Arrival gap of a burst: everything arrives at t = 0.
const BURST: u64 = 0;

fn two_device_pool() -> Vec<ArchSpec> {
    let pool = ArchSpec::pool_presets(2);
    assert_eq!(pool[0].name, "Tesla V100");
    assert_eq!(pool[1].name, "Titan Xp");
    pool
}

/// Drive `n` requests of `shapes` (data seeds `0..n`), `gap_ns` apart,
/// through `pool`; every request must complete bitwise-exact.
fn run(
    pool: Vec<ArchSpec>,
    cfg: EventConfig,
    faults: Vec<Option<Arc<FaultInjector>>>,
    shapes: &[GemmShape],
    n: usize,
    gap_ns: u64,
) -> EngineReport {
    let mut eng = EventCluster::with_faults(pool, cfg, faults);
    let shapes: Arc<[GemmShape]> = shapes.into();
    for i in 0..n {
        eng.submit_at(SimTime(i as u64 * gap_ns), Arc::clone(&shapes), i as u64);
    }
    let report = eng.run();
    assert_eq!(report.stats.completed, n, "zero drops");
    assert_eq!(report.witnesses, n, "every request is a witness");
    assert_eq!(report.witness_mismatches, 0, "every result is bitwise-exact");
    report
}

/// `(device, stolen, reroutes)` of every request, in completion order.
fn done(report: &EngineReport) -> Vec<(usize, bool, u32)> {
    report
        .outcomes
        .iter()
        .map(|o| match o {
            ReqOutcome::Done { device, degraded: false, stolen, reroutes, .. } => {
                (*device, *stolen, *reroutes)
            }
            other => panic!("fault-free routing completes on the coordinated path, got {other:?}"),
        })
        .collect()
}

/// The cost model's prediction for `shapes` on `arch`: the makespan of
/// a one-device run, since an unmoved batch charges exactly its
/// predicted time.
fn predicted_us(arch: &ArchSpec, shapes: &[GemmShape]) -> f64 {
    let report = run(vec![arch.clone()], EventConfig::default(), vec![None], shapes, 1, BURST);
    assert_eq!(report.stats.mean_abs_placement_err_us, 0.0);
    report.stats.makespan_sim_us
}

#[test]
fn compute_bound_large_k_batch_routes_to_v100() {
    // A deep-K compute-bound batch: the V100's higher peak dominates
    // its prediction, so an idle pool must place it there.
    let pool = two_device_pool();
    let shapes = [GemmShape::new(128, 128, 1024); 4];
    let pred_v100 = predicted_us(&pool[0], &shapes);
    let pred_titan = predicted_us(&pool[1], &shapes);
    assert!(
        pred_v100 < pred_titan,
        "cost model must favour V100 for compute-bound work ({pred_v100} vs {pred_titan})"
    );

    let report = run(pool, EventConfig::default(), vec![None, None], &shapes, 1, BURST);
    assert_eq!(done(&report), vec![(0, false, 0)], "must land on the V100, unmoved");
    assert_eq!(report.stats.devices[0].placements, 1);
    assert_eq!(report.stats.devices[1].placements, 0);
}

#[test]
fn tiny_launch_dominated_batches_never_cross_devices() {
    // A tiny batch is launch-overhead-dominated; the V100's lower
    // launch cost wins every placement, and sequential submissions on
    // an idle pool leave nothing worth stealing — the batch must not
    // bounce between devices.
    let report = run(
        two_device_pool(),
        EventConfig::default(),
        vec![None, None],
        &[GemmShape::new(8, 8, 8)],
        6,
        SEQUENTIAL,
    );
    assert!(
        done(&report).iter().all(|&d| d == (0, false, 0)),
        "a tiny batch crossed devices: {:?}",
        done(&report)
    );
    assert_eq!(report.stats.steals, 0);
    assert_eq!(report.stats.reroutes, 0);
    assert_eq!(report.stats.devices[1].placements, 0, "all tiny batches stay on the V100");
}

#[test]
fn saturated_pool_spreads_load_by_predicted_completion() {
    // A burst larger than any single device's appetite: backlog-aware
    // argmin placement must use both devices, in rough proportion to
    // their predicted speeds (V100 strictly more than the Titan Xp).
    let report = run(
        two_device_pool(),
        EventConfig::default(),
        vec![None, None],
        &[GemmShape::new(96, 96, 256); 4],
        12,
        BURST,
    );
    let stats = &report.stats;
    let (v100, titan) = (&stats.devices[0], &stats.devices[1]);
    assert!(v100.placements > 0, "the fast device must take work");
    assert!(titan.placements + titan.steals > 0, "the burst must spill off the V100");
    assert!(
        v100.completed + v100.steals >= titan.completed,
        "the faster device should carry at least as much of the burst \
         (V100 {} vs Titan Xp {})",
        v100.completed,
        titan.completed
    );
    // Both devices contributed simulated work, so the pool's makespan
    // beats serializing everything on one device.
    assert!(stats.makespan_sim_us < stats.total_sim_us);
}

/// Device 0 (V100) stalls `stall` of simulated time per batch.
fn stalled_v100(seed: u64, stall: Duration) -> Vec<Option<Arc<FaultInjector>>> {
    let f = FaultInjector::new(FaultConfig::new(seed).slow_worker(1000, stall));
    vec![Some(Arc::new(f)), None]
}

#[test]
fn idle_device_steals_from_a_stalled_victim() {
    // Device 0 (V100) stalls 25 ms per batch while the batches
    // themselves are tiny, so its queue holds predicted backlog long
    // after device 1 drains and goes idle. Once the V100's backlog
    // exceeds the Titan Xp's predicted cost for the front batch, the
    // model approves the steal.
    let cfg = EventConfig {
        steal: StealPolicy {
            enabled: true,
            min_victim_backlog_us: 1.0,
            poll: Duration::from_micros(200),
        },
        ..EventConfig::default()
    };
    let report = run(
        two_device_pool(),
        cfg,
        stalled_v100(0xC0FFEE, Duration::from_millis(25)),
        &[GemmShape::new(32, 32, 64); 2],
        16,
        BURST,
    );
    let stats = &report.stats;
    let stolen = done(&report).iter().filter(|(_, s, _)| *s).count();
    assert!(
        stats.steals >= 1,
        "an idle Titan Xp next to a stalled V100 must steal (steals = {})",
        stats.steals
    );
    assert_eq!(stats.steals, stolen, "per-result provenance matches the counter");
    assert!(stats.devices[1].steals >= 1, "the idle Titan Xp must be a thief");
    let per_device: usize = stats.devices.iter().map(|d| d.steals).sum();
    assert_eq!(per_device, stats.steals, "device attribution reconciles");
}

#[test]
fn steals_can_be_disabled() {
    let cfg = EventConfig {
        steal: StealPolicy { enabled: false, ..StealPolicy::default() },
        ..EventConfig::default()
    };
    let report = run(
        two_device_pool(),
        cfg,
        stalled_v100(0xBEEF, Duration::from_millis(2)),
        &[GemmShape::new(64, 64, 256); 2],
        8,
        BURST,
    );
    assert!(done(&report).iter().all(|(_, stolen, _)| !stolen));
    assert_eq!(report.stats.steals, 0);
}
