//! `reproduce cluster` — the tracked multi-device scaling harness.
//!
//! Three experiments over the `ctb-cluster` [`EventCluster`] engine:
//!
//! 1. **Scaling sweep** — the same mixed-shape workload through 1-, 2-
//!    and 4-device heterogeneous pools ([`ArchSpec::pool_presets`]),
//!    arriving as one burst at simulated time zero. The figure of merit
//!    is throughput over *simulated* makespan (max per-device
//!    accumulated simulated time): the analytical model that routes
//!    the batches also times them. Stealing is disabled for the sweep
//!    so the figure isolates cost-model placement.
//! 2. **Kill-one-device run** — a burst into the 2-device pool, the
//!    fastest device killed once every batch is placed. Zero drops and
//!    bitwise-exact results are the acceptance bar, re-route counts are
//!    the evidence.
//! 3. **Open-loop scaling sweep** — Table-2 load at 16 / 256 / 1k / 10k
//!    devices and ≥1M requests per run: makespan, events/sec engine
//!    throughput, placement error and mean utilization, with a sampled
//!    witness subset keeping results bitwise-checkable.
//!
//! In the two burst sections every batch is a witness: it executes for
//! real and is checked against
//! [`ctb_matrix::GemmBatch::reference_result_exact`].
//!
//! Results land in `BENCH_cluster.json` at the repository root.

use crate::Json;
use ctb_cluster::{
    EngineReport, EventCluster, EventConfig, LoadGen, PlacementMode, SimTime, StealPolicy,
};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use std::sync::Arc;

/// One pool size in the scaling sweep.
#[derive(Debug, Clone)]
pub struct ClusterScalePoint {
    /// Devices in the pool.
    pub devices: usize,
    /// Architecture names, pool order.
    pub device_names: Vec<&'static str>,
    /// Batches driven through the pool.
    pub batches: usize,
    /// Simulated makespan (max per-device busy time), µs.
    pub makespan_sim_us: f64,
    /// Total simulated work across devices, µs.
    pub total_sim_us: f64,
    /// Workload FLOPs over simulated makespan, GFLOPS.
    pub throughput_gflops: f64,
    /// This pool's throughput over the 1-device pool's (1.0 for n=1).
    pub speedup_vs_single: f64,
    /// Mean |predicted − simulated| µs per batch (0 = the placer's
    /// predictions were exactly what execution observed).
    pub mean_abs_placement_err_us: f64,
    /// Per-device utilization (`busy / makespan`), pool order.
    pub utilization: Vec<f64>,
}

/// Outcome of the kill-one-device resilience run.
#[derive(Debug, Clone)]
pub struct KillRunReport {
    /// Batches submitted (and — zero drops — completed).
    pub batches: usize,
    pub completed: usize,
    pub kills: usize,
    /// Batches moved off the dead device.
    pub reroutes: usize,
    /// Batches that fell back to the degraded baseline.
    pub degraded: usize,
    /// Every result matched its exact oracle bit for bit.
    pub bitwise_exact: bool,
}

/// One pool size in the discrete-event scaling sweep.
#[derive(Debug, Clone)]
pub struct EventScalePoint {
    /// Devices in the pool (a `Vec` length, not a thread count).
    pub devices: usize,
    /// Open-loop requests generated and retired.
    pub requests: usize,
    /// Load-generator seed.
    pub seed: u64,
    /// Simulated makespan (max per-device busy time), µs.
    pub makespan_sim_us: f64,
    /// Total simulated work across devices, µs.
    pub total_sim_us: f64,
    /// Timeline events popped over the run.
    pub events_processed: u64,
    /// Host wall seconds inside the engine loop.
    pub wall_s: f64,
    /// Engine throughput: events processed per host wall second.
    pub events_per_sec: f64,
    /// `total / (devices × makespan)` — how evenly the placer loaded
    /// the pool.
    pub mean_utilization: f64,
    /// Mean |predicted − simulated| µs per completed request.
    pub mean_abs_placement_err_us: f64,
    /// Requests that executed for real and were bitwise-checked.
    pub witnesses: usize,
    /// Witness divergences from the exact oracle (must be 0).
    pub witness_mismatches: usize,
}

/// The full tracked report.
#[derive(Debug, Clone)]
pub struct ClusterBenchReport {
    pub scaling: Vec<ClusterScalePoint>,
    pub kill_run: KillRunReport,
    pub event_scaling: Vec<EventScalePoint>,
}

/// One burst batch: its shape signature and the data seed its witness
/// fills the matrices from.
type Work = (Arc<[GemmShape]>, u64);

/// Mixed-shape workload for the sweep. Shapes are sized so no single
/// batch fills the largest device (a handful of blocks each): pool
/// speedup then tracks per-device *clock* differences rather than SM
/// counts, which is the regime where adding mid-range devices next to a
/// V100 actually pays.
fn workload(batches: usize, seed: u64) -> Vec<Work> {
    let mix: [&[GemmShape]; 4] = [
        &[GemmShape::new(48, 48, 256); 3],
        &[GemmShape::new(32, 64, 128); 4],
        &[GemmShape::new(64, 64, 320); 2],
        &[GemmShape::new(24, 24, 96); 6],
    ];
    (0..batches).map(|i| (mix[i % mix.len()].into(), seed.wrapping_add(i as u64))).collect()
}

/// Knobs of the tracked harness, every one surfaced as a `reproduce
/// cluster` CLI flag; [`Default`] is the tracked configuration, which
/// `scripts/check.sh` runs in full, and [`ClusterBenchConfig::smoke`]
/// is a quick variant.
#[derive(Debug, Clone)]
pub struct ClusterBenchConfig {
    /// Batches through the burst scaling sweep (`--batches`).
    pub batches: usize,
    /// Burst pool sizes to sweep (`--devices`).
    pub devices: Vec<usize>,
    /// Base data seed for every section's workload (`--seed`).
    pub seed: u64,
    /// Open-loop pool sizes to sweep (`--event-devices`).
    pub event_devices: Vec<usize>,
    /// Open-loop requests per pool size (`--requests`).
    pub event_requests: usize,
}

impl Default for ClusterBenchConfig {
    fn default() -> Self {
        ClusterBenchConfig {
            batches: 40,
            devices: vec![1, 2, 4],
            seed: 0,
            event_devices: vec![16, 256, 1024, 10_000],
            event_requests: 1_000_000,
        }
    }
}

impl ClusterBenchConfig {
    /// The `--smoke` variant: one 256-device / 100k-request open-loop
    /// point plus a trimmed burst sweep — exercises every report section
    /// (the key-set gate needs them all) in a few seconds.
    pub fn smoke() -> Self {
        ClusterBenchConfig {
            batches: 8,
            devices: vec![1, 2],
            event_devices: vec![256],
            event_requests: 100_000,
            ..ClusterBenchConfig::default()
        }
    }
}

fn workload_flops(work: &[Work]) -> f64 {
    work.iter().flat_map(|(shapes, _)| shapes.iter()).map(|s| s.flops() as f64).sum()
}

/// Drive `work` through `pool` as one burst arriving at t = 0 — queues
/// deep enough for all of it, stealing off, every batch a witness —
/// optionally killing device `kill` at t = 1 ns, once every batch is
/// placed. Panics on a drop or an inexact result.
fn run_burst(pool: Vec<ArchSpec>, work: &[Work], kill: Option<usize>) -> EngineReport {
    let cfg = EventConfig {
        queue_capacity: work.len().max(1),
        steal: StealPolicy { enabled: false, ..StealPolicy::default() },
        ..EventConfig::default()
    };
    let mut eng = EventCluster::new(pool, cfg);
    for (shapes, seed) in work {
        eng.submit_at(SimTime::ZERO, Arc::clone(shapes), *seed);
    }
    if let Some(device) = kill {
        eng.kill_at(SimTime(1), device);
    }
    let report = eng.run();
    assert_eq!(report.stats.completed, work.len(), "a burst drops nothing");
    assert_eq!(report.witnesses, work.len(), "every burst batch is a witness");
    assert_eq!(report.witness_mismatches, 0, "burst result diverged from the exact oracle");
    report
}

/// Drive `work` through an `n`-device pool and report the simulated
/// scaling numbers. Every result is verified bitwise against the exact
/// oracle.
pub fn run_scale_point(n: usize, work: &[Work]) -> ClusterScalePoint {
    let pool = ArchSpec::pool_presets(n);
    let device_names: Vec<&'static str> = pool.iter().map(|a| a.name).collect();
    let stats = run_burst(pool, work, None).stats;
    ClusterScalePoint {
        devices: n,
        device_names,
        batches: work.len(),
        makespan_sim_us: stats.makespan_sim_us,
        total_sim_us: stats.total_sim_us,
        throughput_gflops: stats.sim_throughput_gflops(workload_flops(work)),
        speedup_vs_single: 1.0,
        mean_abs_placement_err_us: stats.mean_abs_placement_err_us,
        utilization: stats.devices.iter().map(|d| d.utilization).collect(),
    }
}

/// The burst device scaling sweep on one workload, with speedups
/// normalized to the first (smallest) pool — pool order is
/// fastest-first, so the default `[1, 2, 4]` normalizes to the best
/// single device.
pub fn run_scaling_sweep(batches: usize, devices: &[usize], seed: u64) -> Vec<ClusterScalePoint> {
    let work = workload(batches, seed);
    let mut points: Vec<ClusterScalePoint> =
        devices.iter().map(|&n| run_scale_point(n, &work)).collect();
    let single = points[0].throughput_gflops;
    for p in &mut points {
        p.speedup_vs_single = p.throughput_gflops / single;
    }
    points
}

/// Event-engine configuration for a sweep point: indexed placement
/// above the auto threshold, deep queues (placement never has to
/// spill), and a sampled witness subset (~256 per run) so results stay
/// bitwise-checkable without executing a million real batches.
fn event_sweep_config(requests: usize) -> EventConfig {
    EventConfig {
        queue_capacity: 1 << 16,
        witness_every: (requests / 256).max(1),
        placement: PlacementMode::Auto,
        record_outcomes: false,
        ..EventConfig::default()
    }
}

/// One discrete-event sweep point: `requests` open-loop Table-2
/// requests through a `devices`-wide heterogeneous pool. The arrival
/// rate scales with pool size so every pool runs loaded rather than
/// trickle-fed.
pub fn run_event_scale_point(devices: usize, requests: usize, seed: u64) -> EventScalePoint {
    let mut eng = EventCluster::new(ArchSpec::pool_presets(devices), event_sweep_config(requests));
    let mean_interarrival_ns = (20_000.0 / devices as f64).max(1.0);
    eng.load(LoadGen::table2(seed, mean_interarrival_ns, requests));
    let report = eng.run();
    assert_eq!(report.requests, requests, "open loop must deliver every request");
    assert_eq!(report.stats.completed, requests, "a fault-free sweep point completes everything");
    assert_eq!(report.witness_mismatches, 0, "sampled witnesses must stay bitwise-exact");
    EventScalePoint {
        devices,
        requests,
        seed,
        makespan_sim_us: report.stats.makespan_sim_us,
        total_sim_us: report.stats.total_sim_us,
        events_processed: report.events_processed,
        wall_s: report.wall_elapsed_s,
        events_per_sec: report.events_per_sec,
        mean_utilization: report.stats.mean_utilization(),
        mean_abs_placement_err_us: report.stats.mean_abs_placement_err_us,
        witnesses: report.witnesses,
        witness_mismatches: report.witness_mismatches,
    }
}

/// The discrete-event scaling sweep across pool sizes.
pub fn run_event_sweep(cfg: &ClusterBenchConfig) -> Vec<EventScalePoint> {
    cfg.event_devices
        .iter()
        .map(|&n| run_event_scale_point(n, cfg.event_requests, cfg.seed))
        .collect()
}

/// Burst into the 2-device pool, kill the fastest device while loaded,
/// and verify the zero-drop / bitwise-exact contract.
pub fn run_kill_run(batches: usize, seed: u64) -> KillRunReport {
    let work = workload(batches, seed);
    let report = run_burst(ArchSpec::pool_presets(2), &work, Some(0));
    KillRunReport {
        batches,
        completed: report.stats.completed,
        kills: report.stats.kills,
        reroutes: report.stats.reroutes,
        degraded: report.stats.degraded,
        bitwise_exact: report.witness_mismatches == 0,
    }
}

/// The tracked `BENCH_cluster.json` report.
pub fn report_json(r: &ClusterBenchReport) -> Json {
    let scale_point = |p: &ClusterScalePoint| {
        Json::obj([
            ("devices", p.devices.into()),
            ("device_names", Json::arr(p.device_names.iter().map(|&n| n.into()))),
            ("batches", p.batches.into()),
            ("makespan_sim_us", Json::fixed(p.makespan_sim_us, 3)),
            ("total_sim_us", Json::fixed(p.total_sim_us, 3)),
            ("throughput_gflops", Json::fixed(p.throughput_gflops, 3)),
            ("speedup_vs_single", Json::fixed(p.speedup_vs_single, 3)),
            ("mean_abs_placement_err_us", Json::fixed(p.mean_abs_placement_err_us, 6)),
            ("utilization", Json::arr(p.utilization.iter().map(|&u| Json::fixed(u, 3)))),
        ])
    };
    let event_point = |p: &EventScalePoint| {
        Json::obj([
            ("devices", p.devices.into()),
            ("requests", p.requests.into()),
            ("seed", p.seed.into()),
            ("makespan_sim_us", Json::fixed(p.makespan_sim_us, 3)),
            ("total_sim_us", Json::fixed(p.total_sim_us, 3)),
            ("events_processed", p.events_processed.into()),
            ("wall_s", Json::fixed(p.wall_s, 6)),
            ("events_per_sec", Json::fixed(p.events_per_sec, 0)),
            ("mean_utilization", Json::fixed(p.mean_utilization, 4)),
            ("mean_abs_placement_err_us", Json::fixed(p.mean_abs_placement_err_us, 6)),
            ("witnesses", p.witnesses.into()),
            ("witness_mismatches", p.witness_mismatches.into()),
        ])
    };
    let k = &r.kill_run;
    let kill_run = Json::obj([
        ("batches", k.batches.into()),
        ("completed", k.completed.into()),
        ("kills", k.kills.into()),
        ("reroutes", k.reroutes.into()),
        ("degraded", k.degraded.into()),
        ("bitwise_exact", k.bitwise_exact.into()),
    ]);
    Json::obj([
        ("bench", "cluster".into()),
        ("scaling", Json::arr(r.scaling.iter().map(scale_point))),
        ("kill_run", kill_run),
        ("event_scaling", Json::arr(r.event_scaling.iter().map(event_point))),
    ])
}

/// Run every section of the harness under `cfg`.
pub fn run_report(cfg: &ClusterBenchConfig) -> ClusterBenchReport {
    ClusterBenchReport {
        scaling: run_scaling_sweep(cfg.batches, &cfg.devices, cfg.seed),
        kill_run: run_kill_run((cfg.batches * 3) / 5, cfg.seed),
        event_scaling: run_event_sweep(cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sweep_scales_and_stays_exact() {
        let work = workload(6, 0);
        let single = run_scale_point(1, &work);
        let pair = run_scale_point(2, &work);
        assert_eq!(single.devices, 1);
        assert_eq!(pair.devices, 2);
        assert!(single.makespan_sim_us > 0.0);
        // Two devices must not be slower than one in simulated makespan.
        assert!(pair.makespan_sim_us <= single.makespan_sim_us + 1e-9);
        assert!(pair.throughput_gflops >= single.throughput_gflops - 1e-9);
        // Sweep predictions reconcile exactly with execution.
        assert_eq!(single.mean_abs_placement_err_us, 0.0);
        assert_eq!(pair.mean_abs_placement_err_us, 0.0);
    }

    #[test]
    fn small_kill_run_drops_nothing() {
        let r = run_kill_run(6, 0);
        assert_eq!(r.completed, 6);
        assert_eq!(r.kills, 1);
        assert!(r.bitwise_exact);
    }

    #[test]
    fn small_event_point_reports_the_sweep_vocabulary() {
        let p = run_event_scale_point(16, 2_000, 7);
        assert_eq!(p.devices, 16);
        assert_eq!(p.requests, 2_000);
        assert!(p.makespan_sim_us > 0.0);
        assert!(p.events_processed >= 2_000 * 3, "arrive + place + exec per request minimum");
        assert!(p.events_per_sec > 0.0);
        assert!(p.mean_utilization > 0.0 && p.mean_utilization <= 1.0 + 1e-9);
        assert_eq!(p.mean_abs_placement_err_us, 0.0, "predictions reconcile exactly");
        assert!(p.witnesses > 0, "the sampled witness subset is non-empty");
        assert_eq!(p.witness_mismatches, 0);
    }

    #[test]
    fn seed_changes_the_workload_but_not_the_contract() {
        let a = run_event_scale_point(4, 400, 1);
        let b = run_event_scale_point(4, 400, 2);
        assert_ne!(
            (a.makespan_sim_us, a.events_processed),
            (b.makespan_sim_us, b.events_processed),
            "different seeds must draw different loads"
        );
        // Same seed replays identically (wall time aside).
        let c = run_event_scale_point(4, 400, 1);
        assert_eq!(a.makespan_sim_us, c.makespan_sim_us);
        assert_eq!(a.events_processed, c.events_processed);
    }

    #[test]
    fn tiny_report_has_the_committed_key_set() {
        let smoke = ClusterBenchConfig::smoke();
        let cfg = ClusterBenchConfig { event_devices: vec![4], event_requests: 16, ..smoke };
        crate::assert_committed_keys("cluster", &report_json(&run_report(&cfg)));
    }
}
