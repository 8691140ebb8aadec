//! Cluster-wide and per-device accounting.

use ctb_core::CacheStats;

/// Point-in-time view of one device in the pool.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceStats {
    /// Cluster-wide device id (index into the construction pool).
    pub id: usize,
    /// Architecture preset name ("Tesla V100", ...).
    pub name: &'static str,
    /// Batches the placer routed here.
    pub placements: usize,
    /// Batches this device completed on the coordinated path.
    pub completed: usize,
    /// Batches this device stole from saturated peers.
    pub steals: usize,
    /// Batches re-routed *away* after failing here.
    pub reroutes_out: usize,
    /// Times this device's breaker tripped open.
    pub breaker_trips: usize,
    /// Accumulated simulated execution time, µs. The cluster's aggregate
    /// throughput is defined over these (makespan = max over devices),
    /// so a heterogeneous pool's speedup is visible even on a
    /// single-core host running the functional executor serially.
    pub busy_sim_us: f64,
    /// Predicted µs of work queued/running at snapshot time (advisory).
    pub backlog_us: f64,
    /// Batches waiting in the device queue at snapshot time.
    pub queue_depth: usize,
    /// `busy_sim_us / makespan` across the pool (0 when idle).
    pub utilization: f64,
    /// `false` once a [`crate::EventCluster::kill_at`] kill took effect.
    pub alive: bool,
    /// Whether the device breaker was open at snapshot time.
    pub breaker_open: bool,
}

/// Point-in-time view of the whole cluster. Extends the single-device
/// [`ServeStats`](ctb_serve::ServeStats) vocabulary with
/// placement/steal/re-route accounting and the per-device breakdown.
///
/// Six counters restate per-device ones and are summed from `devices`
/// when the snapshot is taken: `completed`, `routed`, `steals`,
/// `reroutes`, `breaker_trips` and `kills`. The engine keeps each of
/// them once, on the device.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStats {
    /// Requests admitted past placement (a request no live device can
    /// plan is rejected instead, and not counted here).
    pub submitted: usize,
    /// Batches completed with a result: the devices' `completed` plus
    /// `degraded`.
    pub completed: usize,
    /// Batches that finished on the degraded per-kernel baseline
    /// (no surviving device could take them, or re-routes exhausted).
    pub degraded: usize,
    /// Routing decisions made by the sim-cost placer: the devices'
    /// `placements`.
    pub routed: usize,
    /// Batches moved between devices by work stealing: the devices'
    /// `steals`.
    pub steals: usize,
    /// Batches re-routed after a device failure or kill: the devices'
    /// `reroutes_out`.
    pub reroutes: usize,
    /// Executor panics caught at the job boundary (a panic never takes
    /// its device down).
    pub worker_panics: usize,
    /// Planning failures observed across the pool (real or injected).
    pub plan_failures: usize,
    /// Breaker trips: the devices' `breaker_trips`.
    pub breaker_trips: usize,
    /// Devices removed by [`crate::EventCluster::kill_at`] kills: the
    /// devices that are not `alive`.
    pub kills: usize,
    /// Per-device breakdown, in pool order.
    pub devices: Vec<DeviceStats>,
    /// Max over devices of accumulated simulated time, µs — the
    /// simulated wall time of the pool had every device run in parallel.
    pub makespan_sim_us: f64,
    /// Sum over devices of accumulated simulated time, µs.
    pub total_sim_us: f64,
    /// Mean |predicted − simulated| µs over completed coordinated
    /// batches: how well placement-time predictions matched execution.
    /// 0 for never-moved batches (the prediction and the execution read
    /// the same memo entry); steals and re-routes re-predict on the new
    /// device, so they stay 0 too — drift here means the cost model and
    /// the executor disagree.
    pub mean_abs_placement_err_us: f64,
    /// Plan-cache accounting summed over every class session.
    pub plan_cache: CacheStats,
    /// Simulation-memo accounting of the shared [`ctb_core::PlanShare`].
    pub sim_memo: CacheStats,
    /// Placements onto the device already holding the batch's operands
    /// (the locality penalty was waived).
    pub residency_hits: usize,
    /// Placements that had to stage operands onto a non-resident device.
    pub residency_misses: usize,
    /// Operand bytes charged as interposer crossings over the whole
    /// run: the figure `reproduce locality` gates on (aware < blind,
    /// strictly). Zero on single-chiplet pools by construction.
    pub remote_operand_bytes: u64,
}

impl ClusterStats {
    /// Aggregate throughput for `flops` of submitted work, GFLOPS over
    /// *simulated* makespan (0 when idle). This is the figure of merit
    /// for pool-scaling experiments.
    pub fn sim_throughput_gflops(&self, flops: f64) -> f64 {
        if self.makespan_sim_us <= 0.0 {
            0.0
        } else {
            flops / (self.makespan_sim_us * 1e-6) / 1e9
        }
    }

    /// Mean per-device utilization: `total_sim_us / (devices × makespan)`,
    /// i.e. how evenly the placer spread the simulated work across the
    /// pool (1.0 = perfectly balanced, → 0 as devices idle). The scaling
    /// sweep reports this per point — a 10k-device pool fed too few
    /// requests shows its emptiness here rather than in the makespan.
    pub fn mean_utilization(&self) -> f64 {
        if self.makespan_sim_us <= 0.0 || self.devices.is_empty() {
            0.0
        } else {
            self.total_sim_us / (self.devices.len() as f64 * self.makespan_sim_us)
        }
    }
}

/// The engine's running counters behind [`ClusterStats`]: the
/// cluster-wide facts no device keeps.
#[derive(Debug, Default)]
pub(crate) struct ClusterInner {
    pub submitted: usize,
    pub degraded: usize,
    pub worker_panics: usize,
    pub plan_failures: usize,
    pub residency_hits: usize,
    pub residency_misses: usize,
    pub remote_operand_bytes: u64,
    /// |predicted − simulated| µs summed over the devices' completions.
    pub err_abs_sum_us: f64,
}

ctb_savestate::savestate_struct!(ClusterInner {
    submitted,
    degraded,
    worker_panics,
    plan_failures,
    residency_hits,
    residency_misses,
    remote_operand_bytes,
    err_abs_sum_us,
});

impl ClusterInner {
    /// Assemble the snapshot around an externally gathered per-device
    /// breakdown and cache aggregates: fill in each device's
    /// utilization, and sum the counters the devices keep.
    pub fn snapshot(
        &self,
        mut devices: Vec<DeviceStats>,
        plan_cache: CacheStats,
        sim_memo: CacheStats,
    ) -> ClusterStats {
        let makespan_sim_us = devices.iter().map(|d| d.busy_sim_us).fold(0.0, f64::max);
        for d in &mut devices {
            d.utilization =
                if makespan_sim_us > 0.0 { d.busy_sim_us / makespan_sim_us } else { 0.0 };
        }
        let sum = |count: fn(&DeviceStats) -> usize| devices.iter().map(count).sum();
        let total_sim_us = devices.iter().map(|d| d.busy_sim_us).sum();
        let coordinated: usize = sum(|d| d.completed);
        ClusterStats {
            submitted: self.submitted,
            completed: coordinated + self.degraded,
            degraded: self.degraded,
            routed: sum(|d| d.placements),
            steals: sum(|d| d.steals),
            reroutes: sum(|d| d.reroutes_out),
            worker_panics: self.worker_panics,
            plan_failures: self.plan_failures,
            breaker_trips: sum(|d| d.breaker_trips),
            kills: sum(|d| usize::from(!d.alive)),
            devices,
            makespan_sim_us,
            total_sim_us,
            mean_abs_placement_err_us: if coordinated == 0 {
                0.0
            } else {
                self.err_abs_sum_us / coordinated as f64
            },
            plan_cache,
            sim_memo,
            residency_hits: self.residency_hits,
            residency_misses: self.residency_misses,
            remote_operand_bytes: self.remote_operand_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(id: usize, busy: f64) -> DeviceStats {
        DeviceStats {
            id,
            name: "Tesla V100",
            placements: 0,
            completed: 0,
            steals: 0,
            reroutes_out: 0,
            breaker_trips: 0,
            busy_sim_us: busy,
            backlog_us: 0.0,
            queue_depth: 0,
            utilization: 0.0,
            alive: true,
            breaker_open: false,
        }
    }

    #[test]
    fn snapshot_derives_makespan_and_error() {
        // One completion per device, predicted 2 µs and 0 µs off.
        let inner = ClusterInner { err_abs_sum_us: 2.0, ..ClusterInner::default() };
        let s = inner.snapshot(
            vec![
                DeviceStats { completed: 1, ..dev(0, 40.0) },
                DeviceStats { completed: 1, ..dev(1, 25.0) },
            ],
            CacheStats::default(),
            CacheStats::default(),
        );
        assert_eq!(s.makespan_sim_us, 40.0);
        assert_eq!(s.total_sim_us, 65.0);
        assert_eq!(s.mean_abs_placement_err_us, 1.0);
        assert_eq!((s.devices[0].utilization, s.devices[1].utilization), (1.0, 25.0 / 40.0));
        // 65 µs of simulated work over a 40 µs makespan.
        let thr = s.sim_throughput_gflops(65.0e3);
        assert!((thr - 65.0e3 / 40.0e-6 / 1e9).abs() < 1e-9);
        // 65 µs spread over 2 devices × 40 µs makespan.
        assert!((s.mean_utilization() - 65.0 / 80.0).abs() < 1e-12);
    }

    /// Each counter a device keeps reaches the snapshot as its sum over
    /// the devices, and a dead device counts as one kill.
    #[test]
    fn snapshot_sums_the_device_counters() {
        let inner = ClusterInner { degraded: 2, ..ClusterInner::default() };
        let a = DeviceStats {
            placements: 5,
            completed: 4,
            steals: 1,
            reroutes_out: 3,
            breaker_trips: 1,
            ..dev(0, 10.0)
        };
        let b = DeviceStats {
            placements: 7,
            completed: 6,
            steals: 2,
            reroutes_out: 0,
            breaker_trips: 2,
            alive: false,
            ..dev(1, 20.0)
        };
        let c = dev(2, 0.0);
        let s = inner.snapshot(vec![a, b, c], CacheStats::default(), CacheStats::default());
        assert_eq!(s.routed, 5 + 7);
        assert_eq!(s.completed, 4 + 6 + 2, "device completions plus degraded ones");
        assert_eq!(s.steals, 1 + 2);
        assert_eq!(s.reroutes, 3);
        assert_eq!(s.breaker_trips, 1 + 2);
        assert_eq!(s.kills, 1);
    }

    #[test]
    fn idle_snapshot_is_all_zero() {
        let inner = ClusterInner::default();
        let s = inner.snapshot(vec![], CacheStats::default(), CacheStats::default());
        assert_eq!(s.makespan_sim_us, 0.0);
        assert_eq!(s.mean_abs_placement_err_us, 0.0);
        assert_eq!(s.sim_throughput_gflops(1e9), 0.0);
    }
}
