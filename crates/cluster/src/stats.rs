//! Cluster-wide and per-device accounting.

use ctb_core::CacheStats;
use ctb_serve::ServeStats;

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
    /// `false` once a [`crate::EventCluster::kill_at`] kill (or a
    /// [`crate::EventCluster::halt_and_export`] halt) took effect.
    pub alive: bool,
    /// Whether the device breaker was open at snapshot time.
    pub breaker_open: bool,
}

/// Point-in-time view of the whole cluster. Extends the single-device
/// [`ServeStats`] vocabulary with placement/steal/re-route accounting
/// and the per-device breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterStats {
    /// Requests admitted past placement (a request no live device can
    /// plan is rejected instead, and not counted here).
    pub submitted: usize,
    /// Batches completed with a result (coordinated or degraded).
    pub completed: usize,
    /// Batches that finished on the degraded per-kernel baseline
    /// (no surviving device could take them, or re-routes exhausted).
    pub degraded: usize,
    /// Routing decisions made by the sim-cost placer.
    pub routed: usize,
    /// Batches moved between devices by work stealing.
    pub steals: usize,
    /// Batches re-routed after a device failure or kill.
    pub reroutes: usize,
    /// Executor panics caught at the job boundary (a panic never takes
    /// its device down).
    pub worker_panics: usize,
    /// Planning failures observed across the pool (real or injected).
    pub plan_failures: usize,
    /// Breaker trips summed over devices.
    pub breaker_trips: usize,
    /// Devices removed by [`crate::EventCluster::kill_at`] kills and
    /// [`crate::EventCluster::halt_and_export`] halts.
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
    /// Median arrival-to-completion batch latency, simulated µs.
    pub p50_wall_us: f64,
    /// 95th-percentile arrival-to-completion batch latency, simulated µs.
    pub p95_wall_us: f64,
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

/// The engine's running counters behind [`ClusterStats`].
#[derive(Debug, Default)]
pub struct ClusterInner {
    pub submitted: usize,
    pub completed: usize,
    pub degraded: usize,
    pub routed: usize,
    pub steals: usize,
    pub reroutes: usize,
    pub worker_panics: usize,
    pub plan_failures: usize,
    pub breaker_trips: usize,
    pub kills: usize,
    pub residency_hits: usize,
    pub residency_misses: usize,
    pub remote_operand_bytes: u64,
    pub err_abs_sum_us: f64,
    pub err_count: usize,
    /// Request latencies in completion order. The snapshot sorts a
    /// copy; the stored order is what a resumed run keeps appending to,
    /// so save → resume → save stays byte-identical.
    pub latencies_us: Vec<f64>,
}

// The residency counters (v3) follow the latency log in the blob.
ctb_savestate::savestate_struct!(ClusterInner {
    submitted,
    completed,
    degraded,
    routed,
    steals,
    reroutes,
    worker_panics,
    plan_failures,
    breaker_trips,
    kills,
    err_abs_sum_us,
    err_count,
    latencies_us,
    residency_hits,
    residency_misses,
    remote_operand_bytes,
});

impl ClusterInner {
    pub fn record_placement_err(&mut self, predicted_us: f64, simulated_us: f64) {
        self.err_abs_sum_us += (predicted_us - simulated_us).abs();
        self.err_count += 1;
    }

    /// Assemble the snapshot around an externally gathered per-device
    /// breakdown and cache aggregates.
    pub fn snapshot(
        &self,
        devices: Vec<DeviceStats>,
        plan_cache: CacheStats,
        sim_memo: CacheStats,
    ) -> ClusterStats {
        let mut lat = self.latencies_us.clone();
        lat.sort_by(f64::total_cmp);
        let makespan_sim_us = devices.iter().map(|d| d.busy_sim_us).fold(0.0, f64::max);
        let total_sim_us = devices.iter().map(|d| d.busy_sim_us).sum();
        ClusterStats {
            submitted: self.submitted,
            completed: self.completed,
            degraded: self.degraded,
            routed: self.routed,
            steals: self.steals,
            reroutes: self.reroutes,
            worker_panics: self.worker_panics,
            plan_failures: self.plan_failures,
            breaker_trips: self.breaker_trips,
            kills: self.kills,
            devices,
            makespan_sim_us,
            total_sim_us,
            mean_abs_placement_err_us: if self.err_count == 0 {
                0.0
            } else {
                self.err_abs_sum_us / self.err_count as f64
            },
            plan_cache,
            sim_memo,
            p50_wall_us: ServeStats::percentile(&lat, 0.50),
            p95_wall_us: ServeStats::percentile(&lat, 0.95),
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
        let mut inner = ClusterInner::default();
        inner.record_placement_err(10.0, 12.0);
        inner.record_placement_err(5.0, 5.0);
        inner.latencies_us = vec![100.0, 300.0];
        let s = inner.snapshot(
            vec![dev(0, 40.0), dev(1, 25.0)],
            CacheStats::default(),
            CacheStats::default(),
        );
        assert_eq!(s.makespan_sim_us, 40.0);
        assert_eq!(s.total_sim_us, 65.0);
        assert_eq!(s.mean_abs_placement_err_us, 1.0);
        assert_eq!(s.p50_wall_us, 100.0);
        assert_eq!(s.p95_wall_us, 300.0);
        // 65 µs of simulated work over a 40 µs makespan.
        let thr = s.sim_throughput_gflops(65.0e3);
        assert!((thr - 65.0e3 / 40.0e-6 / 1e9).abs() < 1e-9);
        // 65 µs spread over 2 devices × 40 µs makespan.
        assert!((s.mean_utilization() - 65.0 / 80.0).abs() < 1e-12);
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
