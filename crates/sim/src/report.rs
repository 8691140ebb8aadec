//! Simulation reports.

use ctb_gpu_specs::Occupancy;

/// Fractions of a kernel's block-cycles attributed to each binding
/// constraint (diagnostics for the TLP/ILP analysis; sums to ~1).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BoundBreakdown {
    /// Rounds bound by SM issue / bandwidth throughput.
    pub throughput: f64,
    /// Rounds bound by exposed global-memory latency (TLP-starved).
    pub memory_latency: f64,
    /// Rounds bound by intra-warp dependency stalls (ILP-starved).
    pub dependency: f64,
    /// Fixed overheads: dispatch, pipeline fill, epilogues, tile
    /// switches.
    pub overhead: f64,
}

/// Timing result for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelReport {
    pub name: String,
    /// Kernel duration in core cycles (excluding launch overhead).
    pub cycles: f64,
    /// Kernel duration in microseconds.
    pub us: f64,
    /// Total blocks in the grid.
    pub blocks: usize,
    /// Bubble blocks among them (MAGMA `vbatch` artefact).
    pub bubble_blocks: usize,
    /// Occupancy of the block footprint on the device.
    pub occupancy: Occupancy,
    /// Kernel-wide average active warps per SM (latency-hiding term).
    pub avg_active_warps: f64,
    /// Grid size divided by device residency slots (how many "waves").
    pub waves: f64,
    /// Where the kernel's block-cycles went (diagnostics).
    pub bound_breakdown: BoundBreakdown,
}

/// End-to-end timing of a launch sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Wall time in microseconds including launch overheads.
    pub total_us: f64,
    /// Per-kernel breakdowns in launch order.
    pub kernels: Vec<KernelReport>,
}

impl SimReport {
    /// Sum of kernel execution times without launch overhead.
    pub fn exec_us(&self) -> f64 {
        self.kernels.iter().map(|k| k.us).sum()
    }

    /// Achieved GFLOP/s for a workload of `flops` floating-point ops.
    pub fn gflops(&self, flops: u64) -> f64 {
        if self.total_us <= 0.0 {
            return 0.0;
        }
        flops as f64 / (self.total_us * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gflops_arithmetic() {
        let r = SimReport { total_us: 1000.0, kernels: vec![] };
        // 2 GFLOP in 1 ms = 2000 GFLOP/s.
        assert!((r.gflops(2_000_000_000) - 2000.0).abs() < 1e-9);
        let zero = SimReport { total_us: 0.0, kernels: vec![] };
        assert_eq!(zero.gflops(1), 0.0);
    }
}
