//! Ground-truth drift pools and recorded placement decisions — the
//! data-generation side of closed-loop calibration (ctb-calib).
//!
//! The event engine's predictions and its charged execution times both
//! come from the same analytical model, so its placement error is zero
//! *by construction* — correct for replay parity, useless for
//! studying calibration. A [`GroundTruth`] pool breaks that tie: it
//! holds one "true silicon" [`ArchSpec`] per device class, derived from
//! the nominal spec by deterministic drift (throttled clocks, degraded
//! memory buses, fatter launch overheads — the ways real boards diverge
//! from their datasheets). With a pool attached, the engine still
//! *places* with the nominal model but *charges* the time the planned
//! kernel takes on the true spec, so predicted-vs-actual error becomes a
//! real signal, and every completion can be logged as a
//! [`PlacementDecision`] for the offline calibrator to fit against.

use ctb_core::hash::splitmix64;
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use std::sync::Arc;

/// One completed placement, as recorded for offline calibration: what
/// the raw model said, what the placer used, and what execution
/// actually cost.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementDecision {
    /// Engine-assigned request id.
    pub id: u64,
    /// Device index the request completed on.
    pub device: usize,
    /// Architecture name of that device (the calibration key).
    pub arch: &'static str,
    /// The batch's shape signature.
    pub shapes: Arc<[GemmShape]>,
    /// Uncorrected analytical-model prediction (µs).
    pub model_us: f64,
    /// The prediction the placer actually used — the model plus any
    /// installed correction (equals `model_us` at calibration
    /// version 0).
    pub predicted_us: f64,
    /// Time charged at completion (µs) — the true-arch simulation when
    /// a [`GroundTruth`] pool is attached.
    pub actual_us: f64,
}

impl PlacementDecision {
    /// Signed prediction error in µs (`predicted - actual`).
    pub fn error_us(&self) -> f64 {
        self.predicted_us - self.actual_us
    }
}

/// Per-class "true silicon" specs. Lookup is by `ArchSpec::name`;
/// classes without an entry are treated as drift-free (the nominal
/// model *is* their truth).
#[derive(Debug, Clone)]
pub struct GroundTruth {
    specs: Vec<ArchSpec>,
}

/// Uniform in `[0, 1)` from a hash.
fn u01(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl GroundTruth {
    /// A pool from explicit true specs (deduplicated by name is the
    /// caller's job; lookup returns the first match).
    pub fn new(specs: Vec<ArchSpec>) -> Self {
        GroundTruth { specs }
    }

    /// Derive a drifted truth pool from the nominal `pool`:
    /// one drifted clone per *distinct* arch name, with deterministic
    /// per-class factors hashed from `(seed, name)`:
    ///
    /// * clock throttled to 85–97 % of nominal,
    /// * memory bandwidth degraded to 80–95 %,
    /// * global-memory latency inflated 5–35 %,
    /// * kernel-launch overhead inflated 0–50 %.
    ///
    /// The drifted spec keeps the nominal `name` — that is the whole
    /// point: the model thinks it is predicting for the datasheet part
    /// while execution runs on the tired one.
    pub fn drift(pool: &[ArchSpec], seed: u64) -> Self {
        let mut specs: Vec<ArchSpec> = Vec::new();
        for nominal in pool {
            if specs.iter().any(|s| s.name == nominal.name) {
                continue;
            }
            let mut h = splitmix64(seed ^ 0xD21F_7D21_F7D2_1F7D);
            for b in nominal.name.as_bytes() {
                h = splitmix64(h ^ u64::from(*b));
            }
            let mut spec = nominal.clone();
            spec.clock_ghz *= 0.85 + 0.12 * u01(splitmix64(h ^ 1));
            let bw = 0.80 + 0.15 * u01(splitmix64(h ^ 2));
            spec.mem_bandwidth_gbps *= bw;
            // The bus degrades as a whole: local and remote shares scale
            // by the same factor, so the topology split tracks the
            // drifted aggregate bandwidth (up to f64 rounding of the
            // two products).
            spec.topology.local_bandwidth_gbps *= bw;
            spec.topology.remote_bandwidth_gbps *= bw;
            let latency = 1.05 + 0.30 * u01(splitmix64(h ^ 3));
            spec.global_mem_latency = ((spec.global_mem_latency as f64) * latency).round() as u32;
            spec.kernel_launch_overhead_us *= 1.0 + 0.5 * u01(splitmix64(h ^ 4));
            specs.push(spec);
        }
        GroundTruth { specs }
    }

    /// The true spec for arch `name`, if this pool drifts it.
    pub fn spec(&self, name: &str) -> Option<&ArchSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// Every true spec in the pool.
    pub fn specs(&self) -> &[ArchSpec] {
        &self.specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_is_deterministic_and_keeps_names() {
        let pool = ArchSpec::pool_presets(6);
        let a = GroundTruth::drift(&pool, 7);
        let b = GroundTruth::drift(&pool, 7);
        assert_eq!(a.specs().len(), 6, "six distinct classes");
        for (x, y) in a.specs().iter().zip(b.specs()) {
            assert_eq!(x, y, "same seed, same drift");
        }
        for (truth, nominal) in a.specs().iter().zip(&pool) {
            assert_eq!(truth.name, nominal.name);
            assert!(truth.clock_ghz < nominal.clock_ghz, "clock throttles");
            assert!(truth.mem_bandwidth_gbps < nominal.mem_bandwidth_gbps);
            assert!(truth.global_mem_latency > nominal.global_mem_latency);
            assert!(truth.kernel_launch_overhead_us >= nominal.kernel_launch_overhead_us);
        }
    }

    #[test]
    fn drift_scales_chiplet_topology_with_the_bus() {
        let pool = ArchSpec::chiplet_pool_presets(3);
        let gt = GroundTruth::drift(&pool, 11);
        for (truth, nominal) in gt.specs().iter().zip(&pool) {
            assert_eq!(truth.topology.chiplets, nominal.topology.chiplets);
            assert_eq!(
                truth.topology.interposer_latency_us,
                nominal.topology.interposer_latency_us,
                "drift degrades bandwidth, not the interposer wire"
            );
            assert!(truth.topology.local_bandwidth_gbps < nominal.topology.local_bandwidth_gbps);
            if !nominal.topology.is_unified() {
                assert!(
                    truth.topology.remote_bandwidth_gbps < nominal.topology.remote_bandwidth_gbps
                );
            }
            // The split tracks the drifted aggregate (f64 rounding aside).
            let sum = truth.topology.total_bandwidth_gbps();
            assert!((sum - truth.mem_bandwidth_gbps).abs() < 1e-9 * sum.max(1.0));
        }
    }

    #[test]
    fn different_seeds_drift_differently() {
        let pool = ArchSpec::pool_presets(2);
        let a = GroundTruth::drift(&pool, 1);
        let b = GroundTruth::drift(&pool, 2);
        assert_ne!(a.specs()[0].clock_ghz, b.specs()[0].clock_ghz);
    }

    #[test]
    fn duplicate_pool_entries_collapse_to_one_class() {
        let pool = ArchSpec::pool_presets(8); // 6 presets cycled -> 2 dups
        let gt = GroundTruth::drift(&pool, 3);
        assert_eq!(gt.specs().len(), 6);
        assert!(gt.spec("Tesla V100").is_some());
        assert!(gt.spec("no-such-arch").is_none());
    }
}
