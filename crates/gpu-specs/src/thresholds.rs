//! Architecture-dependent tuning thresholds used by the two engines.
//!
//! The paper fixes two empirical constants on V100 (§7): the **TLP
//! threshold** (65536) used by the tiling-selection algorithm of §4.2.3,
//! and **θ = 256**, the per-block accumulated-K target used by both
//! batching heuristics of §5. For other devices the paper prescribes an
//! offline calibration ("choose the inflection point with large
//! performance degradation"); we expose the V100-pinned values here and
//! implement the calibration procedure itself in `ctb-bench` (it needs
//! the simulator, which sits above this crate).

use crate::arch::ArchSpec;

/// The two architecture-dependent constants of the framework.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Minimum total thread-level parallelism the tiling engine must
    /// preserve before it trades TLP for ILP (Eq 1 vs §4.2.3 step 3).
    pub tlp_threshold: u64,
    /// Target accumulated K per thread block for the batching engine
    /// (θ in §5).
    pub theta: u32,
}

impl Thresholds {
    /// The paper's V100 values: TLP threshold 65536, θ = 256.
    pub fn paper_v100() -> Self {
        Thresholds { tlp_threshold: 65_536, theta: 256 }
    }

    /// Default thresholds for an arbitrary device.
    ///
    /// On V100 the paper's 65536 equals 40 % of the device's resident
    /// -thread capacity (80 SMs × 2048 threads); we scale that ratio to
    /// other devices, which the calibration experiment
    /// (`reproduce calibrate`) confirms lands at the knee of the
    /// performance-vs-TLP curve on every preset. θ tracks the number of
    /// main-loop iterations needed to amortise the pipeline-fill latency
    /// and is kept at the paper's 256 for all presets.
    pub fn for_arch(arch: &ArchSpec) -> Self {
        if arch.name == "Tesla V100" {
            return Thresholds::paper_v100();
        }
        let capacity = arch.max_resident_threads() as f64;
        // Round to a power of two like the paper's V100 value.
        let raw = capacity * 0.4;
        let tlp = 1u64 << (raw.log2().round() as u32);
        Thresholds { tlp_threshold: tlp, theta: 256 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_matches_paper() {
        let t = Thresholds::for_arch(&ArchSpec::volta_v100());
        assert_eq!(t.tlp_threshold, 65_536);
        assert_eq!(t.theta, 256);
    }

    #[test]
    fn scaled_thresholds_are_powers_of_two_and_below_capacity() {
        for arch in ArchSpec::all_presets() {
            let t = Thresholds::for_arch(&arch);
            assert!(t.tlp_threshold.is_power_of_two());
            assert!(t.tlp_threshold <= arch.max_resident_threads());
            assert!(t.tlp_threshold >= arch.max_resident_threads() / 8);
        }
    }

    #[test]
    fn smaller_devices_get_smaller_thresholds() {
        let v100 = Thresholds::for_arch(&ArchSpec::volta_v100());
        let m60 = Thresholds::for_arch(&ArchSpec::maxwell_m60());
        assert!(m60.tlp_threshold < v100.tlp_threshold);
    }
}
