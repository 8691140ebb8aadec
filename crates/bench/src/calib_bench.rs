//! `reproduce calibrate` — the closed calibration loop, end to end.
//!
//! One seeded workload runs three times over a drifted device pool
//! (every device's true clocks/bandwidth/latency diverge from the
//! nominal `ArchSpec` the cost model sees, so predictions are
//! systematically wrong):
//!
//! 1. **record** — an event cluster serves the workload
//!    with the pristine model, logging every placement decision
//!    (raw model µs, corrected prediction, measured µs) and an obs
//!    trace that `ctb_calib` reconciles against the decision log;
//! 2. **calibrate** — `ctb-calib` fits per-arch least-squares
//!    corrections from the recording, retrains the §5 selector on the
//!    trace's shape signatures, and packs both into a versioned
//!    [`CalibProfile`] (round-tripped through its wire format here, so
//!    the report always covers the serialized artifact);
//! 3. **replay** — the identical workload runs again with the profile
//!    installed; mean placement error must drop strictly. A fourth
//!    **swap** arm installs the profile *mid-run* and must complete
//!    every request.
//!
//! Runs land in `BENCH_calibrate.json` at the repository root, with the
//! key set gated against the committed `BENCH_calibrate.json`. The run
//! is deterministic, so CI also requires it to regenerate that file
//! byte for byte.

use crate::Json;
use ctb_calib::{
    fit_decisions, forest_shape, retrain_selector, CalibProfile, ForestShape, ProfileMeta,
    TraceDataset, PROFILE_VERSION,
};
use ctb_cluster::{
    EngineReport, EventCluster, EventConfig, GroundTruth, LoadGen, ReqOutcome, ShapeMix,
};
use ctb_core::selector::OnlineSelector;
use ctb_gpu_specs::{ArchSpec, Thresholds};
use ctb_matrix::GemmShape;
use ctb_obs::TraceAudit;
use std::sync::Arc;

/// Workload + calibration knobs; every arm replays the same seeded
/// stream over the same drifted pool.
#[derive(Debug, Clone)]
pub struct CalibBenchConfig {
    /// Devices in the pool (fastest-first presets, cycled).
    pub devices: usize,
    /// Requests per arm.
    pub requests: usize,
    /// Load-stream seed.
    pub seed: u64,
    /// Ground-truth drift seed (which way each device's reality
    /// diverges from its nominal spec).
    pub drift_seed: u64,
    /// Mean inter-arrival gap of the Poisson arrivals, ns.
    pub mean_interarrival_ns: f64,
    /// Execute a correctness witness every N completions.
    pub witness_every: usize,
}

impl Default for CalibBenchConfig {
    fn default() -> Self {
        CalibBenchConfig {
            devices: 6,
            requests: 2_400,
            seed: 0xCA11B,
            drift_seed: 11,
            mean_interarrival_ns: 2_000.0,
            witness_every: 16,
        }
    }
}

impl CalibBenchConfig {
    /// Scaled-down configuration for the unit tests: same loop, an
    /// order of magnitude fewer requests.
    pub fn smoke() -> Self {
        CalibBenchConfig { devices: 4, requests: 320, witness_every: 32, ..Default::default() }
    }
}

/// What one run of the workload measured.
#[derive(Debug, Clone)]
pub struct CalibArm {
    /// Placement decisions recorded.
    pub decisions: usize,
    /// Mean |predicted − measured| placement error, µs.
    pub mean_abs_err_us: f64,
    /// Correctness witnesses that diverged (must be 0).
    pub witness_mismatches: usize,
}

/// The tracked report: record → calibrate → replay (+ mid-run swap).
#[derive(Debug, Clone)]
pub struct CalibBenchReport {
    pub cfg: CalibBenchConfig,
    pub record: CalibArm,
    pub replay: CalibArm,
    /// Architectures seen in the trace / of those, non-identity fits.
    pub fit_arches: usize,
    pub fit_corrected: usize,
    /// Regression rows across arches.
    pub fit_cases: usize,
    /// In-sample mean |model − actual| before/after correction, µs.
    pub fit_err_before_us: f64,
    pub fit_err_after_us: f64,
    /// Did the retrained selector pass its regret gate?
    pub retrain_accepted: bool,
    /// Distinct shape signatures the retrainer extracted.
    pub retrain_signatures: usize,
    /// Signatures whose faster-heuristic label flipped under the
    /// corrected model.
    pub retrain_label_flips: usize,
    /// Mean corrected-µs selection regret, baseline vs retrained.
    pub regret_before_us: f64,
    pub regret_after_us: f64,
    /// Structure of the selector forest before/after retraining
    /// (identical when the candidate was rejected).
    pub forest_before: ForestShape,
    pub forest_after: ForestShape,
    /// Serialized profile size, bytes (always round-tripped).
    pub profile_bytes: usize,
    /// Calibration epoch after the mid-run install.
    pub swap_version: u64,
    /// Requests completed / dropped by the swap arm.
    pub swap_completed: usize,
    pub swap_dropped: usize,
}

impl CalibBenchReport {
    /// Placement-error reduction of replay vs record, percent.
    pub fn err_reduction_pct(&self) -> f64 {
        if self.record.mean_abs_err_us <= 0.0 {
            return 0.0;
        }
        100.0 * (1.0 - self.replay.mean_abs_err_us / self.record.mean_abs_err_us)
    }
}

/// The calibration workload: `table2`'s six classes plus six more
/// signatures, so the retrainer sees enough distinct shapes to learn
/// from (its [`ctb_calib::retrain::MIN_SIGNATURES`] floor).
fn calib_mixes() -> Vec<ShapeMix> {
    fn sig(shapes: &[GemmShape]) -> Arc<[GemmShape]> {
        shapes.into()
    }
    vec![
        ShapeMix { name: "small", shapes: sig(&[GemmShape::new(32, 32, 64); 4]), weight: 18 },
        ShapeMix { name: "medium", shapes: sig(&[GemmShape::new(64, 64, 128); 3]), weight: 15 },
        ShapeMix { name: "large", shapes: sig(&[GemmShape::new(128, 128, 256); 2]), weight: 9 },
        ShapeMix { name: "tall", shapes: sig(&[GemmShape::new(256, 32, 64); 2]), weight: 8 },
        ShapeMix { name: "wide", shapes: sig(&[GemmShape::new(32, 256, 64); 2]), weight: 8 },
        ShapeMix { name: "huge", shapes: sig(&[GemmShape::new(256, 256, 512)]), weight: 4 },
        ShapeMix { name: "sliver", shapes: sig(&[GemmShape::new(16, 16, 512); 6]), weight: 10 },
        ShapeMix { name: "square", shapes: sig(&[GemmShape::new(96, 96, 96); 2]), weight: 8 },
        ShapeMix { name: "deep", shapes: sig(&[GemmShape::new(48, 48, 384); 2]), weight: 6 },
        ShapeMix { name: "skinny-k", shapes: sig(&[GemmShape::new(128, 128, 32); 2]), weight: 6 },
        ShapeMix { name: "row", shapes: sig(&[GemmShape::new(8, 256, 128); 3]), weight: 4 },
        ShapeMix { name: "col", shapes: sig(&[GemmShape::new(256, 8, 128); 3]), weight: 4 },
    ]
}

fn calib_load(cfg: &CalibBenchConfig) -> LoadGen {
    LoadGen::new(cfg.seed, cfg.mean_interarrival_ns, cfg.requests, calib_mixes())
}

fn engine_config(cfg: &CalibBenchConfig) -> EventConfig {
    EventConfig { witness_every: cfg.witness_every, ..EventConfig::default() }
}

fn arm_from(report: &EngineReport) -> CalibArm {
    let ds =
        TraceDataset::from_recording(report, None).expect("recorded arm always yields decisions");
    CalibArm {
        decisions: ds.decisions.len(),
        mean_abs_err_us: ds.mean_abs_err_us(),
        witness_mismatches: report.witness_mismatches,
    }
}

/// One run of the workload over the drifted pool. `profile` installs
/// before traffic (replay arm); `instrument` additionally records an
/// obs trace for reconciliation.
fn run_arm(
    cfg: &CalibBenchConfig,
    profile: Option<&CalibProfile>,
    instrument: bool,
) -> (EngineReport, Option<ctb_obs::TraceCounts>) {
    let pool = ArchSpec::pool_presets(cfg.devices);
    let (mut cluster, obs) = if instrument {
        let faults = vec![None; pool.len()];
        let (cluster, obs) =
            EventCluster::with_instrumentation(pool.clone(), engine_config(cfg), faults);
        (cluster, Some(obs))
    } else {
        (EventCluster::new(pool.clone(), engine_config(cfg)), None)
    };
    cluster.set_ground_truth(GroundTruth::drift(&pool, cfg.drift_seed));
    cluster.record_decisions(true);
    if let Some(p) = profile {
        p.install(cluster.share().calib());
    }
    cluster.load(calib_load(cfg));
    let report = cluster.run();
    let counts =
        obs.map(|o| TraceAudit::new(o.events()).check().expect("calibration trace audits clean"));
    (report, counts)
}

/// Record → fit → retrain → pack → replay → mid-run swap.
pub fn run_calib_bench(cfg: &CalibBenchConfig) -> CalibBenchReport {
    // 1. Record under the pristine model, instrumented.
    let (recording, counts) = run_arm(cfg, None, true);
    let dataset =
        TraceDataset::from_recording(&recording, counts.as_ref()).expect("recording ingests");

    // 2. Fit corrections and retrain the selector from the trace.
    let fit = fit_decisions(&dataset.decisions);
    let arch = ArchSpec::volta_v100();
    let thresholds = Thresholds::for_arch(&arch);
    let baseline = OnlineSelector::pretrained_v100();
    let corrections = fit.correction_set();
    let retrained =
        retrain_selector(&arch, &thresholds, &dataset.decisions, &corrections, &baseline);
    let forest_before = forest_shape(baseline.forest());
    let (selector_forest, forest_after, retrain_accepted, signatures, label_flips, regret) =
        match &retrained {
            Some((sel, rep)) => (
                Some(sel.forest().clone()),
                rep.shape_after.clone(),
                true,
                rep.signatures,
                rep.label_flips,
                (rep.regret_before_us, rep.regret_after_us),
            ),
            None => (None, forest_before.clone(), false, 0, 0, (0.0, 0.0)),
        };

    // 3. Pack the profile and prove its wire format round-trips.
    let profile = CalibProfile {
        corrections,
        selector_forest,
        meta: ProfileMeta {
            source_decisions: dataset.decisions.len() as u64,
            trained_cases: signatures as u64,
            drift_seed: cfg.drift_seed,
        },
    };
    let bytes = profile.to_bytes();
    let profile = CalibProfile::from_bytes(&bytes).expect("profile round-trips");
    assert_eq!(profile.to_bytes(), bytes, "profile wire format is byte-stable");

    // 4. Replay the identical workload with the profile installed.
    let (replayed, _) = run_arm(cfg, Some(&profile), false);

    // 5. Swap arm: install mid-run; nothing may drop.
    let pool = ArchSpec::pool_presets(cfg.devices);
    let mut swap = EventCluster::new(pool.clone(), engine_config(cfg));
    swap.set_ground_truth(GroundTruth::drift(&pool, cfg.drift_seed));
    swap.load(calib_load(cfg));
    swap.run_steps(cfg.requests as u64 / 2);
    let swap_version = profile.install(swap.share().calib());
    let swap_report = swap.run();
    let swap_completed =
        swap_report.outcomes.iter().filter(|o| matches!(o, ReqOutcome::Done { .. })).count();

    CalibBenchReport {
        cfg: cfg.clone(),
        record: arm_from(&recording),
        replay: arm_from(&replayed),
        fit_arches: fit.arches.len(),
        fit_corrected: fit.arches.iter().filter(|a| !a.correction.is_identity()).count(),
        fit_cases: fit.cases,
        fit_err_before_us: fit.mean_err_before_us(),
        fit_err_after_us: fit.mean_err_after_us(),
        retrain_accepted,
        retrain_signatures: signatures,
        retrain_label_flips: label_flips,
        regret_before_us: regret.0,
        regret_after_us: regret.1,
        forest_before,
        forest_after,
        profile_bytes: bytes.len(),
        swap_version,
        swap_completed,
        swap_dropped: cfg.requests - swap_completed,
    }
}

/// The tracked `BENCH_calibrate.json` report.
pub fn report_json(r: &CalibBenchReport) -> Json {
    let arm = |a: &CalibArm| {
        Json::obj([
            ("decisions", a.decisions.into()),
            ("mean_abs_err_us", Json::fixed(a.mean_abs_err_us, 4)),
            ("witness_mismatches", a.witness_mismatches.into()),
        ])
    };
    let forest = |s: &ForestShape| {
        Json::obj([
            ("trees", s.trees.into()),
            ("total_nodes", s.total_nodes.into()),
            ("max_depth", s.max_depth.into()),
            ("depth_histogram", Json::arr(s.depth_histogram.iter().map(|&n| n.into()))),
            ("splits_m", s.feature_splits[0].into()),
            ("splits_n", s.feature_splits[1].into()),
            ("splits_k", s.feature_splits[2].into()),
            ("splits_b", s.feature_splits[3].into()),
        ])
    };
    let fit = Json::obj([
        ("arches", r.fit_arches.into()),
        ("corrected", r.fit_corrected.into()),
        ("cases", r.fit_cases.into()),
        ("err_before_us", Json::fixed(r.fit_err_before_us, 4)),
        ("err_after_us", Json::fixed(r.fit_err_after_us, 4)),
    ]);
    let retrain = Json::obj([
        ("accepted", r.retrain_accepted.into()),
        ("signatures", r.retrain_signatures.into()),
        ("label_flips", r.retrain_label_flips.into()),
        ("regret_before_us", Json::fixed(r.regret_before_us, 4)),
        ("regret_after_us", Json::fixed(r.regret_after_us, 4)),
    ]);
    let profile =
        Json::obj([("version", PROFILE_VERSION.into()), ("bytes", r.profile_bytes.into())]);
    let swap = Json::obj([
        ("installed_version", r.swap_version.into()),
        ("completed", r.swap_completed.into()),
        ("dropped", r.swap_dropped.into()),
    ]);
    Json::obj([
        ("bench", "calibrate".into()),
        ("devices", r.cfg.devices.into()),
        ("requests", r.cfg.requests.into()),
        ("seed", r.cfg.seed.into()),
        ("drift_seed", r.cfg.drift_seed.into()),
        ("record", arm(&r.record)),
        ("fit", fit),
        ("retrain", retrain),
        ("forest_before", forest(&r.forest_before)),
        ("forest_after", forest(&r.forest_after)),
        ("profile", profile),
        ("replay", arm(&r.replay)),
        ("swap", swap),
        ("err_reduction_pct", Json::fixed(r.err_reduction_pct(), 2)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_loop_reduces_error_and_drops_nothing() {
        let r = run_calib_bench(&CalibBenchConfig::smoke());
        assert_eq!(r.record.witness_mismatches, 0);
        assert_eq!(r.replay.witness_mismatches, 0);
        assert!(r.record.mean_abs_err_us > 0.0, "drift must show up as error");
        assert!(
            r.replay.mean_abs_err_us < r.record.mean_abs_err_us,
            "calibration must strictly reduce placement error ({} -> {})",
            r.record.mean_abs_err_us,
            r.replay.mean_abs_err_us
        );
        assert!(r.fit_corrected > 0, "a drifted pool needs at least one correction");
        assert_eq!(r.swap_dropped, 0, "mid-run install dropped requests");
        assert_eq!(r.swap_version, 1);
        assert!(r.profile_bytes > 0);
        crate::assert_committed_keys("calibrate", &report_json(&r));
    }

    #[test]
    fn workload_has_enough_distinct_signatures_to_retrain() {
        let sigs: std::collections::BTreeSet<String> =
            calib_mixes().iter().map(|m| format!("{:?}", m.shapes)).collect();
        assert!(
            sigs.len() >= ctb_calib::retrain::MIN_SIGNATURES,
            "only {} distinct signatures",
            sigs.len()
        );
    }
}
