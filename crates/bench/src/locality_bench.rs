//! `reproduce locality` — locality-aware vs locality-blind placement on
//! a drifted multi-chiplet pool.
//!
//! One seeded open-loop workload runs twice over the same pool of
//! multi-chiplet devices (MCM-GPU 4-die presets: four HBM stacks behind
//! an interposer, so a placement away from a batch's operand home pays
//! a real staging cost). The **aware** arm ranks candidates with the
//! locality routing penalty; the **blind** arm is the backlog-only
//! placer. Everything else — arrivals, seeds, drift, witnesses,
//! residency *bookkeeping* — is identical, so the remote-traffic gap
//! between the arms is attributable to the ranking change alone.
//!
//! The run is gated: the aware arm must take strictly fewer remote
//! placements *and* charge strictly fewer remote operand bytes, with
//! zero witness mismatches in both arms (`reproduce locality` exits
//! non-zero otherwise). Runs land in `BENCH_locality.json` at the
//! repository root, with the key set gated against the committed
//! `BENCH_locality.json`. The run is deterministic, so CI also requires
//! it to regenerate that file byte for byte.

use crate::Json;
use ctb_cluster::{
    EventCluster, EventConfig, GroundTruth, LoadGen, LocalityPolicy, ReqOutcome, ShapeMix,
};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use ctb_obs::TraceAudit;
use std::sync::Arc;

/// Workload knobs; both arms replay the same seeded stream over the
/// same drifted pool.
#[derive(Debug, Clone)]
pub struct LocalityBenchConfig {
    /// Identical multi-chiplet devices in the pool (an MCM node).
    pub devices: usize,
    /// Requests per arm.
    pub requests: usize,
    /// Load-stream seed.
    pub seed: u64,
    /// Ground-truth drift seed (how each device class's true silicon
    /// diverges from the nominal spec the model sees).
    pub drift_seed: u64,
    /// Mean inter-arrival gap of the Poisson arrivals, ns. Kept well
    /// under the per-batch service time so the pool stays contended —
    /// the regime where a backlog-only ranking migrates signatures.
    pub mean_interarrival_ns: f64,
    /// Execute a correctness witness every N completions.
    pub witness_every: usize,
}

impl Default for LocalityBenchConfig {
    fn default() -> Self {
        LocalityBenchConfig {
            devices: 4,
            requests: 2_000,
            seed: 0x10CA_117E,
            drift_seed: 23,
            mean_interarrival_ns: 60_000.0,
            witness_every: 16,
        }
    }
}

impl LocalityBenchConfig {
    /// Scaled-down configuration for the unit tests: same
    /// differential, an order of magnitude fewer requests.
    pub fn smoke() -> Self {
        LocalityBenchConfig { devices: 3, requests: 240, witness_every: 32, ..Default::default() }
    }
}

/// What one arm of the differential measured.
#[derive(Debug, Clone)]
pub struct LocalityArm {
    /// Requests that completed (vs rejected under overload).
    pub completed: usize,
    /// Placement landings (including re-routes).
    pub routed: usize,
    /// Work-stealing landings.
    pub steals: usize,
    /// Landings on the device already holding the operands.
    pub residency_hits: usize,
    /// Landings that staged operands across the interposer.
    pub residency_misses: usize,
    /// Remote share of the operand bytes those misses moved.
    pub remote_operand_bytes: u64,
    /// Pool makespan in simulated µs.
    pub makespan_sim_us: f64,
    /// Correctness witnesses that diverged (must be 0).
    pub witness_mismatches: usize,
}

impl LocalityArm {
    /// Fraction of landings that found their operands resident.
    pub fn hit_rate(&self) -> f64 {
        let landings = self.residency_hits + self.residency_misses;
        if landings == 0 {
            return 0.0;
        }
        self.residency_hits as f64 / landings as f64
    }
}

/// The tracked report: one aware arm, one blind arm, same workload.
#[derive(Debug, Clone)]
pub struct LocalityBenchReport {
    pub cfg: LocalityBenchConfig,
    pub aware: LocalityArm,
    pub blind: LocalityArm,
}

impl LocalityBenchReport {
    /// Remote-traffic reduction of aware vs blind, percent.
    pub fn remote_bytes_reduction_pct(&self) -> f64 {
        if self.blind.remote_operand_bytes == 0 {
            return 0.0;
        }
        100.0
            * (1.0
                - self.aware.remote_operand_bytes as f64 / self.blind.remote_operand_bytes as f64)
    }

    /// Remote-placement (residency-miss) reduction, percent.
    pub fn miss_reduction_pct(&self) -> f64 {
        if self.blind.residency_misses == 0 {
            return 0.0;
        }
        100.0 * (1.0 - self.aware.residency_misses as f64 / self.blind.residency_misses as f64)
    }

    /// The gate `reproduce locality` enforces: strictly fewer remote
    /// placements, strictly fewer remote bytes, zero mismatches.
    pub fn gate_passed(&self) -> bool {
        self.aware.residency_misses < self.blind.residency_misses
            && self.aware.remote_operand_bytes < self.blind.remote_operand_bytes
            && self.aware.witness_mismatches == 0
            && self.blind.witness_mismatches == 0
    }
}

/// The locality workload: a handful of recurring batch signatures (the
/// serving regime residency can exploit) with enough classes that the
/// backlog argmin keeps interleaving them across devices.
fn locality_mixes() -> Vec<ShapeMix> {
    fn sig(shapes: &[GemmShape]) -> Arc<[GemmShape]> {
        shapes.into()
    }
    vec![
        ShapeMix { name: "attention", shapes: sig(&[GemmShape::new(96, 96, 384); 2]), weight: 22 },
        ShapeMix { name: "mlp-up", shapes: sig(&[GemmShape::new(128, 256, 128); 2]), weight: 18 },
        ShapeMix { name: "mlp-down", shapes: sig(&[GemmShape::new(256, 64, 256)]), weight: 16 },
        ShapeMix {
            name: "ragged",
            shapes: sig(&[GemmShape::new(48, 64, 96), GemmShape::new(16, 32, 640)]),
            weight: 16,
        },
        ShapeMix { name: "tile-row", shapes: sig(&[GemmShape::new(128, 32, 32); 4]), weight: 14 },
        ShapeMix { name: "square", shapes: sig(&[GemmShape::new(96, 96, 96); 3]), weight: 14 },
    ]
}

/// The multi-chiplet pool both arms place onto: `devices` identical
/// MCM-GPU 4-die presets. Identical replicas are the common node
/// layout, and they put the ranking decision in sharpest relief — the
/// cost model predicts the same time everywhere, so the blind argmin is
/// pure backlog-chasing while the aware one can prefer the operand
/// home.
pub fn locality_pool(devices: usize) -> Vec<ArchSpec> {
    (0..devices).map(|_| ArchSpec::mcm_gpu_4die()).collect()
}

fn engine_config(cfg: &LocalityBenchConfig, locality: LocalityPolicy) -> EventConfig {
    EventConfig { witness_every: cfg.witness_every, locality, ..EventConfig::default() }
}

/// Run one arm: same pool, same drift, same load — only the ranking
/// policy differs. Instrumented; the trace must audit clean and
/// reconcile with the residency counters.
fn run_arm(cfg: &LocalityBenchConfig, locality: LocalityPolicy) -> LocalityArm {
    let pool = locality_pool(cfg.devices);
    let n = pool.len();
    let truth = GroundTruth::drift(&pool, cfg.drift_seed);
    let (mut eng, obs) =
        EventCluster::with_instrumentation(pool, engine_config(cfg, locality), vec![None; n]);
    eng.set_ground_truth(truth);
    eng.load(LoadGen::new(cfg.seed, cfg.mean_interarrival_ns, cfg.requests, locality_mixes()));
    let report = eng.run();
    let counts = TraceAudit::new(obs.events()).check().expect("locality trace audits clean");
    assert_eq!(counts.residency_hits, report.stats.residency_hits, "hit events reconcile");
    assert_eq!(counts.residency_misses, report.stats.residency_misses, "miss events reconcile");
    let completed = report.outcomes.iter().filter(|o| matches!(o, ReqOutcome::Done { .. })).count();
    LocalityArm {
        completed,
        routed: report.stats.routed,
        steals: report.stats.steals,
        residency_hits: report.stats.residency_hits,
        residency_misses: report.stats.residency_misses,
        remote_operand_bytes: report.stats.remote_operand_bytes,
        makespan_sim_us: report.stats.makespan_sim_us,
        witness_mismatches: report.witness_mismatches,
    }
}

/// Both arms of the differential.
pub fn run_locality_bench(cfg: &LocalityBenchConfig) -> LocalityBenchReport {
    let aware = run_arm(cfg, LocalityPolicy::default());
    let blind = run_arm(cfg, LocalityPolicy::blind());
    LocalityBenchReport { cfg: cfg.clone(), aware, blind }
}

/// The tracked `BENCH_locality.json` report.
pub fn report_json(r: &LocalityBenchReport) -> Json {
    let arm = |a: &LocalityArm| {
        Json::obj([
            ("completed", a.completed.into()),
            ("routed", a.routed.into()),
            ("steals", a.steals.into()),
            ("residency_hits", a.residency_hits.into()),
            ("residency_misses", a.residency_misses.into()),
            ("hit_rate", Json::fixed(a.hit_rate(), 4)),
            ("remote_operand_bytes", a.remote_operand_bytes.into()),
            ("makespan_sim_us", Json::fixed(a.makespan_sim_us, 1)),
            ("witness_mismatches", a.witness_mismatches.into()),
        ])
    };
    Json::obj([
        ("bench", "locality".into()),
        ("devices", r.cfg.devices.into()),
        ("requests", r.cfg.requests.into()),
        ("seed", r.cfg.seed.into()),
        ("drift_seed", r.cfg.drift_seed.into()),
        ("mean_interarrival_ns", Json::fixed(r.cfg.mean_interarrival_ns, 1)),
        ("aware", arm(&r.aware)),
        ("blind", arm(&r.blind)),
        ("miss_reduction_pct", Json::fixed(r.miss_reduction_pct(), 2)),
        ("remote_bytes_reduction_pct", Json::fixed(r.remote_bytes_reduction_pct(), 2)),
        ("gate_passed", r.gate_passed().into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_differential_passes_its_own_gate() {
        let r = run_locality_bench(&LocalityBenchConfig::smoke());
        assert_eq!(r.aware.witness_mismatches, 0);
        assert_eq!(r.blind.witness_mismatches, 0);
        assert_eq!(r.aware.completed, r.cfg.requests, "aware arm dropped requests");
        assert_eq!(r.blind.completed, r.cfg.requests, "blind arm dropped requests");
        assert!(r.blind.remote_operand_bytes > 0, "the pool never crossed the interposer");
        assert!(
            r.gate_passed(),
            "aware must strictly reduce remote traffic: misses {} vs {}, bytes {} vs {}",
            r.aware.residency_misses,
            r.blind.residency_misses,
            r.aware.remote_operand_bytes,
            r.blind.remote_operand_bytes
        );
        crate::assert_committed_keys("locality", &report_json(&r));
    }

    #[test]
    fn pool_is_multi_chiplet_throughout() {
        for spec in locality_pool(4) {
            assert!(!spec.topology.is_unified(), "{} must be multi-chiplet", spec.name);
        }
    }
}
