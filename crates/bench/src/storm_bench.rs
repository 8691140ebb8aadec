//! `reproduce storm` — plan-cache admission under a distinct-shape storm.
//!
//! Drives a `ctb-serve` server through the [`closed_loop`], whose
//! producers block in `Server::submit`, with shapes drawn from a huge
//! shape space (10^6 distinct signatures at the full scale): a small
//! hot set of repeated signatures carries half the traffic, the rest
//! are effectively one-off shapes. The same seeded request streams run
//! twice against two plan caches of equal capacity:
//!
//! * **baseline** — admit-everything (every one-off shape is inserted
//!   and churns the FIFO, evicting hot entries), and
//! * **gated** — the Bloom "seen twice" doorkeeper (one-off shapes are
//!   planned but never cached, so the hot set stays resident).
//!
//! Coalescing is disabled (`max_batch: 1`) so the cache key stream is
//! exactly the per-request shape stream — the point of this harness is
//! cache admission, not batching, and per-request keys make the two
//! arms directly comparable. Every served result is still verified
//! bitwise against the exact oracle. Full runs land in
//! `BENCH_storm.json` at the repository root (`--smoke` writes
//! `target/experiments/BENCH_storm.json` instead), with the key
//! set gated against the committed `BENCH_storm.json`.

use crate::{closed_loop, percentile, Json};
use ctb_core::hash::{mix64, GOLDEN_GAMMA};
use ctb_core::{AdmissionPolicy, Framework, PlanShare, PlanShareConfig, Session};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use ctb_serve::{ServeConfig, Server};
use std::sync::Arc;
use std::time::Duration;

/// Workload knobs; the same config (and therefore the same seeded
/// request streams) is replayed against both cache arms.
#[derive(Debug, Clone)]
pub struct StormBenchConfig {
    /// Closed-loop producer threads.
    pub producers: usize,
    /// Requests per producer.
    pub per_producer: usize,
    /// Size of the sampled shape space (distinct `MxNxK` signatures).
    pub shape_space: usize,
    /// Hot signatures that carry [`Self::hot_per_mille`] of the traffic.
    pub hot_shapes: usize,
    /// Per-mille of requests drawn from the hot set.
    pub hot_per_mille: u32,
    /// Cached-plan capacity of each arm.
    pub capacity_total: usize,
    /// Stream seed (also salts the Bloom gate).
    pub seed: u64,
}

impl Default for StormBenchConfig {
    fn default() -> Self {
        StormBenchConfig {
            producers: 4,
            per_producer: 1_500,
            shape_space: 1_000_000,
            hot_shapes: 32,
            hot_per_mille: 500,
            capacity_total: 256,
            seed: 0x57_0F_A1,
        }
    }
}

impl StormBenchConfig {
    /// Scaled-down configuration for the CI gate: same storm structure
    /// (cold churn far exceeding the cache bound), two orders of
    /// magnitude fewer requests.
    pub fn smoke() -> Self {
        StormBenchConfig {
            producers: 2,
            per_producer: 150,
            hot_shapes: 8,
            capacity_total: 32,
            ..StormBenchConfig::default()
        }
    }
}

/// Service-level numbers for one cache arm.
#[derive(Debug, Clone)]
pub struct StormArm {
    /// `"admit_all"` or `"seen_twice"`.
    pub admission: &'static str,
    /// Plan-cache hits over the run.
    pub plan_cache_hits: usize,
    /// Plan-cache misses (distinct signatures + churn re-plans).
    pub plan_cache_misses: usize,
    /// hits / (hits + misses).
    pub hit_rate: f64,
    /// Insert attempts the admission gate let through.
    pub admitted: usize,
    /// Insert attempts denied (first sightings under "seen twice").
    pub denied: usize,
    /// Doorkeeper tag slots overwritten by colliding keys.
    pub evicted_tags: usize,
    /// End-to-end wall time of the closed loop.
    pub wall_ms: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Median request latency, µs.
    pub p50_us: f64,
    /// 95th-percentile request latency, µs.
    pub p95_us: f64,
}

/// The tracked report: one workload, two cache arms.
#[derive(Debug, Clone)]
pub struct StormBenchReport {
    pub cfg: StormBenchConfig,
    /// Requests completed per arm (`producers * per_producer`).
    pub requests: usize,
    /// Admit-all.
    pub baseline: StormArm,
    /// Bloom "seen twice".
    pub gated: StormArm,
}

/// SplitMix64 as a stream generator: one independent stream per
/// producer so both arms replay identical request sequences.
fn next_draw(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN_GAMMA);
    mix64(*state)
}

/// Map an index of the shape space to a distinct small signature
/// (`M`, `N`, `K` each in `1..=100`, so a space of 100^3 = 10^6).
fn shape_at(index: usize) -> GemmShape {
    GemmShape::new(1 + index % 100, 1 + (index / 100) % 100, 1 + (index / 10_000) % 100)
}

/// The `i`-th request of producer `t`: hot with probability
/// `hot_per_mille`, otherwise a uniform draw from the shape space.
fn request_shape(cfg: &StormBenchConfig, t: usize, i: usize) -> GemmShape {
    let mut state = cfg.seed ^ ((t as u64) << 32) ^ i as u64;
    let roll = next_draw(&mut state);
    if (roll % 1000) < cfg.hot_per_mille as u64 {
        // Hot set: spread through the space.
        let hot = next_draw(&mut state) as usize % cfg.hot_shapes;
        shape_at(hot * (cfg.shape_space / cfg.hot_shapes))
    } else {
        shape_at(next_draw(&mut state) as usize % cfg.shape_space)
    }
}

/// Run the storm once against a cache built from `share_cfg`; every
/// result is verified bitwise against the exact oracle.
fn run_arm(arch: &ArchSpec, cfg: &StormBenchConfig, share_cfg: PlanShareConfig) -> StormArm {
    let share = Arc::new(PlanShare::with_config(share_cfg));
    let session = Arc::new(Session::with_share(Framework::new(arch.clone()), share));
    let server = Server::with_session(
        session,
        ServeConfig {
            max_batch: 1,
            batch_window: Duration::from_micros(50),
            queue_capacity: 64,
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let run =
        closed_loop(&server, cfg.producers, cfg.per_producer, |t, i| request_shape(cfg, t, i));
    let stats = server.shutdown();
    let requests = cfg.producers * cfg.per_producer;
    assert_eq!(stats.completed, requests, "the storm completed everything it submitted");

    StormArm {
        admission: match share_cfg.admission {
            AdmissionPolicy::AdmitAll => "admit_all",
            AdmissionPolicy::SeenTwice { .. } => "seen_twice",
        },
        plan_cache_hits: stats.plan_cache.hits,
        plan_cache_misses: stats.plan_cache.misses,
        hit_rate: stats.plan_cache.hit_rate(),
        admitted: stats.cache_admission.admitted,
        denied: stats.cache_admission.denied,
        evicted_tags: stats.cache_admission.evicted_tags,
        wall_ms: run.wall_ms,
        throughput_rps: run.throughput_rps(),
        p50_us: percentile(&run.latencies_us, 0.50),
        p95_us: percentile(&run.latencies_us, 0.95),
    }
}

/// Run both arms over the identical seeded streams.
pub fn run_storm_bench(arch: &ArchSpec, cfg: &StormBenchConfig) -> StormBenchReport {
    let capacity = Some(cfg.capacity_total);
    let baseline =
        run_arm(arch, cfg, PlanShareConfig { capacity, admission: AdmissionPolicy::AdmitAll });
    let gated = run_arm(
        arch,
        cfg,
        PlanShareConfig {
            capacity,
            admission: AdmissionPolicy::SeenTwice { seed: cfg.seed, slots_log2: 12 },
        },
    );
    StormBenchReport {
        cfg: cfg.clone(),
        requests: cfg.producers * cfg.per_producer,
        baseline,
        gated,
    }
}

/// The tracked `BENCH_storm.json` report.
pub fn report_json(arch: &ArchSpec, r: &StormBenchReport) -> Json {
    let arm = |a: &StormArm| {
        Json::obj([
            ("admission", a.admission.into()),
            ("plan_cache_hits", a.plan_cache_hits.into()),
            ("plan_cache_misses", a.plan_cache_misses.into()),
            ("hit_rate", Json::fixed(a.hit_rate, 4)),
            ("admitted", a.admitted.into()),
            ("denied", a.denied.into()),
            ("evicted_tags", a.evicted_tags.into()),
            ("wall_ms", Json::fixed(a.wall_ms, 3)),
            ("throughput_rps", Json::fixed(a.throughput_rps, 1)),
            ("p50_us", Json::fixed(a.p50_us, 1)),
            ("p95_us", Json::fixed(a.p95_us, 1)),
        ])
    };
    Json::obj([
        ("bench", "storm".into()),
        ("arch", arch.name.into()),
        ("producers", r.cfg.producers.into()),
        ("requests", r.requests.into()),
        ("shape_space", r.cfg.shape_space.into()),
        ("hot_shapes", r.cfg.hot_shapes.into()),
        ("capacity_total", r.cfg.capacity_total.into()),
        ("baseline", arm(&r.baseline)),
        ("gated", arm(&r.gated)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_mostly_distinct() {
        let cfg = StormBenchConfig::smoke();
        let a: Vec<GemmShape> = (0..50).map(|i| request_shape(&cfg, 1, i)).collect();
        let b: Vec<GemmShape> = (0..50).map(|i| request_shape(&cfg, 1, i)).collect();
        assert_eq!(a, b, "streams are a pure function of (seed, producer, index)");
        let distinct: std::collections::HashSet<String> = a.iter().map(|s| s.to_string()).collect();
        assert!(distinct.len() > 10, "a storm draws many distinct shapes, got {}", distinct.len());
    }

    #[test]
    fn shape_space_is_injective_over_the_first_million() {
        let mut seen = std::collections::HashSet::new();
        for index in (0..1_000_000).step_by(997) {
            assert!(seen.insert(shape_at(index).to_string()), "index {index} collides");
        }
        assert_eq!(shape_at(0), GemmShape::new(1, 1, 1));
        assert_eq!(shape_at(999_999), GemmShape::new(100, 100, 100));
    }

    #[test]
    fn tiny_storm_reports_sane_numbers_per_arm() {
        let cfg = StormBenchConfig {
            producers: 2,
            per_producer: 20,
            hot_shapes: 4,
            capacity_total: 8,
            ..StormBenchConfig::default()
        };
        let r = run_storm_bench(&ArchSpec::volta_v100(), &cfg);
        assert_eq!(r.requests, 40);
        assert_eq!(r.baseline.admission, "admit_all");
        assert_eq!(r.gated.admission, "seen_twice");
        assert_eq!(r.baseline.denied, 0, "admit-all never denies");
        assert!(r.gated.denied > 0, "one-off shapes are denied by the doorkeeper");
        for a in [&r.baseline, &r.gated] {
            assert_eq!(a.plan_cache_hits + a.plan_cache_misses, 40);
            assert!((0.0..=1.0).contains(&a.hit_rate));
            assert!(a.p95_us >= a.p50_us);
        }
        crate::assert_committed_keys("storm", &report_json(&ArchSpec::volta_v100(), &r));
    }
}
