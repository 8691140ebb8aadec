//! Ablation studies over the design choices `DESIGN.md` calls out:
//!
//! 1. **tiling adaptivity** — the tiling engine vs forcing one uniform
//!    strategy (what MAGMA-style fixed blocking would do with our
//!    execution quality);
//! 2. **TLP threshold sensitivity** — sweep the tiling engine's
//!    threshold around the paper's 65536;
//! 3. **θ sensitivity** — sweep the batching engine's per-block K target;
//! 4. **cross-tile prefetch** — charge the pipeline fill per tile
//!    instead of per block (disables the batching engine's ILP benefit);
//! 5. **heuristic vs simulated optimum** — the paper's selection
//!    algorithm against the exhaustive autotuner;
//! 6. **tile order** — GEMM-major vs interleaved vs K-descending feeds
//!    into threshold batching.

use crate::geomean;
use ctb_batching::{assign_blocks, order_tiles, tiles_for, BatchPlan, BatchingHeuristic, TileOrder};
use ctb_core::autotune::autotune;
use ctb_core::lowering::lower_plan;
use ctb_core::Framework;
use ctb_core::FrameworkConfig;
use ctb_gpu_specs::{ArchSpec, Thresholds};
use ctb_matrix::gen;
use ctb_matrix::GemmShape;
use ctb_sim::{simulate, LaunchSequence};
use ctb_tiling::strategy::{batched, StrategyKind, ThreadCount};
use ctb_tiling::{model, select_tiling, TilingSolution};

/// A labelled ablation data point: configuration → geometric-mean
/// simulated time (µs) over the workload set.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationPoint {
    pub label: String,
    pub mean_us: f64,
}

/// The standard workload set for ablations: a slice of the Fig 9 grid
/// plus random variable-size cases.
pub fn ablation_workloads(seed: u64) -> Vec<Vec<GemmShape>> {
    let mut w = Vec::new();
    for b in [4usize, 16] {
        for mn in [64usize, 256] {
            for k in [16usize, 256, 2048] {
                w.push(gen::uniform_case(b, mn, mn, k));
            }
        }
    }
    w.extend(gen::random_cases(8, seed));
    w
}

fn mean_time<F: Fn(&[GemmShape]) -> f64>(workloads: &[Vec<GemmShape>], f: F) -> f64 {
    geomean(&workloads.iter().map(|s| f(s)).collect::<Vec<_>>())
}

fn simulate_uniform_kind(
    arch: &ArchSpec,
    shapes: &[GemmShape],
    kind: StrategyKind,
    thresholds: &Thresholds,
) -> f64 {
    let per_gemm: Vec<_> = shapes
        .iter()
        .map(|s| {
            // Clamp the target kind down to what fits this GEMM.
            StrategyKind::ALL
                .iter()
                .rev()
                .map(|&k| batched(k, ThreadCount::T256))
                .find(|st| st.kind <= kind && st.fits(s.m, s.n))
                .unwrap_or(batched(StrategyKind::Small, ThreadCount::T256))
        })
        .collect();
    let tlp = model::tlp(shapes, &per_gemm);
    let sol = TilingSolution { thread_count: ThreadCount::T256, per_gemm, tlp };
    let tiles = tiles_for(shapes, &sol);
    let blocks = assign_blocks(&tiles, BatchingHeuristic::OneTilePerBlock, thresholds, 256);
    let plan = BatchPlan::from_blocks(&blocks, 256);
    let kd = lower_plan("uniform", &plan, shapes);
    simulate(arch, &LaunchSequence::Single(kd)).total_us
}

/// Ablation 1: adaptive tiling vs fixed uniform strategies.
pub fn ablate_tiling_adaptivity(arch: &ArchSpec) -> Vec<AblationPoint> {
    let th = Thresholds::for_arch(arch);
    let workloads = ablation_workloads(41);
    let fw = Framework::new(arch.clone());
    let mut out = vec![AblationPoint {
        label: "adaptive (tiling engine)".into(),
        mean_us: mean_time(&workloads, |s| fw.plan(s).expect("plannable").predicted_us),
    }];
    for kind in [StrategyKind::Small, StrategyKind::Medium, StrategyKind::Large, StrategyKind::Huge]
    {
        out.push(AblationPoint {
            label: format!("uniform {kind}"),
            mean_us: mean_time(&workloads, |s| simulate_uniform_kind(arch, s, kind, &th)),
        });
    }
    out
}

/// Ablation 2: TLP-threshold sensitivity (×¼ … ×4 around the deployed
/// value).
pub fn ablate_tlp_threshold(arch: &ArchSpec) -> Vec<AblationPoint> {
    let base = Thresholds::for_arch(arch);
    let workloads = ablation_workloads(42);
    [base.tlp_threshold / 4, base.tlp_threshold / 2, base.tlp_threshold, base.tlp_threshold * 2, base.tlp_threshold * 4]
        .into_iter()
        .map(|t| {
            let fw = Framework::with_config(
                arch.clone(),
                FrameworkConfig {
                    thresholds: Some(Thresholds { tlp_threshold: t, theta: base.theta }),
                    ..FrameworkConfig::default()
                },
            );
            AblationPoint {
                label: format!("TLP threshold {t}"),
                mean_us: mean_time(&workloads, |s| {
                    fw.plan(s).expect("plannable").predicted_us
                }),
            }
        })
        .collect()
}

/// Ablation 3: θ sensitivity on a small-K workload (where the batching
/// engine actually deepens blocks).
pub fn ablate_theta(arch: &ArchSpec) -> Vec<AblationPoint> {
    let base = Thresholds::for_arch(arch);
    // Small-K, many tiles: the regime θ governs.
    let workloads: Vec<Vec<GemmShape>> = (0..6)
        .map(|i| gen::uniform_case(16 + 4 * i, 192, 192, 16 << (i % 3)))
        .collect();
    [64u32, 128, 256, 512, 1024]
        .into_iter()
        .map(|theta| {
            let th = Thresholds { tlp_threshold: base.tlp_threshold, theta };
            let mean_us = mean_time(&workloads, |s| {
                let sol = select_tiling(s, &th);
                let tiles = tiles_for(s, &sol);
                let blocks = assign_blocks(
                    &tiles,
                    BatchingHeuristic::Threshold,
                    &th,
                    sol.thread_count.threads(),
                );
                let plan = BatchPlan::from_blocks(&blocks, sol.thread_count.threads());
                let kd = lower_plan("theta", &plan, s);
                simulate(arch, &LaunchSequence::Single(kd)).total_us
            });
            AblationPoint { label: format!("theta {theta}"), mean_us }
        })
        .collect()
}

/// Ablation 4: cross-tile prefetch on/off for threshold-batched plans.
pub fn ablate_cross_tile_prefetch(arch: &ArchSpec) -> Vec<AblationPoint> {
    let th = Thresholds::for_arch(arch);
    let workloads: Vec<Vec<GemmShape>> =
        (0..6).map(|i| gen::uniform_case(24, 160 + 16 * i, 160, 16)).collect();
    let run = |per_tile: bool| {
        mean_time(&workloads, |s| {
            let sol = select_tiling(s, &th);
            let tiles = tiles_for(s, &sol);
            let blocks =
                assign_blocks(&tiles, BatchingHeuristic::Threshold, &th, sol.thread_count.threads());
            let plan = BatchPlan::from_blocks(&blocks, sol.thread_count.threads());
            let mut kd = lower_plan("prefetch", &plan, s);
            if per_tile {
                kd = kd.without_cross_tile_prefetch();
            }
            simulate(arch, &LaunchSequence::Single(kd)).total_us
        })
    };
    vec![
        AblationPoint { label: "cross-tile prefetch (paper)".into(), mean_us: run(false) },
        AblationPoint { label: "fill per tile (ablated)".into(), mean_us: run(true) },
    ]
}

/// Ablation 5: the §4.2.3 heuristic vs the simulation-driven autotuner.
pub fn ablate_heuristic_vs_autotune(arch: &ArchSpec) -> Vec<AblationPoint> {
    let th = Thresholds::for_arch(arch);
    let workloads = gen::random_cases(6, 43);
    let heuristic = mean_time(&workloads, |s| {
        Framework::new(arch.clone()).plan(s).expect("plannable").predicted_us
    });
    let tuned = mean_time(&workloads, |s| autotune(arch, s, &th).us);
    vec![
        AblationPoint { label: "paper heuristic".into(), mean_us: heuristic },
        AblationPoint { label: "exhaustive autotune".into(), mean_us: tuned },
    ]
}

/// Ablation 7: the dynamic-queue (persistent work-queue) extension vs
/// the paper's static heuristics, on heterogeneous-K batches where load
/// balance matters.
pub fn ablate_dynamic_queue(arch: &ArchSpec) -> Vec<AblationPoint> {
    let th = Thresholds::for_arch(arch);
    // Heterogeneous K: a few deep GEMMs among many shallow ones.
    let workloads: Vec<Vec<GemmShape>> = (0..6)
        .map(|i| {
            let mut s = vec![GemmShape::new(64, 64, 2048); 2 + i % 3];
            s.extend(vec![GemmShape::new(64, 64, 32); 24]);
            s
        })
        .collect();
    let fw = Framework::new(arch.clone());
    vec![
        AblationPoint {
            label: "best static heuristic".into(),
            mean_us: mean_time(&workloads, |s| fw.plan(s).expect("plannable").predicted_us),
        },
        AblationPoint {
            label: "dynamic queue (LPT)".into(),
            mean_us: mean_time(&workloads, |s| ctb_core::simulate_dynamic(arch, s, &th)),
        },
    ]
}

/// Ablation 6: tile feeding order into threshold batching.
pub fn ablate_tile_order(arch: &ArchSpec) -> Vec<AblationPoint> {
    let th = Thresholds::for_arch(arch);
    let workloads = gen::random_cases(8, 44);
    [TileOrder::GemmMajor, TileOrder::Interleaved, TileOrder::KDescending]
        .into_iter()
        .map(|order| {
            let mean_us = mean_time(&workloads, |s| {
                let sol = select_tiling(s, &th);
                let tiles = order_tiles(&tiles_for(s, &sol), order);
                let blocks = assign_blocks(
                    &tiles,
                    BatchingHeuristic::Threshold,
                    &th,
                    sol.thread_count.threads(),
                );
                let plan = BatchPlan::from_blocks(&blocks, sol.thread_count.threads());
                let kd = lower_plan("order", &plan, s);
                simulate(arch, &LaunchSequence::Single(kd)).total_us
            });
            AblationPoint { label: order.to_string(), mean_us }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v100() -> ArchSpec {
        ArchSpec::volta_v100()
    }

    #[test]
    fn adaptive_tiling_beats_every_uniform_fixing() {
        // The margin over the best uniform fixing depends on the random
        // workload draw (the threshold rule can trail a lucky uniform
        // choice by a few percent on a small sample), so allow 5%.
        let pts = ablate_tiling_adaptivity(&v100());
        let adaptive = pts[0].mean_us;
        for p in &pts[1..] {
            assert!(
                adaptive <= p.mean_us * 1.05,
                "adaptive {adaptive} vs {}: {}",
                p.label,
                p.mean_us
            );
        }
    }

    #[test]
    fn deployed_tlp_threshold_is_near_the_sweet_spot() {
        let pts = ablate_tlp_threshold(&v100());
        let deployed = pts[2].mean_us; // the middle point is the deployed value
        let best = pts.iter().map(|p| p.mean_us).fold(f64::INFINITY, f64::min);
        assert!(deployed <= best * 1.15, "deployed {deployed} vs best {best}");
    }

    #[test]
    fn cross_tile_prefetch_never_hurts() {
        let pts = ablate_cross_tile_prefetch(&v100());
        assert!(pts[0].mean_us <= pts[1].mean_us * 1.001, "{pts:?}");
    }

    #[test]
    fn autotune_bounds_the_heuristic() {
        let pts = ablate_heuristic_vs_autotune(&v100());
        let (heur, tuned) = (pts[0].mean_us, pts[1].mean_us);
        assert!(tuned <= heur * 1.0001, "tuned {tuned} vs heuristic {heur}");
        // ... and the heuristic is not catastrophically far behind.
        assert!(heur <= tuned * 2.5, "heuristic {heur} vs tuned {tuned}");
    }

    #[test]
    fn dynamic_queue_is_competitive_on_heterogeneous_k() {
        let pts = ablate_dynamic_queue(&v100());
        let (static_best, dynamic) = (pts[0].mean_us, pts[1].mean_us);
        assert!(
            dynamic <= static_best * 1.1,
            "dynamic {dynamic} vs static {static_best}"
        );
    }

    #[test]
    fn tile_orders_all_produce_valid_times() {
        let pts = ablate_tile_order(&v100());
        assert_eq!(pts.len(), 3);
        assert!(pts.iter().all(|p| p.mean_us.is_finite() && p.mean_us > 0.0));
    }
}
