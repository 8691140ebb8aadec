//! `reproduce perf` — the tracked performance harness.
//!
//! Times the hot paths this repository optimises (the packed executor,
//! the memoized autotuner and one Fig 9 grid) and writes the results
//! as `BENCH_executor.json` at the repository root so successive
//! commits can be compared. It is the quick, machine-readable
//! trajectory record; `benchmark/` is the end-to-end harness with a
//! noise rule.

use crate::figures::fig9_grid;
use crate::Json;
use ctb_core::autotune::autotune;
use ctb_core::{execute_plan, tile_kernel_name, Framework};
use ctb_gpu_specs::{ArchSpec, Thresholds};
use ctb_matrix::{assert_bitwise_eq, gen, GemmBatch};
use std::time::Instant;

/// One timed workload.
#[derive(Debug, Clone)]
pub struct PerfEntry {
    /// Stable workload identifier.
    pub workload: String,
    /// Wall-clock milliseconds. For iterated workloads (the executor
    /// entries) this is the best single iteration — the
    /// standard noise-robust kernel-timing estimate; autotune and the
    /// grid are single-shot totals.
    pub wall_ms: f64,
    /// Work items processed: executor iterations, autotune
    /// candidate evaluations, or grid cells.
    pub evaluated: usize,
    /// Cache hits (simulation-memo hits for autotune, 0 elsewhere).
    pub cache_hits: usize,
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

/// Warm up once, then time `iters` runs and return the best
/// single-iteration milliseconds plus the last output. The minimum is
/// the noise-robust estimator: scheduler preemption and frequency
/// ramping only ever inflate a sample.
fn time_best_ms<T>(iters: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut out = f();
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let (ms, o) = time_ms(&mut f);
        best = best.min(ms);
        out = o;
    }
    (best, out)
}

/// A Fig 9 grid cell used as the executor workload: batch 16 of
/// 128×128×256 — mid-grid, large enough that kernel time dominates
/// planning noise.
pub fn executor_workload() -> GemmBatch {
    GemmBatch::random(&gen::uniform_case(16, 128, 128, 256), 1.0, 0.5, 7)
}

/// Run the perf suite on `arch`.
pub fn run_perf(arch: &ArchSpec) -> Vec<PerfEntry> {
    let mut entries = Vec::new();

    // The packed executor on one planned Fig 9 cell.
    let batch = executor_workload();
    let fw = Framework::new(arch.clone());
    let plan = fw.plan(&batch.shapes).expect("plannable");
    const EXEC_ITERS: usize = 10;
    let (packed_ms, packed) = time_best_ms(EXEC_ITERS, || execute_plan(&batch, &plan.plan));
    entries.push(PerfEntry {
        workload: "execute_plan_packed_b16_128x128x256".into(),
        wall_ms: packed_ms,
        evaluated: EXEC_ITERS,
        cache_hits: 0,
    });
    // Guard: the result must match the oracle bitwise or the timing is
    // moot.
    assert_bitwise_eq(&batch.reference_result_exact(), &packed, "packed executor");

    // Memoized autotune on the paper's uniform workload.
    let th = Thresholds::for_arch(arch);
    let shapes = gen::uniform_case(16, 128, 128, 128);
    let (tune_ms, result) = time_ms(|| autotune(arch, &shapes, &th));
    entries.push(PerfEntry {
        workload: "autotune_uniform_16x128x128x128".into(),
        wall_ms: tune_ms,
        evaluated: result.evaluated,
        cache_hits: result.memo_hits,
    });

    // One full Fig 9 grid (parallel cells).
    let (grid_ms, cells) = time_ms(|| fig9_grid(arch));
    entries.push(PerfEntry {
        workload: "fig9_grid_v100".into(),
        wall_ms: grid_ms,
        evaluated: cells.len(),
        cache_hits: 0,
    });

    entries
}

/// The tracked `BENCH_executor.json` report. `kernel` names the tile
/// kernel `execute_plan` ran on this host, since the executor timings
/// depend on it.
pub fn report_json(arch: &ArchSpec, entries: &[PerfEntry]) -> Json {
    let entry = |e: &PerfEntry| {
        Json::obj([
            ("workload", e.workload.as_str().into()),
            ("wall_ms", Json::fixed(e.wall_ms, 3)),
            ("evaluated", e.evaluated.into()),
            ("cache_hits", e.cache_hits.into()),
        ])
    };
    Json::obj([
        ("bench", "executor".into()),
        ("arch", arch.name.into()),
        ("kernel", tile_kernel_name().into()),
        ("entries", Json::arr(entries.iter().map(entry))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_the_committed_key_set() {
        let entries =
            vec![PerfEntry { workload: "w".into(), wall_ms: 1.25, evaluated: 3, cache_hits: 2 }];
        let json = report_json(&ArchSpec::volta_v100(), &entries);
        crate::assert_committed_keys("executor", &json);
        assert!(json.render().contains("\"wall_ms\": 1.250"));
    }
}
