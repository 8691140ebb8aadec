//! The user-facing framework API (Fig 4): plan, execute, run.

use crate::interface::execute_plan;
use crate::lowering::lower_plan;
use crate::memo::SimMemo;
use crate::selector::{simulated_us, OnlineSelector};
use ctb_batching::{assign_blocks, tiles_for, BatchPlan, BatchingHeuristic};
use ctb_gpu_specs::{ArchSpec, Thresholds};
use ctb_matrix::{GemmBatch, GemmShape, MatF32};
use ctb_sim::{simulate, KernelDesc, LaunchSequence, SimReport};
use ctb_tiling::{select_tiling, TilingSolution};

/// How the batching engine chooses between its heuristics (§5).
#[derive(Debug, Clone)]
pub enum BatchingPolicy {
    /// Always use one heuristic.
    Fixed(BatchingHeuristic),
    /// Plan with both heuristics, simulate both, keep the faster — the
    /// paper's recommendation when shapes are fixed across calls (e.g.
    /// training a fixed network).
    BestOfBoth,
    /// The random-forest on-line selector — the paper's recommendation
    /// when shapes vary between calls.
    Forest(OnlineSelector),
    /// Hot-swappable selector: the session consults its share's
    /// [`CalibHandle`](crate::CalibHandle) per plan and passes the
    /// selector's choice in as a heuristic override. With no profile
    /// installed (or when `Framework::plan` is called standalone,
    /// outside a session) this behaves exactly like
    /// [`BestOfBoth`](BatchingPolicy::BestOfBoth).
    Swappable,
}

/// Framework configuration.
#[derive(Debug, Clone)]
pub struct FrameworkConfig {
    pub batching: BatchingPolicy,
    /// Override the architecture-derived thresholds (TLP threshold, θ).
    pub thresholds: Option<Thresholds>,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        FrameworkConfig { batching: BatchingPolicy::BestOfBoth, thresholds: None }
    }
}

/// A fully planned batched-GEMM execution.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// Tiling engine output: strategy per GEMM, unified thread count.
    pub solution: TilingSolution,
    /// Heuristic the batching engine ended up using.
    pub heuristic: BatchingHeuristic,
    /// The five auxiliary arrays of §6.
    pub plan: BatchPlan,
    /// Lowered single-kernel description for the simulator.
    pub kernel: KernelDesc,
}

/// Results of running a batch through the framework.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The computed C matrices, one per GEMM.
    pub results: Vec<MatF32>,
    /// Simulated timing (single coordinated kernel + launch overhead).
    pub report: SimReport,
    /// The plan that produced them.
    pub plan: ExecutionPlan,
}

/// Plan tiling + batching for `shapes` with a fixed heuristic.
/// (Shared with the selector's labelling oracle.)
pub fn plan_with_heuristic(
    shapes: &[GemmShape],
    thresholds: &Thresholds,
    heuristic: BatchingHeuristic,
) -> (TilingSolution, BatchPlan) {
    let solution = select_tiling(shapes, thresholds);
    let tiles = tiles_for(shapes, &solution);
    let blocks = assign_blocks(&tiles, heuristic, thresholds, solution.thread_count.threads());
    let plan = BatchPlan::from_blocks(&blocks, solution.thread_count.threads());
    (solution, plan)
}

/// The coordinated tiling + batching framework bound to one device.
///
/// ```
/// use ctb_core::Framework;
/// use ctb_gpu_specs::ArchSpec;
/// use ctb_matrix::{GemmBatch, GemmShape};
///
/// let framework = Framework::new(ArchSpec::volta_v100());
/// let shapes = vec![GemmShape::new(64, 64, 64), GemmShape::new(16, 32, 128)];
/// let batch = GemmBatch::random(&shapes, 1.0, 0.0, 42);
/// let outcome = framework.run(&batch).unwrap();
/// assert_eq!(outcome.results.len(), 2);
/// assert!(outcome.report.total_us > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Framework {
    arch: ArchSpec,
    thresholds: Thresholds,
    config: FrameworkConfig,
}

impl Framework {
    /// Framework for `arch` with default configuration (best-of-both
    /// batching, architecture-derived thresholds).
    pub fn new(arch: ArchSpec) -> Self {
        let thresholds = Thresholds::for_arch(&arch);
        Framework { arch, thresholds, config: FrameworkConfig::default() }
    }

    /// Framework with an explicit configuration.
    pub fn with_config(arch: ArchSpec, config: FrameworkConfig) -> Self {
        let thresholds = config.thresholds.unwrap_or_else(|| Thresholds::for_arch(&arch));
        Framework { arch, thresholds, config }
    }

    pub fn arch(&self) -> &ArchSpec {
        &self.arch
    }

    /// The configuration this framework was built with (batching
    /// policy + threshold overrides) — exposed so embedders can
    /// fingerprint compatible planning contexts.
    pub fn config(&self) -> &FrameworkConfig {
        &self.config
    }

    pub fn thresholds(&self) -> &Thresholds {
        &self.thresholds
    }

    /// Phase 1 + 2: produce the execution plan for a batch of shapes.
    pub fn plan(&self, shapes: &[GemmShape]) -> Result<ExecutionPlan, String> {
        self.plan_inner(shapes, None, None)
    }

    /// [`Framework::plan`] with a simulation memo: best-of-both
    /// candidate simulations already seen by `memo` are answered from
    /// the cache. The chosen plan is identical to `plan`'s — a hit
    /// replays the exact time the uncached pipeline produced.
    pub fn plan_memoized(
        &self,
        shapes: &[GemmShape],
        memo: &SimMemo,
    ) -> Result<ExecutionPlan, String> {
        self.plan_inner(shapes, Some(memo), None)
    }

    /// [`Framework::plan_memoized`] with an optional heuristic override
    /// for the [`BatchingPolicy::Swappable`] policy — the hot-swap seam
    /// through which a session injects its calibration handle's current
    /// selector choice. Ignored under every other policy (those remain
    /// fully determined by the framework's own configuration).
    pub fn plan_memoized_with(
        &self,
        shapes: &[GemmShape],
        memo: &SimMemo,
        heuristic_override: Option<BatchingHeuristic>,
    ) -> Result<ExecutionPlan, String> {
        self.plan_inner(shapes, Some(memo), heuristic_override)
    }

    fn plan_inner(
        &self,
        shapes: &[GemmShape],
        memo: Option<&SimMemo>,
        heuristic_override: Option<BatchingHeuristic>,
    ) -> Result<ExecutionPlan, String> {
        if shapes.is_empty() {
            return Err("empty batch".into());
        }
        if shapes.iter().any(|s| s.m == 0 || s.n == 0) {
            return Err("GEMM with empty output matrix".into());
        }
        let candidate_us = |h: BatchingHeuristic| match memo {
            Some(memo) => {
                let (solution, _) = plan_with_heuristic(shapes, &self.thresholds, h);
                memo.simulate_solution(&self.arch, shapes, &solution, h, &self.thresholds)
            }
            None => simulated_us(&self.arch, &self.thresholds, shapes, h),
        };
        // Try both heuristics (§5) plus the degenerate
        // one-tile-per-block scheme (what threshold batching
        // produces with no TLP headroom), keeping the fastest.
        let best_of_both = || {
            [
                BatchingHeuristic::Threshold,
                BatchingHeuristic::Binary,
                BatchingHeuristic::OneTilePerBlock,
            ]
            .into_iter()
            .min_by(|&x, &y| candidate_us(x).total_cmp(&candidate_us(y)))
            .expect("non-empty candidate list")
        };
        let heuristic = match &self.config.batching {
            BatchingPolicy::Fixed(h) => *h,
            BatchingPolicy::Forest(selector) => selector.select_shapes(shapes),
            BatchingPolicy::BestOfBoth => best_of_both(),
            BatchingPolicy::Swappable => heuristic_override.unwrap_or_else(best_of_both),
        };
        let (solution, plan) = plan_with_heuristic(shapes, &self.thresholds, heuristic);
        plan.validate(shapes, &solution)?;
        let kernel = lower_plan("coordinated_batched_gemm", &plan, shapes);
        Ok(ExecutionPlan { solution, heuristic, plan, kernel })
    }

    /// Execute a plan: functional results + simulated timing.
    pub fn execute(&self, batch: &GemmBatch, plan: &ExecutionPlan) -> (Vec<MatF32>, SimReport) {
        let results = execute_plan(batch, &plan.plan);
        let report = simulate(&self.arch, &LaunchSequence::Single(plan.kernel.clone()));
        (results, report)
    }

    /// Plan and execute in one call.
    pub fn run(&self, batch: &GemmBatch) -> Result<RunOutcome, String> {
        batch.validate()?;
        let plan = self.plan(&batch.shapes)?;
        let (results, report) = self.execute(batch, &plan);
        Ok(RunOutcome { results, report, plan })
    }

    /// Simulated time only (used by benches; skips the functional pass).
    pub fn simulate_only(&self, shapes: &[GemmShape]) -> Result<SimReport, String> {
        let plan = self.plan(shapes)?;
        Ok(simulate(&self.arch, &LaunchSequence::Single(plan.kernel)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_matrix::assert_bitwise_eq;

    fn shapes() -> Vec<GemmShape> {
        vec![
            GemmShape::new(16, 32, 128),
            GemmShape::new(64, 64, 64),
            GemmShape::new(256, 256, 64),
        ]
    }

    #[test]
    fn run_produces_reference_results() {
        let fw = Framework::new(ArchSpec::volta_v100());
        let batch = GemmBatch::random(&shapes(), 1.0, 0.25, 5);
        let out = fw.run(&batch).expect("runs");
        assert_bitwise_eq(&batch.reference_result_exact(), &out.results, "framework run");
        assert!(out.report.total_us > 0.0);
        assert_eq!(out.report.kernels.len(), 1, "single coordinated kernel");
    }

    #[test]
    fn fixed_policy_is_respected() {
        for h in [BatchingHeuristic::Threshold, BatchingHeuristic::Binary] {
            let fw = Framework::with_config(
                ArchSpec::volta_v100(),
                FrameworkConfig { batching: BatchingPolicy::Fixed(h), thresholds: None },
            );
            let plan = fw.plan(&shapes()).unwrap();
            assert_eq!(plan.heuristic, h);
        }
    }

    #[test]
    fn best_of_both_is_at_least_as_good_as_either() {
        let arch = ArchSpec::volta_v100();
        let fw = Framework::new(arch.clone());
        let th = *fw.thresholds();
        let s = shapes();
        let best = fw.simulate_only(&s).unwrap().total_us;
        let t = simulated_us(&arch, &th, &s, BatchingHeuristic::Threshold);
        let b = simulated_us(&arch, &th, &s, BatchingHeuristic::Binary);
        assert!(best <= t.min(b) + 1e-9, "best {best} vs threshold {t} / binary {b}");
    }

    #[test]
    fn empty_and_degenerate_batches_error() {
        let fw = Framework::new(ArchSpec::volta_v100());
        assert!(fw.plan(&[]).is_err());
        assert!(fw.plan(&[GemmShape::new(0, 4, 4)]).is_err());
    }

    #[test]
    fn k_zero_is_beta_scaling_only() {
        // K = 0 degenerates to C *= beta; the framework must not crash
        // and must produce beta-scaled C.
        let fw = Framework::new(ArchSpec::volta_v100());
        let batch = GemmBatch::random(&[GemmShape::new(32, 32, 0)], 1.0, 0.5, 3);
        let out = fw.run(&batch).expect("runs");
        assert_bitwise_eq(&batch.reference_result_exact(), &out.results, "K = 0 run");
    }

    #[test]
    fn plan_is_deterministic() {
        let fw = Framework::new(ArchSpec::volta_v100());
        let a = fw.plan(&shapes()).unwrap();
        let b = fw.plan(&shapes()).unwrap();
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.heuristic, b.heuristic);
    }
}
