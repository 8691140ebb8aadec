//! The user-facing framework API (Fig 4): plan, execute, run.

use crate::interface::execute_plan;
use crate::lowering::lower_plan;
use crate::memo::{SimMemo, KERNEL_NAME};
use crate::selector::OnlineSelector;
use ctb_batching::{tiles_for, BatchPlan, BatchingHeuristic};
use ctb_gpu_specs::{ArchSpec, Thresholds};
use ctb_matrix::{GemmBatch, GemmShape, MatF32};
use ctb_sim::{simulate, KernelDesc, LaunchSequence, SimReport};
use ctb_tiling::{select_tiling, TilingSolution};

/// How the batching engine chooses between its heuristics (§5).
#[derive(Debug, Clone)]
pub enum BatchingPolicy {
    /// Always use one heuristic.
    Fixed(BatchingHeuristic),
    /// Plan with the threshold and binary heuristics (§5) and with one
    /// tile per block, simulate all three, keep the fastest (the first
    /// in that order on a tie) — the paper's recommendation when shapes
    /// are fixed across calls (e.g. training a fixed network).
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
    /// Simulated time of `kernel` on the framework's device (µs):
    /// `simulate(arch, &LaunchSequence::Single(kernel)).total_us`, bit
    /// for bit.
    pub predicted_us: f64,
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
        self.plan_memoized_with(shapes, &SimMemo::new(), None)
    }

    /// [`Framework::plan`] with a simulation memo and an optional
    /// heuristic override. Candidates already simulated by `memo` are
    /// answered from it, so the chosen plan and its `predicted_us` are
    /// identical to `plan`'s. The override serves the
    /// [`BatchingPolicy::Swappable`] policy — the hot-swap seam through
    /// which a session injects its calibration handle's current
    /// selector choice — and is ignored under every other policy (those
    /// remain fully determined by the framework's own configuration).
    pub fn plan_memoized_with(
        &self,
        shapes: &[GemmShape],
        memo: &SimMemo,
        heuristic_override: Option<BatchingHeuristic>,
    ) -> Result<ExecutionPlan, String> {
        if shapes.is_empty() {
            return Err("empty batch".into());
        }
        if shapes.iter().any(|s| s.m == 0 || s.n == 0) {
            return Err("GEMM with empty output matrix".into());
        }
        let solution = select_tiling(shapes, &self.thresholds);
        let tiles = tiles_for(shapes, &solution);
        let build =
            |h| memo.candidate(&self.arch, &self.thresholds, shapes, &solution, &tiles, h);
        // Try both heuristics (§5) plus the degenerate
        // one-tile-per-block scheme (what threshold batching
        // produces with no TLP headroom), keeping the first fastest.
        let best_of_both = || {
            [
                BatchingHeuristic::Threshold,
                BatchingHeuristic::Binary,
                BatchingHeuristic::OneTilePerBlock,
            ]
            .into_iter()
            .map(build)
            .min_by(|x, y| x.us.total_cmp(&y.us))
            .expect("non-empty candidate list")
        };
        let best = match &self.config.batching {
            BatchingPolicy::Fixed(h) => build(*h),
            BatchingPolicy::Forest(selector) => build(selector.select_shapes(shapes)),
            BatchingPolicy::BestOfBoth => best_of_both(),
            BatchingPolicy::Swappable => heuristic_override.map_or_else(best_of_both, build),
        };
        best.plan.validate(shapes, &solution)?;
        let kernel = best.kernel.unwrap_or_else(|| lower_plan(KERNEL_NAME, &best.plan, shapes));
        Ok(ExecutionPlan {
            solution,
            heuristic: best.heuristic,
            plan: best.plan,
            kernel,
            predicted_us: best.us,
        })
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selector::simulated_us;
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
        let best = fw.plan(&s).unwrap().predicted_us;
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

    /// A heuristic, its plan and the plan's simulated time.
    type Scored = (BatchingHeuristic, BatchPlan, f64);

    /// Memo-free oracle: every heuristic's plan and its simulated time,
    /// in the best-of-both order Threshold → Binary → OneTilePerBlock.
    fn oracle(arch: &ArchSpec, th: &Thresholds, shapes: &[GemmShape]) -> Vec<Scored> {
        let solution = select_tiling(shapes, th);
        let tiles = tiles_for(shapes, &solution);
        let threads = solution.thread_count.threads();
        use BatchingHeuristic::{Binary, OneTilePerBlock, Threshold};
        [Threshold, Binary, OneTilePerBlock]
            .into_iter()
            .map(|h| {
                let blocks = ctb_batching::assign_blocks(&tiles, h, th, threads);
                let plan = BatchPlan::from_blocks(&blocks, threads);
                let kernel = lower_plan("oracle", &plan, shapes);
                (h, plan, simulate(arch, &LaunchSequence::Single(kernel)).total_us)
            })
            .collect()
    }

    #[test]
    fn every_policy_picks_the_oracle_plan_with_its_simulated_time() {
        let mut ties = 0;
        for arch in [ArchSpec::volta_v100(), ArchSpec::pascal_p100()] {
            let th = Thresholds::for_arch(&arch);
            let with = |batching| {
                Framework::with_config(arch.clone(), FrameworkConfig { batching, thresholds: None })
            };
            let swappable = with(BatchingPolicy::Swappable);
            for seed in 0..200u64 {
                let shapes = ctb_matrix::gen::random_case(seed);
                let scored = oracle(&arch, &th, &shapes);
                // The first minimum by `total_cmp`.
                let best = scored
                    .iter()
                    .reduce(|a, b| if b.2.total_cmp(&a.2).is_lt() { b } else { a })
                    .expect("three candidates");
                ties += usize::from(scored.iter().filter(|c| c.2 == best.2).count() > 1);
                let check = |got: Result<ExecutionPlan, String>, want: &Scored, what: &str| {
                    let got = got.expect("plannable");
                    let kernel_us = simulate(&arch, &LaunchSequence::Single(got.kernel)).total_us;
                    let context = format!("{what}, {} seed {seed}", arch.name);
                    assert_eq!(got.heuristic, want.0, "{context}");
                    assert_eq!(got.plan, want.1, "{context}");
                    assert_eq!(got.predicted_us.to_bits(), want.2.to_bits(), "{context}");
                    assert_eq!(got.predicted_us.to_bits(), kernel_us.to_bits(), "{context}");
                };
                check(with(BatchingPolicy::BestOfBoth).plan(&shapes), best, "best-of-both");
                check(swappable.plan(&shapes), best, "swappable");
                for want in &scored {
                    check(with(BatchingPolicy::Fixed(want.0)).plan(&shapes), want, "fixed");
                    let memo = SimMemo::new();
                    let overridden = swappable.plan_memoized_with(&shapes, &memo, Some(want.0));
                    check(overridden, want, "override");
                    assert_eq!((memo.hits(), memo.misses()), (0, 1), "one candidate built");
                }
            }
        }
        assert!(ties > 0, "no tied candidates: the tie rule went unexercised");
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
