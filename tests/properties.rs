//! Property-based tests (proptest) over the core invariants of the
//! framework: plan well-formedness, functional correctness against the
//! reference GEMM, simulator sanity and model monotonicity.

use ctb::batching::{assign_blocks, tiles_for, BatchPlan, BatchingHeuristic};
use ctb::core::lowering::lower_plan;
use ctb::matrix::MatchReport;
use ctb::prelude::*;
use ctb::sim::simulate;
use ctb::tiling::select_tiling;
use proptest::prelude::*;

fn small_shape() -> impl Strategy<Value = GemmShape> {
    (1usize..=96, 1usize..=96, 0usize..=96).prop_map(|(m, n, k)| GemmShape::new(m, n, k))
}

fn shape_batch() -> impl Strategy<Value = Vec<GemmShape>> {
    proptest::collection::vec(small_shape(), 1..=6)
}

fn heuristic() -> impl Strategy<Value = BatchingHeuristic> {
    prop_oneof![
        Just(BatchingHeuristic::OneTilePerBlock),
        Just(BatchingHeuristic::Threshold),
        Just(BatchingHeuristic::Binary),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every heuristic produces a plan that satisfies the Fig 6
    /// auxiliary-array invariants: all tiles exactly once, coordinates
    /// in range, matching strategy ids.
    #[test]
    fn plans_always_validate(shapes in shape_batch(), h in heuristic()) {
        let th = Thresholds::paper_v100();
        let sol = select_tiling(&shapes, &th);
        let tiles = tiles_for(&shapes, &sol);
        let blocks = assign_blocks(&tiles, h, &th, sol.thread_count.threads());
        let plan = BatchPlan::from_blocks(&blocks, sol.thread_count.threads());
        prop_assert!(plan.validate(&shapes, &sol).is_ok());
        // No empty blocks, every block within the device's block-size
        // limit.
        prop_assert!(blocks.iter().all(|b| !b.is_empty()));
    }

    /// The persistent-threads interpreter computes results bitwise
    /// identical to the naive oracle for any plan of any heuristic.
    #[test]
    fn functional_results_match_reference(
        shapes in shape_batch(),
        h in heuristic(),
        alpha in -2.0f32..2.0,
        beta in -2.0f32..2.0,
        seed in 0u64..1000,
    ) {
        let th = Thresholds::paper_v100();
        let batch = GemmBatch::random(&shapes, alpha, beta, seed);
        let sol = select_tiling(&shapes, &th);
        let tiles = tiles_for(&shapes, &sol);
        let blocks = assign_blocks(&tiles, h, &th, sol.thread_count.threads());
        let plan = BatchPlan::from_blocks(&blocks, sol.thread_count.threads());
        let got = ctb::core::execute_plan(&batch, &plan);
        let mismatch = ctb::matrix::bitwise_mismatch(&batch.reference_result_exact(), &got);
        prop_assert!(mismatch.is_none(), "(gemm, element, expected bits, got bits) = {mismatch:?}");
    }

    /// The packed micro-kernel executor is bitwise-identical to the
    /// collect-then-scatter baseline: same ascending-k accumulation
    /// order per element, so not merely close but equal, for any plan
    /// of any heuristic, scalars, and non-divisible shapes.
    #[test]
    fn packed_executor_is_bitwise_identical_to_unpacked(
        shapes in shape_batch(),
        h in heuristic(),
        alpha in -2.0f32..2.0,
        beta in -2.0f32..2.0,
        seed in 0u64..1000,
    ) {
        let th = Thresholds::paper_v100();
        let batch = GemmBatch::random(&shapes, alpha, beta, seed);
        let sol = select_tiling(&shapes, &th);
        let tiles = tiles_for(&shapes, &sol);
        let blocks = assign_blocks(&tiles, h, &th, sol.thread_count.threads());
        let plan = BatchPlan::from_blocks(&blocks, sol.thread_count.threads());
        let packed = ctb::core::execute_plan(&batch, &plan);
        let unpacked = ctb::core::execute_plan_unpacked(&batch, &plan);
        prop_assert_eq!(packed.len(), unpacked.len());
        for (p, u) in packed.iter().zip(&unpacked) {
            prop_assert_eq!(p.as_slice(), u.as_slice());
        }
    }

    /// The tiling engine always returns one fitting strategy per GEMM
    /// with a consistent unified thread count and correctly reported
    /// TLP.
    #[test]
    fn tiling_solution_invariants(shapes in shape_batch()) {
        let th = Thresholds::paper_v100();
        let sol = select_tiling(&shapes, &th);
        prop_assert_eq!(sol.per_gemm.len(), shapes.len());
        for (s, st) in shapes.iter().zip(&sol.per_gemm) {
            prop_assert_eq!(st.threads, sol.thread_count.threads());
            prop_assert!(st.fits(s.m, s.n) || st.kind == ctb::tiling::StrategyKind::Small);
        }
        prop_assert_eq!(sol.tlp, ctb::tiling::model::tlp(&shapes, &sol.per_gemm));
    }

    /// Lowered kernels are always feasible (non-zero occupancy) and the
    /// simulator returns a positive finite time for non-empty batches.
    #[test]
    fn simulation_is_finite_and_positive(shapes in shape_batch(), h in heuristic()) {
        let arch = ArchSpec::volta_v100();
        let th = Thresholds::paper_v100();
        let sol = select_tiling(&shapes, &th);
        let tiles = tiles_for(&shapes, &sol);
        let blocks = assign_blocks(&tiles, h, &th, sol.thread_count.threads());
        let plan = BatchPlan::from_blocks(&blocks, sol.thread_count.threads());
        let kd = lower_plan("prop", &plan, &shapes);
        let report = simulate(&arch, &ctb::sim::LaunchSequence::Single(kd));
        prop_assert!(report.total_us.is_finite());
        prop_assert!(report.total_us > 0.0);
    }

    /// Growing K (more work per tile) never makes the simulated batch
    /// meaningfully faster, all else equal. (Small reversals are allowed:
    /// discrete policy switches and the DRAM bandwidth-share term can
    /// shift a few percent between adjacent configurations.)
    #[test]
    fn simulated_time_is_monotone_in_k(
        b in 1usize..=8,
        mn in 16usize..=128,
        k in 8usize..=512,
    ) {
        let arch = ArchSpec::volta_v100();
        let fw = Framework::new(arch);
        let t1 = fw.plan(&ctb::matrix::gen::uniform_case(b, mn, mn, k)).unwrap().predicted_us;
        let t2 = fw.plan(&ctb::matrix::gen::uniform_case(b, mn, mn, 2 * k)).unwrap().predicted_us;
        prop_assert!(t2 >= t1 * 0.95, "K {k}->{}: {t1} -> {t2}", 2 * k);
    }

    /// Duplicating the batch never makes it meaningfully faster (same
    /// tolerance rationale as the K-monotonicity property).
    #[test]
    fn simulated_time_is_monotone_in_batch(
        b in 1usize..=6,
        mn in 16usize..=128,
        k in 8usize..=256,
    ) {
        let arch = ArchSpec::volta_v100();
        let fw = Framework::new(arch);
        let t1 = fw.plan(&ctb::matrix::gen::uniform_case(b, mn, mn, k)).unwrap().predicted_us;
        let t2 = fw.plan(&ctb::matrix::gen::uniform_case(2 * b, mn, mn, k)).unwrap().predicted_us;
        prop_assert!(t2 >= t1 * 0.95, "B {b}->{}: {t1} -> {t2}", 2 * b);
    }

    /// The five auxiliary arrays round-trip the per-block tile
    /// assignment exactly.
    #[test]
    fn auxiliary_arrays_round_trip(shapes in shape_batch(), h in heuristic()) {
        let th = Thresholds::paper_v100();
        let sol = select_tiling(&shapes, &th);
        let tiles = tiles_for(&shapes, &sol);
        let blocks = assign_blocks(&tiles, h, &th, sol.thread_count.threads());
        let plan = BatchPlan::from_blocks(&blocks, sol.thread_count.threads());
        for (b, expect) in blocks.iter().enumerate() {
            prop_assert_eq!(&plan.block_tiles(b, &shapes), expect);
        }
    }
}

/// Replays the regression corpus recorded in
/// `tests/properties.proptest-regressions`. The vendored proptest shim
/// does not read that file at runtime, so every `cc` line's shrunk case
/// is pinned here as a plain assertion and `scripts/check.sh` runs this
/// test by name as the regression gate; when a property fails, record
/// the shrunk case in the file AND here.
#[test]
fn regression_corpus_replays_recorded_cases() {
    let arch = ArchSpec::volta_v100();
    let fw = Framework::new(arch);
    // cc 3d4e6c…47dba: shrinks to b = 1, mn = 37, k = 65
    // cc a13cfc…cf3a73: shrinks to b = 2, mn = 62, k = 217
    for (b, mn, k) in [(1usize, 37usize, 65usize), (2, 62, 217)] {
        let t1 = fw.plan(&ctb::matrix::gen::uniform_case(b, mn, mn, k)).unwrap().predicted_us;
        let tk = fw
            .plan(&ctb::matrix::gen::uniform_case(b, mn, mn, 2 * k))
            .unwrap()
            .predicted_us;
        assert!(tk >= t1 * 0.95, "K-monotonicity regression (b={b}, mn={mn}, k={k}): {t1} -> {tk}");
        let tb = fw
            .plan(&ctb::matrix::gen::uniform_case(2 * b, mn, mn, k))
            .unwrap()
            .predicted_us;
        assert!(tb >= t1 * 0.95, "B-monotonicity regression (b={b}, mn={mn}, k={k}): {t1} -> {tb}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Split-K produces results within tolerance of the naive oracle for
    /// every split factor: it sums each K slice on its own, so it
    /// reassociates on purpose.
    #[test]
    fn splitk_matches_reference(
        shapes in shape_batch(),
        split in 1usize..8,
        seed in 0u64..1000,
    ) {
        let arch = ArchSpec::volta_v100();
        let batch = GemmBatch::random(&shapes, 1.0, 0.5, seed);
        let (results, report) =
            ctb::core::run_splitk(&arch, &batch, split).expect("split-k runs");
        let expect = batch.reference_result_exact();
        let r = MatchReport::compare(&expect, &results);
        prop_assert!(r.within(1e-3), "split {split}: max_rel {}", r.max_rel);
        prop_assert!(report.total_us > 0.0);
    }

    /// The dynamic-queue plan always validates and covers every tile.
    #[test]
    fn dynamic_plans_always_validate(shapes in shape_batch()) {
        let arch = ArchSpec::volta_v100();
        let th = Thresholds::for_arch(&arch);
        let (sol, plan, _) = ctb::core::plan_dynamic(&arch, &shapes, &th);
        prop_assert!(plan.validate(&shapes, &sol).is_ok());
    }

    /// The timeline capture agrees with the kernel report for any
    /// coordinated plan, and its slot events never overlap.
    #[test]
    fn timeline_is_consistent_with_the_report(shapes in shape_batch(), h in heuristic()) {
        let arch = ArchSpec::volta_v100();
        let th = Thresholds::paper_v100();
        let sol = select_tiling(&shapes, &th);
        let tiles = tiles_for(&shapes, &sol);
        let blocks = assign_blocks(&tiles, h, &th, sol.thread_count.threads());
        let plan = BatchPlan::from_blocks(&blocks, sol.thread_count.threads());
        let kd = lower_plan("prop-timeline", &plan, &shapes);
        let report = ctb::sim::simulate_kernel(&arch, &kd);
        let timeline = ctb::sim::capture_timeline(&arch, &kd);
        prop_assert!((timeline.makespan - report.cycles).abs() < 1e-6);
        prop_assert_eq!(timeline.events.len(), plan.num_blocks());
        let mut per_slot: std::collections::HashMap<usize, Vec<(f64, f64)>> = Default::default();
        for e in &timeline.events {
            per_slot.entry(e.slot).or_default().push((e.start, e.end));
        }
        for (_, mut spans) in per_slot {
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in spans.windows(2) {
                prop_assert!(w[0].1 <= w[1].0 + 1e-9);
            }
        }
    }

    /// The traced tiling selection equals the plain selection.
    #[test]
    fn traced_selection_is_equivalent(shapes in shape_batch()) {
        let th = Thresholds::paper_v100();
        let (traced, trace) = ctb::tiling::select_tiling_traced(&shapes, &th);
        prop_assert_eq!(&traced, &select_tiling(&shapes, &th));
        prop_assert!(!trace.rounds.is_empty());
        prop_assert!(trace.chosen == trace.rounds.len() - 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Bloom doorkeeper never claims "seen twice" before a real
    /// second sighting: its tags are a bijective mix of the key, so for
    /// any seed, any slot count, and any key stream, an admit can only
    /// come from an earlier observation of the same key. (Tag eviction
    /// produces false *negatives* only — a forgotten first sighting —
    /// never a false admit.)
    #[test]
    fn bloom_gate_never_admits_a_first_sighting(
        seed in 0u64..u64::MAX,
        slots_log2 in 1u32..=10,
        keys in proptest::collection::vec(0u64..u64::MAX, 1..=512),
    ) {
        let gate = ctb::core::BloomGate::new(seed, slots_log2);
        let mut seen = std::collections::HashSet::new();
        for &k in &keys {
            if gate.observe(k) {
                prop_assert!(seen.contains(&k), "admitted never-seen key {k:#x}");
            }
            seen.insert(k);
        }
    }

    /// A sighting is held at least until another key evicts it: an
    /// immediate re-observation is always admitted, for any stream.
    #[test]
    fn bloom_gate_admits_an_immediate_second_sighting(
        seed in 0u64..u64::MAX,
        slots_log2 in 1u32..=8,
        keys in proptest::collection::vec(0u64..u64::MAX, 1..=256),
    ) {
        let gate = ctb::core::BloomGate::new(seed, slots_log2);
        for &k in &keys {
            let _ = gate.observe(k);
            prop_assert!(gate.contains(k), "a just-observed key is held");
            prop_assert!(gate.observe(k), "an immediate second sighting admits");
        }
    }

    /// The gate is a pure function of (seed, stream): replaying an
    /// identical stream over a fresh gate reproduces every decision and
    /// the eviction count.
    #[test]
    fn bloom_gate_decisions_are_deterministic(
        seed in 0u64..u64::MAX,
        slots_log2 in 1u32..=8,
        keys in proptest::collection::vec(0u64..u64::MAX, 1..=256),
    ) {
        let a = ctb::core::BloomGate::new(seed, slots_log2);
        let b = ctb::core::BloomGate::new(seed, slots_log2);
        for &k in &keys {
            prop_assert_eq!(a.observe(k), b.observe(k));
        }
        prop_assert_eq!(a.evicted_tags(), b.evicted_tags());
    }
}
