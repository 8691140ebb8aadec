//! Cross-crate integration tests: every execution path (framework and
//! all four baselines) computes results bitwise identical to the naive
//! oracle, and the
//! simulated performance relationships the paper claims hold end-to-end.

use ctb::baselines::run::execute_baseline;
use ctb::matrix::gen::{jittered_case, random_case, uniform_case};
use ctb::prelude::*;
use ctb::sim::simulate;

fn clamp_shapes(shapes: Vec<GemmShape>, cap: usize) -> Vec<GemmShape> {
    shapes
        .into_iter()
        .map(|s| GemmShape::new(s.m.min(cap), s.n.min(cap), s.k.min(cap)))
        .collect()
}

#[test]
fn all_executors_agree_on_random_variable_batches() {
    let arch = ArchSpec::volta_v100();
    let fw = Framework::new(arch.clone());
    for seed in [1u64, 7, 23] {
        let shapes = clamp_shapes(random_case(seed), 160);
        let shapes = &shapes[..shapes.len().min(8)];
        let batch = GemmBatch::random(shapes, 1.0, 0.5, seed + 100);
        let expected = batch.reference_result_exact();

        let outcome = fw.run(&batch).expect("framework runs");
        ctb::matrix::assert_bitwise_eq(&expected, &outcome.results, "framework");

        for run in [
            default_serial(&arch, shapes),
            cke(&arch, shapes),
            cublas_like(&arch, shapes),
            magma_vbatch(&arch, shapes),
        ] {
            let (results, report) = execute_baseline(&arch, &batch, &run);
            ctb::matrix::assert_bitwise_eq(&expected, &results, run.name);
            assert!(report.total_us > 0.0, "{} reported zero time", run.name);
        }
    }
}

#[test]
fn framework_beats_magma_on_the_paper_regime() {
    // Small matrices, moderate batches — the regime the paper targets.
    let arch = ArchSpec::volta_v100();
    let fw = Framework::new(arch.clone());
    for (b, mn, k) in [(8, 64, 64), (16, 128, 32), (32, 128, 128), (8, 256, 16)] {
        let shapes = uniform_case(b, mn, mn, k);
        let ours = fw.plan(&shapes).unwrap().predicted_us;
        let magma = simulate(&arch, &magma_vbatch(&arch, &shapes).seq).total_us;
        assert!(
            magma / ours > 1.0,
            "B={b} MN={mn} K={k}: ours {ours} vs magma {magma}"
        );
    }
}

#[test]
fn single_kernel_batching_beats_serial_launches_for_small_gemms() {
    let arch = ArchSpec::volta_v100();
    let fw = Framework::new(arch.clone());
    let shapes = uniform_case(24, 64, 64, 64);
    let ours = fw.plan(&shapes).unwrap().predicted_us;
    let serial = simulate(&arch, &default_serial(&arch, &shapes).seq).total_us;
    // 24 launches of ~5 us alone exceed the batched kernel.
    assert!(ours < serial, "ours {ours} vs serial {serial}");
}

#[test]
fn variable_sizes_are_where_vbatch_style_wins_over_cublas_grouping() {
    // With every GEMM a different size, cublas-like batching degenerates
    // to serial launches while the coordinated kernel stays single.
    let arch = ArchSpec::volta_v100();
    let fw = Framework::new(arch.clone());
    let shapes = jittered_case(16, 96, 96, 96, 0.5, 4);
    let distinct: std::collections::HashSet<_> = shapes.iter().collect();
    assert!(distinct.len() > 8, "jitter should produce distinct sizes");
    let ours = fw.plan(&shapes).unwrap().predicted_us;
    let grouped = simulate(&arch, &cublas_like(&arch, &shapes).seq).total_us;
    assert!(ours < grouped, "ours {ours} vs cublas-like {grouped}");
}

#[test]
fn plans_validate_and_lower_consistently() {
    let arch = ArchSpec::volta_v100();
    let fw = Framework::new(arch.clone());
    for seed in 0..10u64 {
        let shapes = clamp_shapes(random_case(seed), 512);
        let plan = fw.plan(&shapes).expect("plannable");
        plan.plan.validate(&shapes, &plan.solution).expect("plan invariants");
        assert_eq!(plan.kernel.blocks.len(), plan.plan.num_blocks());
        assert_eq!(plan.kernel.footprint.threads, plan.solution.thread_count.threads());
        assert_eq!(plan.kernel.bubble_blocks(), 0, "coordinated plans never bubble");
        // Occupancy must be feasible on the device.
        let occ = ctb::gpu_specs::occupancy::occupancy(&arch, &plan.kernel.footprint);
        assert!(occ.blocks_per_sm >= 1);
    }
}

#[test]
fn per_gemm_alpha_beta_semantics_survive_batching() {
    let arch = ArchSpec::volta_v100();
    let fw = Framework::new(arch);
    let shapes = vec![GemmShape::new(30, 50, 70), GemmShape::new(64, 16, 8)];
    for (alpha, beta) in [(1.0f32, 0.0f32), (0.5, 1.0), (-2.0, 0.25), (0.0, 3.0)] {
        let batch = GemmBatch::random(&shapes, alpha, beta, 5);
        let outcome = fw.run(&batch).expect("runs");
        ctb::matrix::assert_bitwise_eq(
            &batch.reference_result_exact(),
            &outcome.results,
            &format!("alpha {alpha}, beta {beta}"),
        );
    }
}

#[test]
fn portability_every_arch_plans_and_wins_on_small_batches() {
    let shapes = uniform_case(16, 96, 96, 48);
    for arch in ArchSpec::all_presets() {
        let fw = Framework::new(arch.clone());
        let ours = fw.plan(&shapes).unwrap().predicted_us;
        let magma = simulate(&arch, &magma_vbatch(&arch, &shapes).seq).total_us;
        assert!(ours > 0.0 && magma > 0.0);
        assert!(
            magma / ours > 0.95,
            "{}: ours {ours} vs magma {magma}",
            arch.name
        );
    }
}
