//! Quickstart: batch three variable-size GEMMs through the coordinated
//! tiling + batching framework and inspect the plan.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use ctb::prelude::*;

fn main() {
    // The paper's §4.2.3 worked example: three GEMMs of very different
    // sizes batched into one kernel.
    let shapes =
        vec![GemmShape::new(16, 32, 128), GemmShape::new(64, 64, 64), GemmShape::new(256, 256, 64)];
    let batch = GemmBatch::random(&shapes, 1.0, 0.0, 42);

    // Bind the framework to a device model (the paper's main platform).
    let framework = Framework::new(ArchSpec::volta_v100());
    let outcome = framework.run(&batch).expect("planning succeeds");

    println!("== coordinated tiling + batching quickstart ==\n");
    println!("device: {}", framework.arch().name);
    println!(
        "thresholds: TLP = {}, theta = {}\n",
        framework.thresholds().tlp_threshold,
        framework.thresholds().theta
    );

    println!("tiling engine decisions (one strategy per GEMM):");
    for (shape, strategy) in shapes.iter().zip(&outcome.plan.solution.per_gemm) {
        println!("  {shape:>14} -> {strategy}");
    }
    println!(
        "\nbatching engine: heuristic = {}, {} tiles in {} thread blocks",
        outcome.plan.heuristic,
        outcome.plan.plan.num_tiles(),
        outcome.plan.plan.num_blocks(),
    );

    let us = outcome.plan.predicted_us;
    println!("\nsimulated single-kernel execution: {us:.1} us");
    println!(
        "achieved: {:.1} GFLOP/s of {:.1} GFLOP/s peak",
        batch.total_flops() as f64 / (us * 1000.0),
        framework.arch().peak_gflops()
    );

    // The functional results are real f32 GEMM outputs — verify them
    // bit for bit against the naive reference GEMM.
    let expected = batch.reference_result_exact();
    ctb::matrix::assert_bitwise_eq(&expected, &outcome.results, "framework");
    println!("\nbitwise check vs reference GEMM: OK");
}
