//! Many small variable-size GEMMs, as in the astrophysics / block-sparse
//! solver workloads the paper's introduction motivates (batched BLAS on
//! thousands of tiny independent systems).
//!
//! Compares all four baselines against the coordinated framework on a
//! batch of small, size-varying GEMMs, verifying every execution path
//! bit for bit against the naive reference GEMM.
//!
//! ```text
//! cargo run --example astro_blocks --release
//! ```

use ctb::baselines::run::execute_baseline;
use ctb::matrix::gen::jittered_case;
use ctb::prelude::*;

fn main() {
    let arch = ArchSpec::volta_v100();

    // 24 small systems whose sizes vary by +-60% around 48x48x96 — the
    // "matrix sizes may vary hugely" regime that defeats
    // cublasSgemmBatched and motivates vbatch-style execution.
    let shapes = jittered_case(24, 48, 48, 96, 0.6, 99);
    let batch = GemmBatch::random(&shapes, 1.0, 0.0, 17);
    let expected = batch.reference_result_exact();

    println!("== batched small GEMMs: baselines vs coordinated framework ==\n");
    println!(
        "batch of {} GEMMs, e.g. {}, {}, {} ...",
        shapes.len(),
        shapes[0],
        shapes[1],
        shapes[2]
    );
    println!("total work: {:.1} MFLOP\n", batch.total_flops() as f64 / 1e6);

    let mut rows: Vec<(String, f64)> = Vec::new();
    for run in [
        default_serial(&arch, &shapes),
        cke(&arch, &shapes),
        cublas_like(&arch, &shapes),
        magma_vbatch(&arch, &shapes),
    ] {
        let (results, report) = execute_baseline(&arch, &batch, &run);
        ctb::matrix::assert_bitwise_eq(&expected, &results, run.name);
        rows.push((run.name.to_string(), report.total_us));
    }

    let framework = Framework::new(arch);
    let outcome = framework.run(&batch).expect("plannable");
    ctb::matrix::assert_bitwise_eq(&expected, &outcome.results, "coordinated");
    rows.push(("coordinated (ours)".into(), outcome.plan.predicted_us));

    let worst = rows.iter().map(|(_, us)| *us).fold(0.0f64, f64::max);
    println!("{:<20} {:>10}  {:>8}", "execution", "time (us)", "speedup");
    for (name, us) in &rows {
        println!("{name:<20} {us:>10.1}  {:>7.2}x", worst / us);
    }
    println!("\nall five execution paths bitwise equal to the reference GEMM");
}
