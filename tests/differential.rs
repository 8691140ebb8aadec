//! Differential conformance suite: every execution path in the
//! repository — the coordinated framework and all four baselines'
//! functional plans, each run by the packed executor — must produce
//! **bitwise identical** results for the same inputs.
//!
//! The common contract making this possible: the executor accumulates
//! each C element in ascending-k order and applies the epilogue as
//! `alpha * acc + beta * c`, i.e. replays exactly the operation
//! sequence of the naive oracle `gemm_ref`
//! ([`GemmBatch::reference_result_exact`]). NaN payloads are compared
//! too, under the contract stated on [`ctb::matrix::bitwise_mismatch`]:
//! every NaN in the inputs carries the payload the CPU itself makes
//! wherever the arithmetic can make NaNs of its own.

use ctb::baselines::run::execute_baseline;
use ctb::prelude::*;

/// Simple deterministic LCG for shape-mix selection (decoupled from the
/// repo's data-generation RNG so the grid is stable on its own).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick<T: Copy>(&mut self, pool: &[T]) -> T {
        pool[(self.next() as usize) % pool.len()]
    }
}

/// Edge-heavy shape pool: degenerate size-1 dimensions, odd K, prime
/// sizes straddling tile boundaries, plus ordinary mid-size GEMMs.
fn shape_pool() -> Vec<GemmShape> {
    vec![
        GemmShape::new(1, 1, 1),
        GemmShape::new(1, 37, 1),
        GemmShape::new(5, 1, 7),
        GemmShape::new(33, 1, 129),
        GemmShape::new(17, 33, 41),
        GemmShape::new(16, 32, 128),
        GemmShape::new(64, 64, 64),
        GemmShape::new(48, 80, 96),
        GemmShape::new(128, 37, 63),
        GemmShape::new(100, 50, 23),
        GemmShape::new(31, 31, 0), // K = 0: pure beta scaling
    ]
}

/// Assert every execution path is bitwise identical to the exact oracle
/// for `batch`.
fn check_all_paths(arch: &ArchSpec, fw: &Framework, batch: &GemmBatch, label: &str) {
    let expected = batch.reference_result_exact();

    // Framework path (packed executor).
    let outcome = fw.run(batch).expect("framework plans and runs");
    ctb::matrix::assert_bitwise_eq(&expected, &outcome.results, &format!("{label}: framework"));

    // Every baseline's functional plan.
    for run in [
        default_serial(arch, &batch.shapes),
        cke(arch, &batch.shapes),
        cublas_like(arch, &batch.shapes),
        magma_vbatch(arch, &batch.shapes),
    ] {
        let (results, report) = execute_baseline(arch, batch, &run);
        ctb::matrix::assert_bitwise_eq(&expected, &results, &format!("{label}: {}", run.name));
        assert!(report.total_us > 0.0, "{label}: {} reported zero time", run.name);
    }
}

#[test]
fn randomized_mixed_shape_grid_is_bitwise_consistent() {
    let arch = ArchSpec::volta_v100();
    let fw = Framework::new(arch.clone());
    let pool = shape_pool();
    let scalar_pool = [(1.0f32, 0.0f32), (1.0, 1.0), (0.5, -1.25), (0.0, 0.5), (-1.0, 2.0)];

    let mut rng = Lcg(0xC0FFEE);
    for case in 0..24u64 {
        let n_gemms = 1 + (rng.next() as usize) % 6;
        let shapes: Vec<GemmShape> = (0..n_gemms).map(|_| rng.pick(&pool)).collect();
        let (alpha, beta) = rng.pick(&scalar_pool);
        let batch = GemmBatch::random(&shapes, alpha, beta, case);
        check_all_paths(
            &arch,
            &fw,
            &batch,
            &format!("case {case} ({shapes:?}, a={alpha}, b={beta})"),
        );
    }
}

#[test]
fn nan_and_inf_inputs_propagate_identically_through_every_path() {
    let arch = ArchSpec::volta_v100();
    let fw = Framework::new(arch.clone());

    // The NaN this CPU's arithmetic makes (∞ × 0). `f32::NAN` has
    // another payload, so the "nan" case below keeps every ∞ out: a
    // lone input payload propagates unchanged on every path.
    let cpu_nan = std::hint::black_box(f32::INFINITY) * std::hint::black_box(0.0);
    for (tag, poison, with_infs) in [
        ("nan", f32::NAN, false),
        ("inf", f32::INFINITY, false),
        ("-inf", f32::NEG_INFINITY, false),
        ("cpu nan with ±inf", cpu_nan, true),
    ] {
        let shapes =
            vec![GemmShape::new(17, 33, 41), GemmShape::new(64, 64, 64), GemmShape::new(1, 37, 1)];
        let mut batch = GemmBatch::random(&shapes, 1.0, 0.5, 99);
        // Poison one element in each operand class, in different GEMMs,
        // plus a zero A row against a poisoned B row (the historical
        // zero-skip bug class: 0 * NaN must stay NaN).
        batch.a[0].set(3, 7, poison);
        batch.b[1].set(5, 60, poison);
        batch.c[2].set(0, 11, poison);
        for p in 0..shapes[1].k {
            batch.a[1].set(2, p, 0.0);
        }
        batch.b[1].set(9, 3, poison);
        if with_infs {
            // Under the zero A row, 0 × ∞ makes a NaN in the column the
            // input NaN at B[1](5, 60) reaches too, so an input NaN
            // meets an arithmetic one in the same sum; ∞ − ∞ makes more
            // in A[0]'s row 4.
            batch.b[1].set(6, 60, f32::INFINITY);
            batch.a[0].set(4, 8, f32::INFINITY);
            batch.a[0].set(4, 9, f32::NEG_INFINITY);
        }

        let expected = batch.reference_result_exact();
        assert!(
            expected.iter().any(|m| m.as_slice().iter().any(|v| !v.is_finite())),
            "{tag}: the poison must reach the output"
        );
        if with_infs {
            assert!(expected[1].get(2, 60).is_nan(), "{tag}: the NaNs must meet");
        }
        check_all_paths(&arch, &fw, &batch, &format!("poison {tag}"));
    }
}

#[test]
fn alpha_zero_keeps_poisoned_accumulators() {
    // alpha = 0 does NOT short-circuit: 0 * (NaN accumulator) is NaN.
    let arch = ArchSpec::volta_v100();
    let fw = Framework::new(arch.clone());
    let shapes = vec![GemmShape::new(12, 9, 5)];
    let mut batch = GemmBatch::random(&shapes, 0.0, 1.0, 5);
    batch.a[0].set(2, 2, f32::NAN);

    let expected = batch.reference_result_exact();
    assert!(expected[0].as_slice().iter().any(|v| v.is_nan()), "0 * NaN must poison the row");
    check_all_paths(&arch, &fw, &batch, "alpha-zero NaN");
}

#[test]
fn serving_layer_matches_the_differential_contract() {
    // One cross-layer case: results served through ctb-serve coalescing
    // are the same bitwise results the offline paths produce.
    use ctb::serve::{GemmRequest, ServeConfig, Server};
    use std::time::Duration;

    let server = Server::new(
        Framework::new(ArchSpec::volta_v100()),
        ServeConfig { batch_window: Duration::from_millis(50), ..ServeConfig::default() },
    );
    let shapes = vec![GemmShape::new(17, 33, 41), GemmShape::new(64, 64, 64)];
    let batch = GemmBatch::random(&shapes, 1.0, 0.5, 123);
    let expected = batch.reference_result_exact();

    let tickets: Vec<_> = (0..2)
        .map(|i| {
            server
                .submit(GemmRequest {
                    a: batch.a[i].clone(),
                    b: batch.b[i].clone(),
                    c: batch.c[i].clone(),
                    alpha: batch.alpha,
                    beta: batch.beta,
                    deadline: None,
                })
                .expect("admitted")
        })
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        let got = t.wait().expect("completed");
        ctb::matrix::assert_bitwise_eq(
            std::slice::from_ref(&expected[i]),
            std::slice::from_ref(&got.c),
            "served vs oracle",
        );
    }
    server.shutdown();
}
