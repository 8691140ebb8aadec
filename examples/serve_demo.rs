//! Serving-layer demo: many client threads stream variable-size GEMM
//! requests at a shared [`Server`]; the batching window coalesces
//! whatever arrives together into single coordinated kernels, and every
//! client gets back exactly the result a standalone `gemm_ref` call on
//! its own inputs would produce.
//!
//! ```text
//! cargo run --example serve_demo --release
//! ```

use ctb::bench::percentile;
use ctb::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 25;

    // A small window keeps the demo snappy; a production deployment
    // trades window length against batch size (see crate docs).
    let server = Arc::new(Server::new(
        Framework::new(ArchSpec::volta_v100()),
        ServeConfig {
            max_batch: 32,
            batch_window: Duration::from_micros(300),
            queue_capacity: 64,
            workers: 2,
            ..ServeConfig::default()
        },
    ));

    // Each client loops over its own traffic mix: submit, wait for the
    // served result, verify it bitwise against the exact oracle.
    let shapes = [
        GemmShape::new(16, 32, 64),
        GemmShape::new(64, 64, 64),
        GemmShape::new(48, 80, 96),
        GemmShape::new(17, 33, 41),
    ];
    let clients: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let mut latencies_us = Vec::with_capacity(PER_CLIENT);
                for i in 0..PER_CLIENT {
                    let shape = shapes[(t + i) % shapes.len()];
                    let batch = GemmBatch::random(&[shape], 1.0, 0.5, (t * 1000 + i) as u64);
                    let expected = batch.reference_result_exact();
                    let result = server
                        .submit(GemmRequest {
                            a: batch.a[0].clone(),
                            b: batch.b[0].clone(),
                            c: batch.c[0].clone(),
                            alpha: batch.alpha,
                            beta: batch.beta,
                            deadline: None,
                        })
                        .expect("admitted")
                        .wait()
                        .expect("completed");
                    ctb::matrix::assert_bitwise_eq(
                        &expected,
                        std::slice::from_ref(&result.c),
                        "served result vs oracle",
                    );
                    latencies_us.push(result.timing.total_us());
                }
                latencies_us
            })
        })
        .collect();
    // Each response carries its own latency; the server keeps none.
    let mut latencies_us: Vec<f64> =
        clients.into_iter().flat_map(|h| h.join().expect("client ok")).collect();
    latencies_us.sort_by(f64::total_cmp);

    let server = Arc::into_inner(server).expect("clients done");
    let stats = server.shutdown();

    println!("== ctb-serve closed-loop demo ==\n");
    println!("clients: {CLIENTS} x {PER_CLIENT} requests, every result bitwise-verified");
    println!(
        "served {} requests in {} coordinated batches (mean batch size {:.2})",
        stats.completed, stats.batches, stats.mean_batch_size
    );
    println!(
        "plan cache: {} hits / {} lookups ({:.0}% hit rate)",
        stats.plan_cache.hits,
        stats.plan_cache.hits + stats.plan_cache.misses,
        100.0 * stats.plan_cache.hit_rate()
    );
    println!(
        "latency: p50 {:.0} us, p95 {:.0} us, worst observed {:.0} us",
        percentile(&latencies_us, 0.50),
        percentile(&latencies_us, 0.95),
        latencies_us.last().copied().unwrap_or(0.0)
    );
}
