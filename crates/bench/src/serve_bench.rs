//! `reproduce serve` — the tracked serving-layer harness.
//!
//! Drives the `ctb-serve` server with a closed-loop multi-producer
//! workload (each producer submits a request, waits for its result,
//! verifies it bitwise against the exact oracle, and immediately
//! submits the next) and reports the service-level numbers the serving
//! layer exists to move: throughput, coalescing achieved (mean batch
//! size), plan-cache hit rate, and tail latency. Results are written as
//! `BENCH_serve.json` at the repository root so successive commits can
//! be compared.

use crate::Json;
use ctb_core::Framework;
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::{bitwise_mismatch, GemmBatch, GemmShape};
use ctb_serve::{GemmRequest, ServeConfig, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The tracked service-level numbers for one closed-loop run.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Closed-loop producer threads.
    pub producers: usize,
    /// Requests completed (== submitted; the loop never drops).
    pub requests: usize,
    /// Batches the window coalesced them into.
    pub batches: usize,
    /// requests / batches.
    pub mean_batch_size: f64,
    /// Plan-cache hit rate over the run (repeated shape signatures are
    /// planned once).
    pub plan_cache_hit_rate: f64,
    /// Simulation-memo hit rate (candidate evaluations answered from
    /// the memo during the few cold plans).
    pub sim_memo_hit_rate: f64,
    /// End-to-end wall time of the loop.
    pub wall_ms: f64,
    /// Completed requests per second of wall time.
    pub throughput_rps: f64,
    /// Median request latency (queue + plan + execute), microseconds.
    pub p50_us: f64,
    /// 95th-percentile request latency, microseconds.
    pub p95_us: f64,
}

/// Mixed shape pool cycled by the producers: a handful of repeated
/// signatures so the plan cache has something to hit, with small and
/// mid-size GEMMs so windows actually coalesce.
fn shape_pool() -> Vec<GemmShape> {
    vec![
        GemmShape::new(16, 32, 64),
        GemmShape::new(64, 64, 64),
        GemmShape::new(48, 80, 96),
        GemmShape::new(17, 33, 41),
        GemmShape::new(128, 37, 63),
        GemmShape::new(32, 128, 32),
    ]
}

/// Run the closed loop: `producers` threads, `per_producer` requests
/// each, every result checked bitwise against the exact oracle.
pub fn run_serve_bench(arch: &ArchSpec, producers: usize, per_producer: usize) -> ServeBenchReport {
    let server = Arc::new(Server::new(
        Framework::new(arch.clone()),
        ServeConfig {
            max_batch: 32,
            batch_window: Duration::from_micros(300),
            queue_capacity: 64,
            workers: 2,
            ..ServeConfig::default()
        },
    ));
    let pool = shape_pool();

    let t0 = Instant::now();
    let handles: Vec<_> = (0..producers)
        .map(|t| {
            let server = Arc::clone(&server);
            let pool = pool.clone();
            std::thread::spawn(move || {
                for i in 0..per_producer {
                    let shape = pool[(t + i) % pool.len()];
                    let seed = (t * 10_000 + i) as u64;
                    let batch = GemmBatch::random(&[shape], 1.0, 0.5, seed);
                    let expected = batch.reference_result_exact();
                    let got = server
                        .submit(GemmRequest {
                            a: batch.a[0].clone(),
                            b: batch.b[0].clone(),
                            c: batch.c[0].clone(),
                            alpha: batch.alpha,
                            beta: batch.beta,
                            deadline: None,
                        })
                        .expect("closed-loop submit admitted")
                        .wait()
                        .expect("closed-loop request completed");
                    assert!(
                        bitwise_mismatch(&expected, std::slice::from_ref(&got.c)).is_none(),
                        "producer {t} request {i}: served result diverged from oracle"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("producer thread panicked");
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let server = Arc::into_inner(server).expect("all producers joined");
    let stats = server.shutdown();
    let requests = producers * per_producer;
    assert_eq!(stats.completed, requests, "closed loop completed everything it submitted");

    ServeBenchReport {
        producers,
        requests,
        batches: stats.batches,
        mean_batch_size: stats.mean_batch_size,
        plan_cache_hit_rate: stats.plan_cache.hit_rate(),
        sim_memo_hit_rate: stats.sim_memo.hit_rate(),
        wall_ms,
        throughput_rps: requests as f64 / (wall_ms / 1e3),
        p50_us: stats.p50_us,
        p95_us: stats.p95_us,
    }
}

/// The tracked `BENCH_serve.json` report.
pub fn report_json(arch: &ArchSpec, r: &ServeBenchReport) -> Json {
    Json::obj([
        ("bench", "serve".into()),
        ("arch", arch.name.into()),
        ("producers", r.producers.into()),
        ("requests", r.requests.into()),
        ("batches", r.batches.into()),
        ("mean_batch_size", Json::fixed(r.mean_batch_size, 3)),
        ("plan_cache_hit_rate", Json::fixed(r.plan_cache_hit_rate, 4)),
        ("sim_memo_hit_rate", Json::fixed(r.sim_memo_hit_rate, 4)),
        ("wall_ms", Json::fixed(r.wall_ms, 3)),
        ("throughput_rps", Json::fixed(r.throughput_rps, 1)),
        ("p50_us", Json::fixed(r.p50_us, 1)),
        ("p95_us", Json::fixed(r.p95_us, 1)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_reports_sane_service_numbers() {
        let r = run_serve_bench(&ArchSpec::volta_v100(), 2, 6);
        assert_eq!(r.requests, 12);
        assert!(r.batches >= 1 && r.batches <= 12);
        assert!(r.mean_batch_size >= 1.0);
        assert!((0.0..=1.0).contains(&r.plan_cache_hit_rate));
        assert!(r.throughput_rps > 0.0);
        assert!(r.p95_us >= r.p50_us);
        crate::assert_committed_keys("serve", &report_json(&ArchSpec::volta_v100(), &r));
    }
}
