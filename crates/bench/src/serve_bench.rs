//! `reproduce serve` — the tracked serving-layer harness.
//!
//! Drives the `ctb-serve` server with the multi-producer
//! [`closed_loop`] (each producer submits a request, waits for its
//! result, verifies it bitwise against the exact oracle, and
//! immediately submits the next) and reports the service-level numbers
//! the serving layer exists to move: throughput, coalescing achieved
//! (mean batch size), plan-cache hit rate, and tail latency. Results
//! are written as `BENCH_serve.json` at the repository root so
//! successive commits can be compared.

use crate::{closed_loop, percentile, Json};
use ctb_core::Framework;
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use ctb_serve::{ServeConfig, Server};
use std::time::Duration;

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
    let server = Server::new(
        Framework::new(arch.clone()),
        ServeConfig {
            max_batch: 32,
            batch_window: Duration::from_micros(300),
            queue_capacity: 64,
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let pool = shape_pool();
    let run = closed_loop(&server, producers, per_producer, |t, i| pool[(t + i) % pool.len()]);
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
        wall_ms: run.wall_ms,
        throughput_rps: run.throughput_rps(),
        p50_us: percentile(&run.latencies_us, 0.50),
        p95_us: percentile(&run.latencies_us, 0.95),
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
