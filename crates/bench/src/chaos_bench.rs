//! `reproduce chaos` — the tracked resilience harness.
//!
//! Sweeps the injected fault rate (plan failures + executor panics)
//! over a closed-loop serving workload and reports, per rate point, the
//! service level the resilience layer sustains: p95 latency, the
//! fraction of requests served through the degraded per-kernel
//! baseline, retry/panic counts, and throughput. Every result — also
//! the degraded ones — is still checked bitwise against the exact
//! oracle. Results land in `BENCH_chaos.json` at the repository root;
//! the zero-rate point doubles as the "injection armed but silent"
//! overhead reference.

use crate::{closed_loop, percentile, Json};
use ctb_core::{Framework, Session};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use ctb_serve::{
    quiet_injected_panics, BreakerPolicy, FaultConfig, FaultInjector, RetryPolicy, ServeConfig,
    Server,
};
use std::sync::Arc;
use std::time::Duration;

/// One fault-rate point of the sweep.
#[derive(Debug, Clone)]
pub struct ChaosPoint {
    /// Injection rate applied to both plan failures and executor
    /// panics, per mille of draws at each site.
    pub fault_per_mille: u32,
    /// Requests completed (the loop never drops any).
    pub requests: usize,
    /// Fraction served through the degraded baseline.
    pub degraded_fraction: f64,
    /// Individual re-admissions after caught panics.
    pub retries: usize,
    /// Panics caught at the isolation boundary.
    pub worker_panics: usize,
    /// Circuit-breaker trips over the run.
    pub breaker_trips: usize,
    /// Completed requests per second of wall time.
    pub throughput_rps: f64,
    /// Median end-to-end latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile end-to-end latency, microseconds.
    pub p95_us: f64,
}

fn shape_pool() -> Vec<GemmShape> {
    vec![
        GemmShape::new(16, 32, 64),
        GemmShape::new(64, 64, 64),
        GemmShape::new(48, 80, 96),
        GemmShape::new(17, 33, 41),
        GemmShape::new(32, 128, 32),
    ]
}

/// [`closed_loop`] at one injected fault rate: `producers` threads,
/// `per_producer` requests each, every result verified bitwise.
pub fn run_chaos_point(
    arch: &ArchSpec,
    fault_per_mille: u32,
    producers: usize,
    per_producer: usize,
) -> ChaosPoint {
    quiet_injected_panics();
    let injector = FaultInjector::new(
        FaultConfig::new(0xC4A0_5EED ^ u64::from(fault_per_mille))
            .plan_fail(fault_per_mille)
            .exec_panic(fault_per_mille),
    );
    let server = Server::with_instrumentation(
        Session::new(Framework::new(arch.clone())),
        ServeConfig {
            max_batch: 32,
            batch_window: Duration::from_micros(300),
            queue_capacity: 64,
            workers: 2,
            retry: RetryPolicy {
                max_retries: 2,
                backoff_base: Duration::from_micros(20),
                backoff_cap: Duration::from_micros(500),
                ..RetryPolicy::default()
            },
            breaker: BreakerPolicy::default(),
        },
        Some(Arc::new(injector)),
        None,
    );
    let pool = shape_pool();
    let run = closed_loop(&server, producers, per_producer, |t, i| pool[(t + i) % pool.len()]);
    let stats = server.shutdown();
    let requests = producers * per_producer;
    assert_eq!(stats.completed, requests, "zero drops at any fault rate");
    assert_eq!(stats.degraded, run.degraded, "server and clients agree on degraded count");

    ChaosPoint {
        fault_per_mille,
        requests,
        degraded_fraction: stats.degraded as f64 / requests as f64,
        retries: stats.retries,
        worker_panics: stats.worker_panics,
        breaker_trips: stats.breaker_trips,
        throughput_rps: run.throughput_rps(),
        p50_us: percentile(&run.latencies_us, 0.50),
        p95_us: percentile(&run.latencies_us, 0.95),
    }
}

/// The tracked sweep: quiet, moderate, and heavy injection.
pub fn run_chaos_sweep(arch: &ArchSpec, producers: usize, per_producer: usize) -> Vec<ChaosPoint> {
    [0u32, 50, 200]
        .into_iter()
        .map(|rate| run_chaos_point(arch, rate, producers, per_producer))
        .collect()
}

/// The tracked `BENCH_chaos.json` report.
pub fn report_json(arch: &ArchSpec, points: &[ChaosPoint]) -> Json {
    let point = |p: &ChaosPoint| {
        Json::obj([
            ("fault_per_mille", p.fault_per_mille.into()),
            ("requests", p.requests.into()),
            ("degraded_fraction", Json::fixed(p.degraded_fraction, 4)),
            ("retries", p.retries.into()),
            ("worker_panics", p.worker_panics.into()),
            ("breaker_trips", p.breaker_trips.into()),
            ("throughput_rps", Json::fixed(p.throughput_rps, 1)),
            ("p50_us", Json::fixed(p.p50_us, 1)),
            ("p95_us", Json::fixed(p.p95_us, 1)),
        ])
    };
    Json::obj([
        ("bench", "chaos".into()),
        ("arch", arch.name.into()),
        ("points", Json::arr(points.iter().map(point))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faulted_point_reports_sane_numbers() {
        let p = run_chaos_point(&ArchSpec::volta_v100(), 300, 2, 10);
        assert_eq!(p.requests, 20);
        assert!((0.0..=1.0).contains(&p.degraded_fraction));
        assert!(p.worker_panics > 0, "30% panic rate over 20 requests fires essentially always");
        assert!(p.throughput_rps > 0.0);
        assert!(p.p95_us >= p.p50_us);
        crate::assert_committed_keys("chaos", &report_json(&ArchSpec::volta_v100(), &[p]));
    }

    #[test]
    fn quiet_point_never_degrades() {
        let p = run_chaos_point(&ArchSpec::volta_v100(), 0, 2, 8);
        assert_eq!(p.degraded_fraction, 0.0);
        assert_eq!(p.worker_panics, 0);
        assert_eq!(p.retries, 0);
    }
}
