//! `reproduce obs` — the tracked observability harness.
//!
//! Runs the serve closed loop with an [`Obs`] bus installed, audits the
//! resulting trace with [`TraceAudit`] (the bench doubles as an
//! end-to-end invariant check), and exports a **fixed-schema**
//! `BENCH_obs.json`: every span kind and every point kind appears, even
//! at zero, so the key set never depends on which code paths a
//! particular run happened to exercise. The key set is gated against
//! the committed `BENCH_obs.json`, and drift fails the run.

use crate::Json;
use ctb_core::{Framework, Session};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::{GemmBatch, GemmShape};
use ctb_obs::{MetricsSnapshot, Obs, PointKind, SpanKind, TraceAudit, TraceCounts};
use ctb_serve::{GemmRequest, ServeConfig, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The tracked observability numbers for one instrumented run.
#[derive(Debug, Clone, Default)]
pub struct ObsBenchReport {
    pub producers: usize,
    pub requests: usize,
    /// Total events in the log (spans open + close, points).
    pub events: usize,
    /// Flight-recorder dumps (0 on a healthy run).
    pub flight_dumps: usize,
    pub wall_ms: f64,
    /// Audited trace counts (exact reconciliation already checked).
    pub counts: TraceCounts,
    /// Snapshot of the bus's metrics registry.
    pub snapshot: MetricsSnapshot,
}

/// Same repeated-signature pool as the serve harness: cache hits and
/// real coalescing, so every span kind but the degraded one fires.
fn shape_pool() -> Vec<GemmShape> {
    vec![
        GemmShape::new(16, 32, 64),
        GemmShape::new(64, 64, 64),
        GemmShape::new(48, 80, 96),
        GemmShape::new(17, 33, 41),
    ]
}

/// Closed loop with the bus installed; the trace is audited and
/// reconciled against `ServeStats` with `==` before returning.
pub fn run_obs_bench(arch: &ArchSpec, producers: usize, per_producer: usize) -> ObsBenchReport {
    let obs = Arc::new(Obs::wall());
    let session = Session::new(Framework::new(arch.clone()));
    let cfg = ServeConfig {
        max_batch: 16,
        batch_window: Duration::from_micros(300),
        queue_capacity: 64,
        workers: 2,
        ..ServeConfig::default()
    };
    let server = Arc::new(Server::with_instrumentation(session, cfg, None, Some(Arc::clone(&obs))));
    let pool = shape_pool();

    let t0 = Instant::now();
    let handles: Vec<_> = (0..producers)
        .map(|t| {
            let server = Arc::clone(&server);
            let pool = pool.clone();
            std::thread::spawn(move || {
                for i in 0..per_producer {
                    let shape = pool[(t + i) % pool.len()];
                    let batch = GemmBatch::random(&[shape], 1.0, 0.5, (t * 10_000 + i) as u64);
                    server
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
    assert_eq!(stats.completed, requests, "closed loop completed everything");

    let counts = TraceAudit::new(obs.events()).check().expect("bench trace audits clean");
    assert_eq!(counts.responds, stats.completed, "trace reconciles with ServeStats");
    assert_eq!(counts.batches, stats.batches);

    ObsBenchReport {
        producers,
        requests,
        events: obs.events().len(),
        flight_dumps: obs.flight_dumps().len(),
        wall_ms,
        counts,
        snapshot: obs.metrics().snapshot(),
    }
}

/// The tracked `BENCH_obs.json` report, with a fixed key set: `spans`
/// iterates [`SpanKind::ALL`] and `points` iterates
/// [`PointKind::ALL_NAMES`], reading every key through
/// [`MetricsSnapshot::counter`] so absent metrics export as 0 instead
/// of disappearing. The key set is therefore a constant of the code,
/// not of the run, which is what the drift gate compares.
pub fn report_json(arch: &ArchSpec, r: &ObsBenchReport) -> Json {
    let span = |kind: &SpanKind| {
        let name = kind.name();
        let (p50, p95) = r
            .snapshot
            .histograms
            .get(&format!("span.{name}.us"))
            .map(|h| (h.percentile(0.50), h.percentile(0.95)))
            .unwrap_or((0.0, 0.0));
        let span = Json::obj([
            ("count", r.snapshot.counter(&format!("span.{name}.count")).into()),
            ("p50_us", Json::fixed(p50, 1)),
            ("p95_us", Json::fixed(p95, 1)),
        ]);
        (name, span)
    };
    let point = |&name: &&'static str| (name, r.snapshot.counter(&format!("point.{name}")).into());
    Json::obj([
        ("bench", "obs".into()),
        ("arch", arch.name.into()),
        ("producers", r.producers.into()),
        ("requests", r.requests.into()),
        ("events", r.events.into()),
        ("flight_dumps", r.flight_dumps.into()),
        ("wall_ms", Json::fixed(r.wall_ms, 3)),
        ("spans", Json::obj(SpanKind::ALL.iter().map(span))),
        ("points", Json::obj(PointKind::ALL_NAMES.iter().map(point))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instrumented_closed_loop_audits_and_reports() {
        let r = run_obs_bench(&ArchSpec::volta_v100(), 2, 5);
        assert_eq!(r.requests, 10);
        assert_eq!(r.counts.responds, 10);
        assert_eq!(r.flight_dumps, 0, "healthy run must not dump");
        assert!(r.events > 0);
        assert_eq!(r.snapshot.counter("point.respond"), 10);
        crate::assert_committed_keys("obs", &report_json(&ArchSpec::volta_v100(), &r));
    }

    #[test]
    fn key_set_is_fixed_regardless_of_exercised_paths() {
        // An empty report (no events at all) must export the committed
        // key set too: that is the whole point of the gate.
        let empty = ObsBenchReport::default();
        crate::assert_committed_keys("obs", &report_json(&ArchSpec::volta_v100(), &empty));
    }
}
