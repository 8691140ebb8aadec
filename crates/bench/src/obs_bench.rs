//! `reproduce obs` — the tracked observability harness.
//!
//! Runs the serving [`closed_loop`] with an [`Obs`] bus installed,
//! audits the resulting trace with [`TraceAudit`] (the bench doubles as
//! an end-to-end invariant check), checks that the latencies the
//! responses carried are the trace's `Respond` totals, and reads every
//! number it reports from that audited log: point counts by kind, and
//! each span's exact duration, paired from its `SpanBegin` and
//! `SpanEnd`, with nearest-rank percentiles over them. `BENCH_obs.json`
//! has a **fixed schema**: every span kind and every point kind
//! appears, even at zero, so the key set never depends on which code
//! paths a particular run happened to exercise. The key set is gated
//! against the committed `BENCH_obs.json`, and drift fails the run.

use crate::{closed_loop, percentile, Json};
use ctb_core::{Framework, Session};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use ctb_obs::{Event, EventKind, Obs, PointKind, SpanKind, TraceAudit, TraceCounts};
use ctb_serve::{ServeConfig, Server};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

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
    /// Point events per [`PointKind::name`].
    pub points: BTreeMap<&'static str, usize>,
    /// Each closed span's duration in µs per [`SpanKind::name`],
    /// ascending.
    pub span_us: BTreeMap<&'static str, Vec<f64>>,
}

/// One pass over a log: point counts by kind name, and every closed
/// span's exact duration (its `SpanEnd` time minus the time of the
/// `SpanBegin` with the same id) by kind name, sorted ascending.
fn read_log(events: &[Event]) -> (BTreeMap<&'static str, usize>, BTreeMap<&'static str, Vec<f64>>) {
    let mut points = BTreeMap::new();
    let mut span_us: BTreeMap<_, Vec<f64>> = BTreeMap::new();
    let mut open = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::Point(kind) => *points.entry(kind.name()).or_insert(0) += 1,
            EventKind::SpanBegin { id, .. } => {
                open.insert(id, e.t_us);
            }
            EventKind::SpanEnd { span, id } => {
                let begin = open.remove(&id).expect("an audited span ends after it begins");
                span_us.entry(span.name()).or_default().push((e.t_us - begin) as f64);
            }
        }
    }
    for us in span_us.values_mut() {
        us.sort_by(f64::total_cmp);
    }
    (points, span_us)
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

/// [`closed_loop`] with the bus installed; the trace is audited and
/// reconciled against `ServeStats` and the responses' latencies before
/// returning.
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
    let server = Server::with_instrumentation(session, cfg, None, Some(Arc::clone(&obs)));
    let pool = shape_pool();
    let run = closed_loop(&server, producers, per_producer, |t, i| pool[(t + i) % pool.len()]);
    let stats = server.shutdown();
    let requests = producers * per_producer;
    assert_eq!(stats.completed, requests, "closed loop completed everything");

    let counts = TraceAudit::new(obs.events()).check().expect("bench trace audits clean");
    assert_eq!(counts.responds, stats.completed, "trace reconciles with ServeStats");
    assert_eq!(counts.batches, stats.batches);
    let events = obs.events();
    // The server computes one `total_us` per response and writes it to
    // the response and to the trace's `Respond` point, so the two
    // samples agree bit for bit unless the loop times requests with a
    // clock of its own.
    let mut traced_us: Vec<f64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Point(PointKind::Respond { total_us, .. }) => Some(total_us),
            _ => None,
        })
        .collect();
    traced_us.sort_by(f64::total_cmp);
    assert!(
        traced_us.iter().map(|us| us.to_bits()).eq(run.latencies_us.iter().map(|us| us.to_bits())),
        "the responses' latencies differ from the trace's Respond totals"
    );
    let (points, span_us) = read_log(&events);

    ObsBenchReport {
        producers,
        requests,
        events: events.len(),
        flight_dumps: obs.flight_dumps().len(),
        wall_ms: run.wall_ms,
        counts,
        points,
        span_us,
    }
}

/// The tracked `BENCH_obs.json` report, with a fixed key set: `spans`
/// iterates [`SpanKind::ALL`] and `points` iterates
/// [`PointKind::ALL_NAMES`], so a kind the run never emitted exports
/// as 0 instead of disappearing. The key set is therefore a constant of
/// the code, not of the run, which is what the drift gate compares.
/// `p50_us`/`p95_us` are [`percentile`]'s nearest-rank values of the
/// exact durations.
pub fn report_json(arch: &ArchSpec, r: &ObsBenchReport) -> Json {
    let span = |kind: &SpanKind| {
        let name = kind.name();
        let us = r.span_us.get(name).map_or(&[][..], Vec::as_slice);
        let span = Json::obj([
            ("count", us.len().into()),
            ("p50_us", Json::fixed(percentile(us, 0.50), 1)),
            ("p95_us", Json::fixed(percentile(us, 0.95), 1)),
        ]);
        (name, span)
    };
    let point = |&name: &&'static str| (name, r.points.get(name).copied().unwrap_or(0).into());
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
        assert_eq!(r.points["respond"], 10);
        assert_eq!(r.span_us["exec"].len(), r.counts.batches);
        crate::assert_committed_keys("obs", &report_json(&ArchSpec::volta_v100(), &r));
    }

    #[test]
    fn span_percentiles_are_exact_nearest_rank_durations() {
        let clock = Arc::new(ctb_obs::SimClock::new());
        let obs = Obs::sim(Arc::clone(&clock));
        for us in [3, 10, 100, 1_000] {
            let exec = obs.span(SpanKind::Exec);
            clock.advance(us);
            exec.finish();
        }
        let (points, span_us) = read_log(&obs.events());
        let r = ObsBenchReport { points, span_us, ..ObsBenchReport::default() };
        let field = |json: &Json, key: &str| match json {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()),
            _ => None,
        };
        let spans = field(&report_json(&ArchSpec::volta_v100(), &r), "spans").expect("spans");
        let expect = Json::obj([
            ("count", 4usize.into()),
            ("p50_us", Json::fixed(10.0, 1)),
            ("p95_us", Json::fixed(1000.0, 1)),
        ]);
        assert_eq!(field(&spans, "exec"), Some(expect));
    }

    #[test]
    fn key_set_is_fixed_regardless_of_exercised_paths() {
        // An empty report (no events at all) must export the committed
        // key set too: that is the whole point of the gate.
        let empty = ObsBenchReport::default();
        crate::assert_committed_keys("obs", &report_json(&ArchSpec::volta_v100(), &empty));
    }
}
