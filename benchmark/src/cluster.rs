//! `cluster_10k`: the discrete-event cluster engine at pool scale.
//!
//! 10k `pool_presets` devices take 1M open-loop `LoadGen::table2`
//! requests (every `requests / 256`-th executed for real and checked
//! bit for bit). Mid-run, at event 1.5M, the engine is checkpointed,
//! dropped, restored from the blob into a fresh engine, and run to the
//! end, so host time covers the timeline, placement, the prediction
//! cache and a multi-megabyte savestate round trip. Every round must
//! reproduce the same event count and simulated makespan exactly; at
//! seed 0 they equal the 10k-device row of `BENCH_cluster.json`.
//!
//! Stepping is timed in chunks of [`CHUNK`] events, each followed by a
//! one-thread host reference sample (see [`crate::host`]), and so is the
//! checkpoint-drop-restore stretch. The simulation is deterministic, so
//! chunk `k` does the same work in every round; the run counts each
//! chunk's median over the rounds, plus the median snapshot.

use crate::metrics::{Metrics, Outcome};
use crate::stats::{median, percentile, ratio, sorted};
use crate::trace::{self, Tracer};
use crate::Cfg;
use crate::{heap, host};
use ctb_cluster::{EngineReport, EventCluster, EventConfig, LoadGen, PlacementMode};
use ctb_gpu_specs::ArchSpec;
use std::time::Instant;

const DEVICES: usize = 10_000;
const REQUESTS: usize = 1_000_000;
/// Arrivals every 2 ns on average keep a 10k-device pool loaded.
const MEAN_INTERARRIVAL_NS: f64 = 2.0;
const CHECKPOINT_AT: u64 = 1_500_000;
/// Set-ups timed before the rounds, besides each round's own.
const SETUPS: usize = 16;
/// Events per timing chunk: chunk `k` covers events `[k·CHUNK, (k+1)·CHUNK)`.
const CHUNK: u64 = 1 << 16;
/// In the traced round, every n-th step is also kept as a span.
const STEP_SPAN_EVERY: u64 = 1024;

fn config() -> EventConfig {
    EventConfig {
        queue_capacity: 1 << 16,
        witness_every: REQUESTS / 256,
        placement: PlacementMode::Auto,
        record_outcomes: false,
        ..EventConfig::default()
    }
}

/// Step time per chunk, with the reference samples taken where the
/// chunk's timed stretches ended (two for the chunk the checkpoint
/// splits).
#[derive(Default)]
struct Chunks {
    secs: Vec<f64>,
    refs: Vec<Vec<f64>>,
}

impl Chunks {
    fn charge(&mut self, from: u64, secs: f64, ref_s: f64) {
        let k = (from / CHUNK) as usize;
        if self.secs.len() <= k {
            self.secs.resize(k + 1, 0.0);
            self.refs.resize(k + 1, Vec::new());
        }
        self.secs[k] += secs;
        self.refs[k].push(ref_s);
    }

    /// Step time per chunk, seconds at nominal host speed.
    fn nominal(&self) -> Vec<f64> {
        self.secs
            .iter()
            .zip(&self.refs)
            .map(|(&s, r)| host::at_nominal(s, median(r)))
            .collect()
    }
}

struct Round {
    /// Set-up time, seconds at nominal host speed.
    setup_s: f64,
    events: u64,
    /// Step time per chunk, seconds at nominal host speed.
    chunks: Vec<f64>,
    /// Checkpoint, drop and restore, seconds at nominal host speed.
    snapshot_s: f64,
    checkpoint_ms: f64,
    restore_ms: f64,
    blob_bytes: usize,
    report: EngineReport,
    /// Nanoseconds per `step()`, traced round only.
    step_ns: Vec<u32>,
}

/// Step until the timeline drains or `until` events have run in total.
/// Traced, every step is timed and every `STEP_SPAN_EVERY`-th kept as a
/// span.
fn steps(
    eng: &mut EventCluster,
    events: &mut u64,
    until: u64,
    t: &mut Option<Tracer>,
    chunks: &mut Chunks,
    step_ns: &mut Vec<u32>,
) {
    let id = trace::open(t, "engine.steps", None);
    let (mut mark, mut mark_events) = (Instant::now(), *events);
    loop {
        let more = *events < until
            && match t {
                None => eng.step(),
                Some(t) => {
                    let t0 = Instant::now();
                    let more = eng.step();
                    let t1 = Instant::now();
                    if more {
                        step_ns.push(t1.duration_since(t0).as_nanos().min(u32::MAX as u128) as u32);
                        if (*events + 1).is_multiple_of(STEP_SPAN_EVERY) {
                            t.record("engine.step", t0, t1, None);
                        }
                    }
                    more
                }
            };
        if more {
            *events += 1;
        }
        if !more || events.is_multiple_of(CHUNK) {
            let secs = mark.elapsed().as_secs_f64();
            let ref_s = trace::span(t, trace::REFERENCE, None, || host::reference(1));
            chunks.charge(mark_events, secs, ref_s);
            (mark, mark_events) = (Instant::now(), *events);
        }
        if !more {
            break;
        }
    }
    trace::close(t, id);
}

/// Build and load an engine; also returns the time that took, seconds
/// at nominal host speed.
fn set_up(seed: u64, pool: Vec<ArchSpec>, t: &mut Option<Tracer>) -> (EventCluster, f64) {
    let start = Instant::now();
    let setup = trace::open(t, "setup", None);
    let mut eng = trace::span(t, "engine.new", None, || EventCluster::new(pool, config()));
    trace::span(t, "engine.load", None, || {
        eng.load(LoadGen::table2(seed, MEAN_INTERARRIVAL_NS, REQUESTS))
    });
    trace::close(t, setup);
    let setup_s = start.elapsed().as_secs_f64();
    (
        eng,
        host::at_nominal(
            setup_s,
            trace::span(t, trace::REFERENCE, None, || host::reference(1)),
        ),
    )
}

fn round(seed: u64, t: &mut Option<Tracer>) -> Result<Round, String> {
    let pool = ArchSpec::pool_presets(DEVICES);
    let restore_pool = pool.clone();
    let (mut eng, setup_s) = set_up(seed, pool, t);

    let (mut events, mut chunks, mut step_ns) = (0u64, Chunks::default(), Vec::new());
    let measure = trace::open(t, "measure", None);
    steps(
        &mut eng,
        &mut events,
        CHECKPOINT_AT,
        t,
        &mut chunks,
        &mut step_ns,
    );
    let c0 = Instant::now();
    let blob = trace::span(t, "savestate.checkpoint", None, || eng.checkpoint());
    let checkpoint_ms = c0.elapsed().as_secs_f64() * 1e3;
    trace::span(t, "engine.drop", None, || drop(eng));
    let r0 = Instant::now();
    let restored = trace::span(t, "savestate.restore", None, || {
        EventCluster::restore(restore_pool, &blob)
    });
    let restore_ms = r0.elapsed().as_secs_f64() * 1e3;
    let snapshot_s = c0.elapsed().as_secs_f64();
    let snapshot_s = host::at_nominal(
        snapshot_s,
        trace::span(t, trace::REFERENCE, None, || host::reference(1)),
    );
    let (mut eng, _) = match restored {
        Ok(e) => e,
        Err(e) => {
            trace::close(t, measure);
            return Err(format!("restore failed: {e}"));
        }
    };
    steps(
        &mut eng,
        &mut events,
        u64::MAX,
        t,
        &mut chunks,
        &mut step_ns,
    );
    let report = trace::span(t, "engine.report", None, || eng.report());
    trace::close(t, measure);
    trace::span(t, "engine.drop", None, || drop(eng));
    Ok(Round {
        setup_s,
        events,
        chunks: chunks.nominal(),
        snapshot_s,
        checkpoint_ms,
        restore_ms,
        blob_bytes: blob.len(),
        report,
        step_ns,
    })
}

#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    /// `(events, makespan bits, total simulated µs bits)` of the first round.
    simulated: Option<(u64, u64, u64)>,
}

impl Checks {
    fn round(&mut self, r: &Result<Round, String>) {
        self.attempted += REQUESTS as u64;
        let r = match r {
            Ok(r) => r,
            Err(_) => {
                self.failed += REQUESTS as u64;
                return;
            }
        };
        let s = &r.report.stats;
        let lost = REQUESTS.saturating_sub(s.completed) + r.report.witness_mismatches;
        self.failed += lost as u64;
        let sim = (
            r.events,
            s.makespan_sim_us.to_bits(),
            s.total_sim_us.to_bits(),
        );
        if r.report.events_processed != r.events || *self.simulated.get_or_insert(sim) != sim {
            self.failed += 1;
        }
    }
}

pub fn run(cfg: &Cfg) -> Outcome {
    let mut checks = Checks::default();
    let deadline = Instant::now() + cfg.seconds;
    // Set-up takes about 2 ms and a round several seconds, so set-up is
    // also sampled on its own to give its median enough samples.
    let mut setup_s: Vec<f64> = (0..SETUPS)
        .map(|_| set_up(cfg.seed, ArchSpec::pool_presets(DEVICES), &mut None).1)
        .collect();
    let mut rounds = Vec::new();
    let mut heap_mb = 0.0;
    while rounds.len() < 3 || Instant::now() < deadline {
        let r = if rounds.is_empty() {
            let (r, mb) = heap::peak_growth_mb(|| round(cfg.seed, &mut None));
            heap_mb = mb;
            r
        } else {
            round(cfg.seed, &mut None)
        };
        checks.round(&r);
        match r {
            Ok(r) => {
                setup_s.push(r.setup_s);
                rounds.push(r);
            }
            Err(e) => {
                eprintln!("cluster_10k: {e}");
                break;
            }
        }
    }
    // Median round per chunk (every round has the same chunks), plus
    // the median snapshot.
    let chunk_count = rounds.first().map_or(0, |r| r.chunks.len());
    let run_s: f64 = (0..chunk_count)
        .map(|k| {
            median(
                &rounds
                    .iter()
                    .filter_map(|r| r.chunks.get(k).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .sum::<f64>()
        + median(&rounds.iter().map(|r| r.snapshot_s).collect::<Vec<_>>());
    let events = rounds.first().map_or(0, |r| r.events);

    let mut m = Metrics::default();
    if !cfg.trace {
        m.set("throughput", ratio(events as f64, run_s));
        m.set("setup_s", median(&setup_s));
        m.set("peak_heap_mb", heap_mb);
    } else {
        let mut t = Some(Tracer::new(Instant::now(), 0));
        let traced = round(cfg.seed, &mut t);
        checks.round(&traced);
        let spans = t.take().expect("tracer attached").into_spans();
        if let Ok(r) = traced {
            layer_metrics(&mut m, &spans, &r);
            let traced_s = r.chunks.iter().sum::<f64>() + r.snapshot_s;
            m.set("tracing.overhead_pct", (traced_s / run_s - 1.0) * 100.0);
        }
        crate::write_trace(cfg, "cluster_10k", &spans);
    }
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: m,
    }
}

fn layer_metrics(m: &mut Metrics, spans: &[trace::Span], r: &Round) {
    let measure = spans
        .iter()
        .position(|s| s.name == "measure")
        .expect("measure span");
    let load_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "engine.new" || s.name == "engine.load")
        .map(|s| s.dur_ns())
        .sum();
    let step_ns = sorted(r.step_ns.iter().map(|&n| n as f64).collect());
    let stats = &r.report.stats;
    let memo = stats.sim_memo;
    for (name, v) in [
        ("engine.events", r.events as f64),
        (
            "engine.ns_per_event",
            ratio(step_ns.iter().sum::<f64>(), r.events as f64),
        ),
        ("engine.step_ns_p50", percentile(&step_ns, 0.5)),
        ("engine.step_ns_p99", percentile(&step_ns, 0.99)),
        ("engine.step_ns_max", step_ns.last().copied().unwrap_or(0.0)),
        ("engine.routed", stats.routed as f64),
        ("engine.steals", stats.steals as f64),
        ("engine.reroutes", stats.reroutes as f64),
        ("engine.witnesses", r.report.witnesses as f64),
        (
            "engine.witness_mismatches",
            r.report.witness_mismatches as f64,
        ),
        ("engine.utilization_sim", stats.mean_utilization()),
        ("engine.placement_err_us", stats.mean_abs_placement_err_us),
        ("engine.plan_misses", stats.plan_cache.misses as f64),
        (
            "engine.memo_hit_rate",
            ratio(memo.hits as f64, (memo.hits + memo.misses) as f64),
        ),
        ("engine.load_ms", load_ns as f64 / 1e6),
        ("engine.makespan_sim_us", stats.makespan_sim_us),
        ("savestate.checkpoint_ms", r.checkpoint_ms),
        ("savestate.restore_ms", r.restore_ms),
        ("savestate.blob_bytes", r.blob_bytes as f64),
        ("tracing.coverage", trace::coverage(spans, measure)),
    ] {
        m.set(name, v);
    }
}
