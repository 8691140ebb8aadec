//! `reproduce replay` — the deterministic failure-replay harness.
//!
//! The serving stack's debugging story rests on one claim: a recorded
//! failure can be re-executed exactly. This harness proves it end to
//! end on the discrete-event cluster engine:
//!
//! 1. **Record** — a seeded exec-panic storm runs through an
//!    instrumented 2-device pool. Every injected panic marks a flight
//!    dump in the obs log ([`ctb_obs::Obs::dump_flight`]); the run
//!    ends with a full obs trace and a set of flight dumps.
//! 2. **Re-run** — a brand-new engine with the same seeds replays the
//!    scenario from scratch. Its trace bytes and flight dumps must be
//!    identical to the recording.
//! 3. **Resume** — a third engine runs to the midpoint of the recorded
//!    event count, checkpoints via `ctb-savestate`, is dropped (the
//!    "crash"), and the blob is restored into a fresh engine that runs
//!    the remainder. The resumed trace and dumps must *also* match the
//!    recording byte for byte — crash/restore changes nothing.
//!
//! Results land in `BENCH_replay.json` at the repository root; a run
//! with `--smoke` or any other flag writes
//! `target/experiments/BENCH_replay.json` so it never clobbers the
//! tracked full-run numbers. Both are key-set gated against the
//! committed `BENCH_replay.json`. The report holds no host
//! time, only counts and check results of seeded runs, so the full run
//! regenerates the committed file byte for byte (`scripts/check.sh`
//! requires it).

use crate::Json;
use ctb_cluster::{ClusterStats, EventCluster, EventConfig, ReqOutcome, SimTime};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use ctb_obs::Obs;
use ctb_serve::{BreakerPolicy, FaultConfig, FaultInjector};
use std::sync::Arc;

/// Closed-loop inter-arrival gap (matches the chaos suites).
const GAP_NS: u64 = 1_000_000_000;

/// Knobs of the replay harness, each surfaced as a `reproduce replay`
/// CLI flag; [`Default`] is the tracked configuration.
#[derive(Debug, Clone)]
pub struct ReplayBenchConfig {
    /// Requests driven through the pool (`--requests`).
    pub requests: usize,
    /// Fault-injector seed — the identity of the recorded failure
    /// (`--seed`).
    pub seed: u64,
    /// Injected exec-panic rate on the fastest device (`--panics`).
    pub exec_panic_per_mille: u32,
}

impl Default for ReplayBenchConfig {
    fn default() -> Self {
        ReplayBenchConfig { requests: 160, seed: 0x5EED, exec_panic_per_mille: 350 }
    }
}

impl ReplayBenchConfig {
    /// The CI smoke variant: the same storm at a request count that
    /// finishes in seconds while still catching panics and tripping
    /// the breaker (the schema gate needs every section populated).
    pub fn smoke() -> Self {
        ReplayBenchConfig { requests: 48, ..ReplayBenchConfig::default() }
    }
}

/// What the recording run produced.
#[derive(Debug, Clone)]
pub struct RecordedRun {
    pub events_processed: u64,
    pub completed: usize,
    /// Requests that exhausted re-routes and failed terminally.
    pub failed: usize,
    pub worker_panics: usize,
    pub breaker_trips: usize,
    /// Flight dumps taken (one per panic / trip).
    pub flight_dumps: usize,
    /// Events across all flight dumps.
    pub dump_events: usize,
    /// Rendered obs trace size — the byte string both replays must hit.
    pub trace_bytes: usize,
}

/// Outcome of the two replay checks.
#[derive(Debug, Clone)]
pub struct ReplayCheck {
    /// From-scratch re-run reproduced trace + dumps + outcomes exactly.
    pub rerun_identical: bool,
    /// Event offset the crash/restore replay checkpointed at.
    pub resume_offset: u64,
    /// Size of the savestate blob at that offset.
    pub checkpoint_bytes: usize,
    /// Checkpoint → crash → restore → run reproduced everything exactly.
    pub resume_identical: bool,
}

/// The full tracked report.
#[derive(Debug, Clone)]
pub struct ReplayBenchReport {
    pub cfg: ReplayBenchConfig,
    pub recorded: RecordedRun,
    pub replay: ReplayCheck,
}

/// Everything observable about a finished run — the comparison unit of
/// the harness (wall time deliberately excluded).
#[derive(PartialEq)]
struct Recording {
    outcomes: Vec<ReqOutcome>,
    stats: ClusterStats,
    events_processed: u64,
    trace: String,
    dumps: Vec<String>,
}

/// The chaos suites' 3-signature batch mix.
fn mix_shapes(i: usize) -> Arc<[GemmShape]> {
    let shape_mix: [&[GemmShape]; 3] = [
        &[GemmShape::new(96, 96, 384); 2],
        &[GemmShape::new(48, 64, 96), GemmShape::new(16, 32, 640)],
        &[GemmShape::new(128, 32, 32); 4],
    ];
    shape_mix[i % shape_mix.len()].into()
}

/// Build the scenario's instrumented engine with every request already
/// on the timeline: an exec-panic storm on the fastest device of a
/// 2-device pool, breaker tuned to trip mid-run.
fn build(cfg: &ReplayBenchConfig) -> (EventCluster, Arc<Obs>) {
    let engine_cfg = EventConfig {
        breaker: BreakerPolicy { trip_threshold: 2, open_batches: 4 },
        ..EventConfig::default()
    };
    let faults = vec![
        Some(Arc::new(FaultInjector::new(
            FaultConfig::new(cfg.seed).exec_panic(cfg.exec_panic_per_mille),
        ))),
        None,
    ];
    let (mut eng, obs) =
        EventCluster::with_instrumentation(ArchSpec::pool_presets(2), engine_cfg, faults);
    for i in 0..cfg.requests {
        eng.submit_at(SimTime(1 + i as u64 * GAP_NS), mix_shapes(i), i as u64);
    }
    (eng, obs)
}

fn run_to_completion(mut eng: EventCluster, obs: &Obs) -> Recording {
    let report = eng.run();
    assert_eq!(report.witness_mismatches, 0, "every witness stays bitwise-exact");
    Recording {
        outcomes: report.outcomes,
        stats: report.stats,
        events_processed: report.events_processed,
        trace: obs.render(),
        dumps: obs.flight_dumps().iter().map(ctb_obs::FlightDump::render).collect(),
    }
}

/// Run the scenario uninterrupted and keep the raw recording around for
/// the replay comparisons. A storm that catches no panic leaves nothing
/// to replay: that is an error naming the rate and the seed.
fn record(cfg: &ReplayBenchConfig) -> Result<(Recording, usize), String> {
    let (eng, obs) = build(cfg);
    let rec = run_to_completion(eng, &obs);
    let dump_events = obs.flight_dumps().iter().map(|d| d.events.len()).sum();
    if rec.stats.worker_panics == 0 || rec.dumps.is_empty() {
        return Err(format!(
            "no failure to replay for --panics {} at --seed {}: the storm caught no panic",
            cfg.exec_panic_per_mille, cfg.seed
        ));
    }
    Ok((rec, dump_events))
}

/// Re-run the scenario from scratch on a brand-new engine.
fn rerun(cfg: &ReplayBenchConfig) -> Recording {
    let (eng, obs) = build(cfg);
    run_to_completion(eng, &obs)
}

/// Run to `offset` events, checkpoint, drop the engine (the "crash"),
/// restore the blob into a fresh engine and run the remainder.
fn resume(cfg: &ReplayBenchConfig, offset: u64) -> (Recording, usize) {
    let (mut eng, _obs) = build(cfg);
    assert_eq!(eng.run_steps(offset), offset, "offset beyond scenario length");
    let blob = eng.checkpoint();
    let blob_len = blob.len();
    drop(eng);
    let (restored, obs) =
        EventCluster::restore(ArchSpec::pool_presets(2), &blob).expect("checkpoint restores");
    let obs = obs.expect("instrumented checkpoint hands back its obs");
    (run_to_completion(restored, &obs), blob_len)
}

/// Run every section of the harness under `cfg`; an error when the
/// recording catches no failure to replay.
pub fn run_report(cfg: &ReplayBenchConfig) -> Result<ReplayBenchReport, String> {
    let (recorded, dump_events) = record(cfg)?;
    let rerun_identical = rerun(cfg) == recorded;
    let resume_offset = (recorded.events_processed / 2).max(1);
    let (resumed, checkpoint_bytes) = resume(cfg, resume_offset);
    let resume_identical = resumed == recorded;
    let failed =
        recorded.outcomes.iter().filter(|o| matches!(o, ReqOutcome::Failed { .. })).count();
    Ok(ReplayBenchReport {
        cfg: cfg.clone(),
        recorded: RecordedRun {
            events_processed: recorded.events_processed,
            completed: recorded.stats.completed,
            failed,
            worker_panics: recorded.stats.worker_panics,
            breaker_trips: recorded.stats.breaker_trips,
            flight_dumps: recorded.dumps.len(),
            dump_events,
            trace_bytes: recorded.trace.len(),
        },
        replay: ReplayCheck { rerun_identical, resume_offset, checkpoint_bytes, resume_identical },
    })
}

/// The tracked `BENCH_replay.json` report.
pub fn report_json(r: &ReplayBenchReport) -> Json {
    let (rec, check) = (&r.recorded, &r.replay);
    let scenario = Json::obj([
        ("devices", 2u32.into()),
        ("requests", r.cfg.requests.into()),
        ("seed", r.cfg.seed.into()),
        ("exec_panic_per_mille", r.cfg.exec_panic_per_mille.into()),
    ]);
    let recorded = Json::obj([
        ("events_processed", rec.events_processed.into()),
        ("completed", rec.completed.into()),
        ("failed", rec.failed.into()),
        ("worker_panics", rec.worker_panics.into()),
        ("breaker_trips", rec.breaker_trips.into()),
        ("flight_dumps", rec.flight_dumps.into()),
        ("dump_events", rec.dump_events.into()),
        ("trace_bytes", rec.trace_bytes.into()),
    ]);
    let replay = Json::obj([
        ("rerun_identical", check.rerun_identical.into()),
        ("resume_offset", check.resume_offset.into()),
        ("checkpoint_bytes", check.checkpoint_bytes.into()),
        ("resume_identical", check.resume_identical.into()),
    ]);
    Json::obj([
        ("bench", "replay".into()),
        ("scenario", scenario),
        ("recorded", recorded),
        ("replay", replay),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scenario_records_and_replays_exactly() {
        let r = run_report(&ReplayBenchConfig::smoke()).expect("the smoke storm records a failure");
        assert!(r.recorded.worker_panics > 0, "the storm must catch panics");
        assert!(r.recorded.flight_dumps > 0, "every panic takes a flight dump");
        assert!(r.recorded.dump_events > 0);
        assert!(r.recorded.trace_bytes > 0);
        assert!(r.replay.rerun_identical, "from-scratch re-run must be byte-identical");
        assert!(r.replay.resume_identical, "crash/restore replay must be byte-identical");
        assert!(r.replay.checkpoint_bytes > 0);
        assert!(r.replay.resume_offset > 0);
        crate::assert_committed_keys("replay", &report_json(&r));
    }

    #[test]
    fn different_seeds_record_different_failures() {
        let a = record(&ReplayBenchConfig::smoke()).unwrap().0;
        let b =
            record(&ReplayBenchConfig { seed: 0xBAD5EED, ..ReplayBenchConfig::smoke() }).unwrap().0;
        assert_ne!(a.trace, b.trace, "the seed is the identity of the recorded failure");
    }
}
