//! Crash-point differential suite: `checkpoint` at swept event offsets
//! and `restore` into a fresh engine must change *nothing* observable
//! about the rest of the run.
//!
//! Methodology: every chaos schedule the chaos suite runs (plus the
//! fault-free baseline) is executed twice per crash point —
//!
//! 1. uninterrupted, recording the full fingerprint: per-request
//!    outcomes, the final [`ClusterStats`] (`==`, including the exact
//!    `f64` busy/makespan aggregates), the per-device [`FaultLog`]s,
//!    the rendered obs trace bytes and the flight-recorder dumps;
//! 2. interrupted: run `offset` events, `checkpoint()`, drop the
//!    engine, `restore()` the blob into a brand-new engine (fresh
//!    sessions, fresh injectors, fresh obs) and run the remainder.
//!
//! The resumed fingerprint must equal the uninterrupted one field for
//! field and byte for byte — and the blob itself must survive
//! save → load → save byte-identically at every crash point.
//!
//! The suite also pins the golden on-disk fixture
//! (`tests/fixtures/savestate_v11.bin`) for format-version discipline —
//! since v3 the blob carries each device's
//! chiplet topology, the locality-ranking flag, operand residency and
//! the residency counters, and one crash-swept schedule runs
//! locality-aware placement over a multi-chiplet pool so all of it
//! replays under fire; since v4 it holds the plan-cache counters once
//! per arch class and residency as `(shapes, device)` records; since v5
//! it writes each arch's name and topology once per class, and none of
//! the pending counts and flags restore counts from the timeline; since
//! v6 its obs image holds no bus config; since v7 that image is the
//! event log and one mark per flight dump, with no ring, sequence
//! counter or dump copies; since v8 the plan cache is one map with no
//! shard count and each key carries its calibration epoch; since v9
//! the fault injectors have no admission site and a `BatchDone` event
//! no abandoned flag; since v10 the engine's plan cache is always
//! unbounded and admit-all, so the config holds no share config; since
//! v11 the blob holds no plan-cache key and no simulation memo, only
//! each arch class's predictions, which restore replans and checks bit
//! for bit. The v10 fixture stays committed as the input of a
//! typed-rejection test. The suite further round-trips randomized
//! mid-run states under proptest.

use ctb_cluster::{EventCluster, EventConfig, ReqOutcome, SimTime, StealPolicy};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use ctb_obs::Obs;
use ctb_savestate::{SavestateError, FORMAT_VERSION, MAGIC};
use ctb_serve::{BreakerPolicy, FaultConfig, FaultInjector, FaultLog};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// Closed-loop inter-arrival gap: the pool drains between arrivals.
const GAP_NS: u64 = 1_000_000_000;

fn pool() -> Vec<ArchSpec> {
    ArchSpec::pool_presets(2)
}

/// The chaos suite's 3-signature batch mix.
fn mix_shapes(i: usize) -> Arc<[GemmShape]> {
    let shape_mix: [&[GemmShape]; 3] = [
        &[GemmShape::new(96, 96, 384); 2],
        &[GemmShape::new(48, 64, 96), GemmShape::new(16, 32, 640)],
        &[GemmShape::new(128, 32, 32); 4],
    ];
    shape_mix[i % shape_mix.len()].into()
}

fn injector(cfg: FaultConfig) -> Option<Arc<FaultInjector>> {
    Some(Arc::new(FaultInjector::new(cfg)))
}

/// One reproducible scenario: an event-engine config, a fault schedule
/// and a request count, mirroring the chaos suite's schedules.
struct Schedule {
    cfg: EventConfig,
    n: usize,
    /// Simulated ns between arrivals.
    gap_ns: u64,
    faults: fn() -> Vec<Option<Arc<FaultInjector>>>,
    kill_first: Option<usize>,
    /// Device pool the schedule runs (and restores) over; the default
    /// Table 1 pair for most schedules, a multi-chiplet pool for the
    /// v3 locality coverage.
    pool: fn() -> Vec<ArchSpec>,
}

fn breaker_opens_mid_load() -> Schedule {
    Schedule {
        cfg: EventConfig {
            breaker: BreakerPolicy { trip_threshold: 3, open_batches: 8 },
            ..EventConfig::default()
        },
        n: 24,
        gap_ns: GAP_NS,
        faults: || vec![injector(FaultConfig::new(0xA11CE).plan_fail(1000)), None],
        kill_first: None,
        pool,
    }
}

fn exec_panic_storm() -> Schedule {
    Schedule {
        cfg: EventConfig {
            breaker: BreakerPolicy { trip_threshold: 6, open_batches: 4 },
            ..EventConfig::default()
        },
        n: 30,
        gap_ns: GAP_NS,
        faults: || vec![injector(FaultConfig::new(0x5EED).exec_panic(400)), None],
        kill_first: None,
        pool,
    }
}

fn kill_device_routes_to_survivor() -> Schedule {
    Schedule {
        cfg: EventConfig {
            steal: StealPolicy { enabled: false, ..StealPolicy::default() },
            ..EventConfig::default()
        },
        n: 16,
        gap_ns: GAP_NS,
        faults: || vec![None, None],
        kill_first: Some(0),
        pool,
    }
}

fn chaos_on_every_device() -> Schedule {
    Schedule {
        cfg: EventConfig {
            breaker: BreakerPolicy { trip_threshold: 4, open_batches: 4 },
            max_reroutes: 2,
            ..EventConfig::default()
        },
        n: 32,
        gap_ns: GAP_NS,
        faults: || {
            vec![
                injector(FaultConfig::new(0xD00D).plan_fail(250).exec_panic(150)),
                injector(
                    FaultConfig::new(0xF00D)
                        .exec_panic(250)
                        .slow_worker(100, Duration::from_micros(300)),
                ),
            ]
        },
        kill_first: None,
        pool,
    }
}

fn fault_free() -> Schedule {
    Schedule {
        cfg: EventConfig::default(),
        n: 18,
        gap_ns: GAP_NS,
        faults: || vec![None, None],
        kill_first: None,
        pool,
    }
}

/// The v3 coverage schedule: locality-aware placement over a
/// multi-chiplet pool (B200 2-die, H100, MCM-GPU 4-die) with stealing
/// under a light panic storm. Mid-run checkpoints embed signature
/// holders, non-zero residency counters and per-device
/// chiplet topologies, and the crash sweep proves the resumed engine
/// re-ranks with the identical locality penalties.
fn locality_on_chiplet_pool() -> Schedule {
    Schedule {
        cfg: EventConfig::default(),
        n: 24,
        gap_ns: GAP_NS,
        faults: || vec![None, injector(FaultConfig::new(0x10CA1).exec_panic(200)), None],
        kill_first: None,
        pool: || ArchSpec::chiplet_pool_presets(3),
    }
}

/// Queues of one job under a burst of arrivals 100 ns apart and a light
/// panic storm: placements spill past full queues and back off, and
/// mid-run checkpoints hold full queues.
fn burst_into_one_job_queues() -> Schedule {
    Schedule {
        cfg: EventConfig { queue_capacity: 1, ..EventConfig::default() },
        n: 24,
        gap_ns: 100,
        faults: || vec![injector(FaultConfig::new(0xB0257).exec_panic(200)), None],
        kill_first: None,
        pool,
    }
}

/// Build the schedule's instrumented engine with every request already
/// on the timeline.
fn build(s: &Schedule) -> (EventCluster, Arc<Obs>) {
    let (mut eng, obs) =
        EventCluster::with_instrumentation((s.pool)(), s.cfg.clone(), (s.faults)());
    if let Some(dev) = s.kill_first {
        eng.kill_at(SimTime::ZERO, dev);
    }
    for i in 0..s.n {
        eng.submit_at(SimTime(1 + i as u64 * s.gap_ns), mix_shapes(i), i as u64);
    }
    (eng, obs)
}

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    outcomes: Vec<ReqOutcome>,
    stats: ctb_cluster::ClusterStats,
    fault_logs: Vec<Option<FaultLog>>,
    events_processed: u64,
    trace: String,
    dumps: Vec<String>,
}

fn finish(mut eng: EventCluster, obs: &Obs) -> Fingerprint {
    let report = eng.run();
    assert_eq!(report.witness_mismatches, 0, "every witness stays bitwise-exact");
    Fingerprint {
        outcomes: report.outcomes,
        stats: report.stats,
        fault_logs: eng.fault_logs(),
        events_processed: report.events_processed,
        trace: obs.render(),
        dumps: obs.flight_dumps().iter().map(ctb_obs::FlightDump::render).collect(),
    }
}

/// Checkpoint after `offset` events, restore into a fresh engine, run
/// the remainder, and return the resumed fingerprint (asserting
/// save → load → save byte-identity on the way).
fn resume_from(s: &Schedule, offset: u64) -> Fingerprint {
    let (mut eng, _obs) = build(s);
    assert_eq!(eng.run_steps(offset), offset, "offset beyond schedule length");
    let blob = eng.checkpoint();
    drop(eng); // the "crash"
    let (restored, obs) = EventCluster::restore((s.pool)(), &blob).expect("checkpoint restores");
    let obs = obs.expect("instrumented checkpoint hands back its obs");
    assert_eq!(blob, restored.checkpoint(), "save -> load -> save must be byte-identical");
    finish(restored, &obs)
}

/// The crash points swept per schedule: early, quarter, half,
/// three-quarter marks of the uninterrupted event count.
fn crash_points(total_events: u64) -> Vec<u64> {
    let mut points = vec![1, total_events / 4, total_events / 2, 3 * total_events / 4];
    points.retain(|&p| p > 0 && p < total_events);
    points.dedup();
    assert!(points.len() >= 3, "schedule too short to sweep ({total_events} events)");
    points
}

fn differential(s: Schedule) {
    let (eng, obs) = build(&s);
    let baseline = finish(eng, &obs);
    assert_eq!(baseline.stats.completed + count_failed(&baseline.outcomes), s.n);
    for offset in crash_points(baseline.events_processed) {
        let resumed = resume_from(&s, offset);
        assert_eq!(resumed.outcomes, baseline.outcomes, "decisions diverged at offset {offset}");
        assert_eq!(resumed.stats, baseline.stats, "stats diverged at offset {offset}");
        assert_eq!(resumed.fault_logs, baseline.fault_logs, "fault logs diverged at {offset}");
        assert_eq!(resumed.events_processed, baseline.events_processed);
        assert_eq!(resumed.trace, baseline.trace, "trace bytes diverged at offset {offset}");
        assert_eq!(resumed.dumps, baseline.dumps, "flight dumps diverged at offset {offset}");
    }
}

fn count_failed(outcomes: &[ReqOutcome]) -> usize {
    outcomes
        .iter()
        .filter(|o| matches!(o, ReqOutcome::Failed { .. } | ReqOutcome::PlanRejected { .. }))
        .count()
}

// -- the chaos schedules, crash-swept ---------------------------------------

#[test]
fn crash_restore_breaker_opens_mid_load() {
    differential(breaker_opens_mid_load());
}

#[test]
fn crash_restore_exec_panic_storm() {
    differential(exec_panic_storm());
}

#[test]
fn crash_restore_kill_device_routes_to_survivor() {
    differential(kill_device_routes_to_survivor());
}

#[test]
fn crash_restore_chaos_on_every_device() {
    differential(chaos_on_every_device());
}

#[test]
fn crash_restore_fault_free() {
    differential(fault_free());
}

/// Chiplet topology + residency under fire: every crash point must
/// round-trip the signature holders, their counters and the per-device
/// topologies byte-identically, and the resumed run's locality-aware
/// placements must match the uninterrupted run's exactly.
#[test]
fn crash_restore_locality_on_chiplet_pool() {
    let s = locality_on_chiplet_pool();
    // The schedule must actually hit and miss residency, or the sweep
    // proves nothing about the v3 payload.
    let (eng, obs) = build(&s);
    let baseline = finish(eng, &obs);
    assert!(baseline.stats.residency_misses > 0, "schedule never staged operands");
    assert!(baseline.stats.residency_hits > 0, "schedule never re-used a resident device");
    assert!(baseline.stats.remote_operand_bytes > 0, "chiplet pool never charged remote bytes");
    differential(s);
}

/// Full queues under fire: every crash point must round-trip the queued
/// jobs, and the resumed run must spill and back off exactly as the
/// uninterrupted run does.
#[test]
fn crash_restore_burst_into_one_job_queues() {
    let s = burst_into_one_job_queues();
    // Some queue must actually sit at its bound, or the sweep proves
    // nothing about it.
    let (mut eng, _obs) = build(&s);
    let mut filled = false;
    while eng.run_steps(1) == 1 {
        let devices = eng.stats_snapshot().devices;
        filled |= devices.iter().any(|d| d.queue_depth >= s.cfg.queue_capacity);
    }
    assert!(filled, "schedule never filled a queue");
    differential(s);
}

// -- typed rejection of worlds that do not match ----------------------------

#[test]
fn restore_rejects_wrong_pool_with_typed_mismatch() {
    let (mut eng, _obs) = build(&fault_free());
    eng.run_steps(5);
    let blob = eng.checkpoint();
    // Wrong device count.
    let Err(err) = EventCluster::restore(ArchSpec::pool_presets(3), &blob) else {
        panic!("3-device pool restored a 2-device checkpoint");
    };
    assert!(matches!(err, SavestateError::Mismatch(_)), "got {err:?}");
    // Right count, wrong arch order.
    let mut swapped = pool();
    swapped.reverse();
    let Err(err) = EventCluster::restore(swapped, &blob) else {
        panic!("swapped pool restored a mismatched checkpoint");
    };
    assert!(matches!(err, SavestateError::Mismatch(_)), "got {err:?}");
    // The V100 keeps its name and topology but runs at 80% clock, so
    // only replanning its predictions can tell the pools apart.
    let mut slowed = pool();
    let name = ArchSpec::volta_v100().name;
    let v100 = slowed.iter_mut().find(|a| a.name == name).expect("the pool holds a V100");
    v100.clock_ghz *= 0.8;
    match EventCluster::restore(slowed, &blob) {
        Err(SavestateError::Mismatch(msg)) => assert!(msg.contains(name), "{msg}"),
        Err(e) => panic!("expected Mismatch, got {e:?}"),
        Ok(_) => panic!("a V100 at 80% clock resumed on the checkpoint's predictions"),
    }
    // The class records match, device 1 does not: the checkpoint pool
    // has the same two classes in another device order.
    let (v100, titan) = (ArchSpec::volta_v100(), ArchSpec::pascal_titan_xp());
    let reordered = vec![v100.clone(), v100.clone(), titan.clone()];
    let blob =
        EventCluster::new(vec![v100.clone(), titan, v100], EventConfig::default()).checkpoint();
    match EventCluster::restore(reordered, &blob) {
        Err(SavestateError::Mismatch(msg)) => assert!(msg.contains("device 1"), "{msg}"),
        Err(e) => panic!("expected Mismatch, got {e:?}"),
        Ok(_) => panic!("a reordered pool restored the checkpoint"),
    }
    // Only device 0's topology differs.
    let stock = ArchSpec::mcm_gpu_4die();
    let rewired = ArchSpec {
        topology: ctb_gpu_specs::ChipletTopology::split(4, 3_000.0, 0.6, 400.0),
        ..stock.clone()
    };
    let blob = EventCluster::new(vec![stock], EventConfig::default()).checkpoint();
    match EventCluster::restore(vec![rewired], &blob) {
        Err(SavestateError::Mismatch(msg)) => {
            assert!(msg.contains("device 0") && msg.contains("topology"), "{msg}")
        }
        Err(e) => panic!("expected Mismatch, got {e:?}"),
        Ok(_) => panic!("a rewired device restored the checkpoint"),
    }
}

// -- golden fixture + format-version discipline -----------------------------

fn fixture_path(version: u32) -> std::path::PathBuf {
    let name = format!("tests/fixtures/savestate_v{version}.bin");
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name)
}

/// The fixture's construction: the exec-panic storm checkpointed 40
/// events in. Fully deterministic, so regeneration is byte-stable.
fn fixture_bytes() -> Vec<u8> {
    let (mut eng, _obs) = build(&exec_panic_storm());
    assert_eq!(eng.run_steps(40), 40);
    eng.checkpoint()
}

/// The committed fixture must match what the current build serializes.
/// If a codec change broke this on purpose, bump [`FORMAT_VERSION`] and
/// regenerate:
/// `CTB_WRITE_FIXTURE=1 cargo test -p ctb-cluster --test savestate golden`.
#[test]
fn golden_fixture_matches_current_format_and_resumes() {
    let bytes = fixture_bytes();
    let path = fixture_path(FORMAT_VERSION);
    if std::env::var("CTB_WRITE_FIXTURE").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
    }
    let on_disk = std::fs::read(&path).expect(
        "golden fixture missing — regenerate with \
         CTB_WRITE_FIXTURE=1 cargo test -p ctb-cluster --test savestate golden",
    );
    assert_eq!(
        on_disk, bytes,
        "savestate layout changed without a FORMAT_VERSION bump + fixture regeneration"
    );
    // And the fixture actually resumes: the rest of the storm completes
    // with bitwise-exact witnesses, identical to the uninterrupted run.
    let (restored, obs) = EventCluster::restore(pool(), &on_disk).expect("fixture restores");
    let resumed = finish(restored, &obs.expect("fixture is instrumented"));
    let (eng, obs) = build(&exec_panic_storm());
    let baseline = finish(eng, &obs);
    assert_eq!(resumed, baseline, "fixture-resumed run diverged from the uninterrupted run");
}

/// Version skew: a blob stamped with a *newer* format version loads as
/// a typed [`SavestateError::UnsupportedVersion`] — never a panic, and
/// never a silent misparse.
#[test]
fn newer_format_version_fails_typed_not_panicking() {
    let mut bytes = fixture_bytes();
    let bumped = FORMAT_VERSION + 1;
    bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&bumped.to_le_bytes());
    let Err(err) = EventCluster::restore(pool(), &bytes) else {
        panic!("version-bumped blob restored successfully");
    };
    assert_eq!(
        err,
        SavestateError::UnsupportedVersion { found: bumped, supported: FORMAT_VERSION }
    );
}

/// Version skew the other way: a v1 checkpoint predates every layout
/// change since, so the cluster restore rejects it with a typed
/// [`SavestateError::Mismatch`] instead of misparsing the payload.
#[test]
fn v1_checkpoint_is_rejected_with_typed_mismatch() {
    let mut bytes = fixture_bytes();
    bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&1u32.to_le_bytes());
    let Err(err) = EventCluster::restore(pool(), &bytes) else {
        panic!("v1-stamped checkpoint restored successfully");
    };
    assert!(matches!(err, SavestateError::Mismatch(_)), "got {err:?}");
}

/// A v2 checkpoint predates the chiplet-topology / locality / residency
/// layout, so the cluster restore rejects it the same typed way rather
/// than misparsing the device records.
#[test]
fn v2_checkpoint_is_rejected_with_typed_mismatch() {
    let mut bytes = fixture_bytes();
    bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&2u32.to_le_bytes());
    let Err(err) = EventCluster::restore(pool(), &bytes) else {
        panic!("v2-stamped checkpoint restored successfully");
    };
    assert!(matches!(err, SavestateError::Mismatch(_)), "got {err:?}");
    if let Err(SavestateError::Mismatch(msg)) = EventCluster::restore(pool(), &bytes) {
        assert!(msg.contains("v2"), "message should name the stale version: {msg}");
    }
}

/// The committed v10 fixture, whose blob still holds the plan-cache
/// keys and the simulation memo, is refused with a typed
/// [`SavestateError::Mismatch`] that names v10 and v11.
#[test]
fn v10_checkpoint_is_rejected_with_typed_mismatch() {
    let v10 = std::fs::read(fixture_path(10)).expect("the v10 fixture is committed");
    match EventCluster::restore(pool(), &v10) {
        Err(SavestateError::Mismatch(msg)) => {
            assert!(msg.contains("v10") && msg.contains("v11"), "{msg}")
        }
        Err(e) => panic!("expected Mismatch, got {e:?}"),
        Ok(_) => panic!("the v10 fixture restored successfully"),
    }
}

/// Truncation anywhere in the blob is a typed `Corrupt`, not a panic:
/// every proper prefix of the fixture is tried, so each reader the
/// restore runs sees a cut inside every field it decodes.
#[test]
fn truncated_fixture_fails_typed_not_panicking() {
    let bytes = fixture_bytes();
    for cut in 0..bytes.len() {
        match EventCluster::restore(pool(), &bytes[..cut]) {
            Err(SavestateError::Corrupt(_)) => {}
            Err(e) => panic!("truncation at {cut} gave the wrong error kind: {e:?}"),
            Ok(_) => panic!("truncation at {cut} restored successfully"),
        }
    }
}

// -- recorded regression corpus ---------------------------------------------

/// Replays the boundary cases recorded in
/// `tests/savestate.proptest-regressions`. The vendored proptest shim
/// does not persist or replay regression files itself, so the corpus
/// is pinned here by hand and runs with the rest of the suite.
#[test]
fn regression_corpus_replays_recorded_boundary_cases() {
    let s = chaos_on_every_device();
    let (eng, obs) = build(&s);
    let baseline = finish(eng, &obs);
    let cases: [(&str, u64); 3] = [
        // Checkpoint before the first event: restore must replay the
        // whole schedule, untouched timeline included.
        ("checkpoint-before-first-event", 0),
        // Checkpoint at drain: nothing left to run, yet outcomes,
        // stats and the trace must all survive the round trip.
        ("checkpoint-at-drain", baseline.events_processed),
        // Checkpoint inside a breaker open window, mid fault storm.
        ("checkpoint-mid-breaker-window", baseline.events_processed / 3),
    ];
    for (name, offset) in cases {
        let resumed = resume_from(&s, offset);
        assert_eq!(resumed, baseline, "regression case {name:?} (offset {offset}) diverged");
    }
}

// -- randomized round-trips -------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any reachable mid-run engine state survives
    /// checkpoint → restore → checkpoint byte-identically, and the
    /// resumed run finishes the schedule with bitwise-exact witnesses.
    #[test]
    fn random_states_round_trip_byte_identically(
        seed in 0u64..2_000,
        n in 4usize..24,
        steps in 0u64..120,
        plan_fail in 0u32..400,
        exec_panic in 0u32..400,
        instrumented in 0u32..2,
    ) {
        let cfg = EventConfig { witness_every: 5, ..EventConfig::default() };
        let faults = vec![
            injector(FaultConfig::new(seed).plan_fail(plan_fail).exec_panic(exec_panic)),
            None,
        ];
        let mut eng = if instrumented == 1 {
            EventCluster::with_instrumentation(pool(), cfg, faults).0
        } else {
            EventCluster::with_faults(pool(), cfg, faults)
        };
        for i in 0..n {
            // Tight spacing so queues, re-routes and breaker windows
            // all appear among the sampled states.
            eng.submit_at(SimTime(1 + i as u64 * 50_000), mix_shapes(i), seed ^ i as u64);
        }
        eng.run_steps(steps);
        let blob = eng.checkpoint();
        let (restored, _obs) = EventCluster::restore(pool(), &blob).expect("restore");
        prop_assert_eq!(&blob, &restored.checkpoint());
        let report = {
            let mut restored = restored;
            restored.run()
        };
        prop_assert_eq!(report.witness_mismatches, 0);
        prop_assert_eq!(report.requests, n);
    }
}
