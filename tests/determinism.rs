//! Concurrent planning determinism: `Session::plan` raced from many
//! threads must converge on one identical plan with consistent cache
//! accounting — no double-counted misses, no divergent plans.
//!
//! Also home to the trace-determinism property: a served workload
//! driven on a [`SimClock`] must render a byte-identical event log on
//! every replay of the same seed.

use ctb::obs::{EventKind, PointKind};
use ctb::prelude::*;
use proptest::prelude::*;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn shapes() -> Vec<GemmShape> {
    vec![GemmShape::new(48, 64, 96), GemmShape::new(16, 32, 128), GemmShape::new(64, 64, 64)]
}

#[test]
fn racing_planners_agree_on_one_plan_with_consistent_accounting() {
    const THREADS: usize = 8;
    let session = Arc::new(Session::new(Framework::new(ArchSpec::volta_v100())));
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let session = Arc::clone(&session);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Maximize overlap: all threads hit the cold cache at
                // once, so several run the full planning pipeline and
                // race to insert.
                barrier.wait();
                session.plan(&shapes()).expect("plannable")
            })
        })
        .collect();
    let plans: Vec<_> = handles.into_iter().map(|h| h.join().expect("planner ok")).collect();

    // Every thread sees the identical plan.
    let first = &plans[0];
    for (i, p) in plans.iter().enumerate() {
        assert_eq!(first.plan, p.plan, "thread {i} got a different batch plan");
        assert_eq!(first.heuristic, p.heuristic, "thread {i} got a different heuristic");
        assert_eq!(
            first.solution.per_gemm, p.solution.per_gemm,
            "thread {i} got a different tiling solution"
        );
    }

    // Plan-cache accounting: exactly one miss populated the one cached
    // signature; racers that lost the insert count as hits, so the
    // totals always balance.
    let stats = session.stats();
    assert_eq!(session.cached_plans(), 1);
    assert_eq!(stats.misses, 1, "exactly one planning event populated the cache: {stats:?}");
    assert_eq!(stats.hits, THREADS - 1, "everyone else was answered from the cache: {stats:?}");

    // Simulation-memo accounting: misses equal distinct cached keys
    // (no double-count when racing planners simulate the same
    // candidate), and every lookup is either a hit or a miss.
    let sim = session.sim_stats();
    assert_eq!(
        sim.misses,
        session.sim_memo().len(),
        "sim_calls must equal distinct memoized candidates: {sim:?}"
    );
    assert!(sim.misses > 0, "best-of-both planning must simulate candidates");

    // The winning plan replays deterministically from a cold session —
    // concurrency changed nothing.
    let cold = Session::new(Framework::new(ArchSpec::volta_v100()));
    let replay = cold.plan(&shapes()).expect("plannable");
    assert_eq!(first.plan, replay.plan);
    assert_eq!(first.heuristic, replay.heuristic);
}

#[test]
fn racing_planners_over_distinct_workloads_keep_miss_len_invariant() {
    // Interleave several distinct shape signatures across threads: the
    // invariant `misses == cached_plans` and `sim misses == memo len`
    // must hold for any interleaving, not just the single-key race.
    const THREADS: usize = 8;
    let session = Arc::new(Session::new(Framework::new(ArchSpec::volta_v100())));
    let barrier = Arc::new(Barrier::new(THREADS));
    let workloads: Vec<Vec<GemmShape>> = vec![
        vec![GemmShape::new(48, 64, 96)],
        vec![GemmShape::new(16, 32, 128), GemmShape::new(64, 64, 64)],
        vec![GemmShape::new(128, 128, 32)],
        shapes(),
    ];

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let session = Arc::clone(&session);
            let barrier = Arc::clone(&barrier);
            let workloads = workloads.clone();
            std::thread::spawn(move || {
                barrier.wait();
                for round in 0..3 {
                    let w = &workloads[(t + round) % workloads.len()];
                    session.plan(w).expect("plannable");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("planner ok");
    }

    let stats = session.stats();
    assert_eq!(session.cached_plans(), workloads.len());
    assert_eq!(
        stats.misses,
        workloads.len(),
        "misses must equal distinct cached signatures: {stats:?}"
    );
    assert_eq!(stats.hits + stats.misses, THREADS * 3, "every call accounted exactly once");
    let sim = session.sim_stats();
    assert_eq!(sim.misses, session.sim_memo().len(), "no double-counted simulator runs: {sim:?}");
}

// ---------------------------------------------------------------------------
// Trace determinism (ctb-obs): same seed + SimClock => byte-identical log.
// ---------------------------------------------------------------------------

/// Shape pool for the served trace; index picked by the property.
const TRACE_SHAPES: [(usize, usize, usize); 5] =
    [(16, 32, 64), (1, 48, 17), (33, 1, 129), (48, 80, 96), (17, 33, 41)];

/// The terminal `Respond` point is emitted *after* the response channel
/// delivers, so `Ticket::wait` returning does not yet guarantee the
/// event is in the log. Poll for it before advancing the clock so every
/// replay interleaves identically.
fn wait_for_respond(obs: &Obs, req: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let seen = obs.events().iter().any(
            |e| matches!(e.kind, EventKind::Point(PointKind::Respond { req: r, .. }) if r == req),
        );
        if seen {
            return;
        }
        assert!(Instant::now() < deadline, "no terminal event for request {req}");
        std::thread::yield_now();
    }
}

/// Serve `picks` serially through a single-worker, single-batch server
/// on a simulated clock and return the rendered event log.
fn served_trace(seed: u64, picks: &[(usize, u64)]) -> String {
    let clock = Arc::new(SimClock::new());
    let obs = Arc::new(Obs::sim(Arc::clone(&clock)));
    let session = Session::new(Framework::new(ArchSpec::volta_v100()));
    let cfg = ServeConfig {
        max_batch: 1,
        batch_window: Duration::ZERO,
        workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::with_instrumentation(session, cfg, None, Some(Arc::clone(&obs)));
    for (k, &(which, advance_us)) in picks.iter().enumerate() {
        clock.advance(advance_us);
        let (m, n, kk) = TRACE_SHAPES[which % TRACE_SHAPES.len()];
        let batch =
            GemmBatch::random(&[GemmShape::new(m, n, kk)], 1.0, 0.5, seed.wrapping_add(k as u64));
        let req = GemmRequest {
            a: batch.a[0].clone(),
            b: batch.b[0].clone(),
            c: batch.c[0].clone(),
            alpha: 1.0,
            beta: 0.5,
            deadline: None,
        };
        let ticket = server.submit(req).expect("admitted");
        ticket.wait().expect("request completes");
        wait_for_respond(&obs, k as u64);
    }
    let stats = server.shutdown();
    assert_eq!(stats.completed, picks.len(), "every pick completes");
    TraceAudit::new(obs.events()).check().expect("trace invariants hold");
    obs.render()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn served_trace_is_byte_identical_across_replays(
        seed in 0u64..1_000_000,
        picks in proptest::collection::vec((0usize..TRACE_SHAPES.len(), 0u64..500), 1..4),
    ) {
        let first = served_trace(seed, &picks);
        let second = served_trace(seed, &picks);
        prop_assert!(!first.is_empty(), "a served workload must produce events");
        prop_assert_eq!(first, second);
    }
}

// ---------------------------------------------------------------------------
// Event-engine determinism: the discrete-event cluster has *no* threads,
// so the byte-identical guarantee needs no wait_for_respond dance — the
// whole run is a pure function of (pool, config, seed).
// ---------------------------------------------------------------------------

/// Run an open-loop Table-2 load through the instrumented event engine
/// and return the rendered trace plus the decision outcomes.
fn event_trace(seed: u64) -> (String, Vec<ctb::cluster::ReqOutcome>) {
    let cfg =
        EventConfig { witness_every: 3, placement: PlacementMode::Exact, ..EventConfig::default() };
    let (mut eng, obs) = ctb::cluster::EventCluster::with_instrumentation(
        ArchSpec::pool_presets(4),
        cfg,
        vec![None; 4],
    );
    eng.load(LoadGen::table2(seed, 40_000.0, 120));
    let report = eng.run();
    assert_eq!(report.requests, 120, "open loop delivers every request");
    assert_eq!(report.witness_mismatches, 0, "sampled witnesses stay bitwise-exact");
    TraceAudit::new(obs.events()).check().expect("event trace invariants hold");
    (obs.render(), report.outcomes)
}

#[test]
fn event_engine_trace_is_byte_identical_across_replays() {
    let (trace_a, outcomes_a) = event_trace(0xC0FFEE);
    let (trace_b, outcomes_b) = event_trace(0xC0FFEE);
    assert!(!trace_a.is_empty(), "an open-loop run must produce events");
    assert_eq!(trace_a, trace_b, "same seed must render the identical event log");
    assert_eq!(outcomes_a, outcomes_b, "same seed must make the identical decisions");

    // And a different seed genuinely changes the run (the generator is
    // not ignoring its seed).
    let (trace_c, _) = event_trace(0xBEEF);
    assert_ne!(trace_a, trace_c, "different seeds must diverge");
}

// ---------------------------------------------------------------------------
// PlanShare under high session fan-out: N sessions × a storm of distinct
// signatures must produce exactly one miss (and one insert) per distinct
// signature, share-wide, no matter how the threads interleave.
// ---------------------------------------------------------------------------

#[test]
fn plan_share_fanout_storm_inserts_each_signature_once() {
    const SESSIONS: usize = 8;
    const ROUNDS: usize = 3;

    // 12 distinct signatures: every (m, n, k) triple is unique, so each
    // is its own plan-cache key under the shared fingerprint.
    let storm: Vec<Vec<GemmShape>> = (0..12)
        .map(|i| vec![GemmShape::new(16 + 8 * i, 24 + 4 * i, 32 + 16 * i); 1 + i % 3])
        .collect();

    let share = Arc::new(ctb::core::PlanShare::new());
    let sessions: Vec<Arc<Session>> = (0..SESSIONS)
        .map(|_| {
            Arc::new(Session::with_share(
                Framework::new(ArchSpec::volta_v100()),
                Arc::clone(&share),
            ))
        })
        .collect();

    let barrier = Arc::new(Barrier::new(SESSIONS));
    let handles: Vec<_> = sessions
        .iter()
        .enumerate()
        .map(|(t, session)| {
            let session = Arc::clone(session);
            let barrier = Arc::clone(&barrier);
            let storm = storm.clone();
            std::thread::spawn(move || {
                barrier.wait();
                // Each session walks the whole storm, rotated so every
                // signature sees concurrent first-callers.
                for round in 0..ROUNDS {
                    for i in 0..storm.len() {
                        let w = &storm[(t + round + i) % storm.len()];
                        session.plan(w).expect("plannable");
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("storm thread ok");
    }

    // No duplicate inserts: the share holds exactly one entry per
    // distinct signature (all sessions share one planning context).
    assert_eq!(share.cached_plans_total(), storm.len(), "one insert per distinct signature");
    for s in &sessions {
        assert_eq!(s.cached_plans(), storm.len(), "every session sees the full shared cache");
    }

    // Summed misses across sessions equal distinct signatures — losers
    // of first-caller races count as hits, never as extra misses — and
    // every lookup is accounted exactly once.
    let (hits, misses) =
        sessions.iter().map(|s| s.stats()).fold((0, 0), |(h, m), st| (h + st.hits, m + st.misses));
    assert_eq!(misses, storm.len(), "misses must equal distinct fingerprints");
    assert_eq!(hits + misses, SESSIONS * ROUNDS * storm.len(), "every plan() call accounted");

    // The shared simulation memo obeys the same no-duplicate law.
    assert_eq!(
        share.sim_memo().misses(),
        share.sim_memo().len(),
        "no candidate simulated twice share-wide"
    );
}
