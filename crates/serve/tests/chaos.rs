//! Deterministic chaos suite for the serving layer's resilience
//! contracts.
//!
//! Every test attaches a seeded [`FaultInjector`] and drives real
//! traffic through the server while the injector forces plan failures,
//! executor panics, degraded-path panics, slow workers and deadline
//! storms. The contracts under fire:
//!
//! 1. **Zero hangs** — every ticket resolves within a generous bound
//!    ([`Ticket::wait_for`] turns a would-be hang into a test failure).
//! 2. **Zero drops** — every admitted request resolves to `Ok` or a
//!    typed [`ServeError`]; workers survive every panic.
//! 3. **Bitwise exactness** — every `Ok` payload, coordinated *or*
//!    degraded, equals [`GemmBatch::reference_result_exact`] for its
//!    own inputs.
//! 4. **Exact accounting** — [`ServeStats`] reconciles against the
//!    injector's [`FaultLog`] and the client-side tallies, whatever
//!    the thread interleaving.
//! 5. **Exact observability** — every schedule runs with the `ctb-obs`
//!    bus installed; [`TraceAudit`] checks the structural invariants of
//!    the trace (span nesting, one terminal per admission, additive
//!    timings) and its counts reconcile `==` against [`ServeStats`].

use ctb_core::{Framework, Session};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::{assert_bitwise_eq, GemmBatch, GemmShape, MatF32};
use ctb_obs::{Obs, TraceAudit, TraceCounts};
use ctb_serve::{
    quiet_injected_panics, BreakerPolicy, FaultConfig, FaultInjector, GemmRequest, RetryPolicy,
    ServeConfig, ServeError, ServeStats, Server, Ticket,
};
use std::sync::Arc;
use std::time::Duration;

/// Upper bound on any single wait: far beyond every injected delay, so
/// hitting it means a genuine hang, not slowness.
const HANG_BOUND: Duration = Duration::from_secs(30);

fn server_with_faults(cfg: ServeConfig, faults: FaultConfig) -> (Server, Arc<FaultInjector>) {
    quiet_injected_panics();
    let injector = Arc::new(FaultInjector::new(faults));
    let session = Session::new(Framework::new(ArchSpec::volta_v100()));
    let obs = Arc::new(Obs::wall());
    let server = Server::with_instrumentation(session, cfg, Some(Arc::clone(&injector)), Some(obs));
    (server, injector)
}

/// Every chaos schedule ends here: audit the trace's structural
/// invariants, then reconcile its counts against the final stats with
/// `==` — no tolerances. Any dropped, duplicated, or mis-attributed
/// event fails one of these.
fn audit_and_reconcile(obs: &Obs, stats: &ServeStats) -> TraceCounts {
    let counts = TraceAudit::new(obs.events()).check().expect("trace invariants hold");
    assert_eq!(counts.terminals(), counts.admits, "one terminal event per admitted request");
    assert_eq!(counts.admits - counts.rejects, stats.submitted, "admits vs submitted");
    assert_eq!(counts.rejects, stats.rejected, "reject events vs rejected");
    assert_eq!(counts.responds, stats.completed, "respond events vs completed");
    assert_eq!(counts.responds_degraded, stats.degraded, "degraded responds vs degraded");
    assert_eq!(counts.expired, stats.expired, "expiry events vs expired");
    assert_eq!(counts.panics_caught, stats.worker_panics, "panic events vs worker_panics");
    assert_eq!(counts.plan_failures, stats.plan_failures, "plan-failure events vs plan_failures");
    assert_eq!(counts.breaker_trips, stats.breaker_trips, "breaker events vs breaker_trips");
    assert_eq!(counts.retries, stats.retries, "retry events vs retries");
    assert_eq!(counts.batches, stats.batches, "batch events vs batches");
    assert_eq!(
        counts.batch_members,
        stats.completed - stats.degraded,
        "coordinated batch sizes vs coordinated completions"
    );
    assert_eq!(counts.abandoned(), stats.abandoned, "abandoned flags vs abandoned");
    assert_eq!(counts.plan_cache_hits, stats.plan_cache.hits, "cache-hit events vs plan cache");
    assert_eq!(
        counts.plan_cache_misses, stats.plan_cache.misses,
        "cache-miss events vs plan cache"
    );
    counts
}

/// Deterministic request + its bitwise-expected result.
fn request_and_expected(shape: GemmShape, seed: u64) -> (GemmRequest, Vec<MatF32>) {
    let scalars = [(1.0f32, 0.0f32), (1.0, 0.5), (0.75, -1.5)];
    let (alpha, beta) = scalars[(seed % scalars.len() as u64) as usize];
    let batch = GemmBatch::random(&[shape], alpha, beta, seed);
    let expected = batch.reference_result_exact();
    let req = GemmRequest {
        a: batch.a[0].clone(),
        b: batch.b[0].clone(),
        c: batch.c[0].clone(),
        alpha,
        beta,
        deadline: None,
    };
    (req, expected)
}

fn shape_pool() -> Vec<GemmShape> {
    vec![
        GemmShape::new(16, 32, 64),
        GemmShape::new(1, 48, 17),
        GemmShape::new(33, 1, 129),
        GemmShape::new(48, 80, 96),
        GemmShape::new(17, 33, 41),
    ]
}

/// Schedule 1: planning fails ~40% of the time. With `max_batch: 1`
/// (one member per batch) and the breaker disabled, the accounting is
/// exact: every injected plan failure produces exactly one degraded
/// completion, everything else rides the coordinated path, and every
/// result is bitwise perfect either way.
#[test]
fn plan_failure_storm_degrades_exactly_and_stays_bitwise_exact() {
    const N: usize = 60;
    let (server, injector) = server_with_faults(
        ServeConfig {
            max_batch: 1,
            batch_window: Duration::ZERO,
            breaker: BreakerPolicy { trip_threshold: 0, open_batches: 0 },
            ..ServeConfig::default()
        },
        FaultConfig::new(0xC0FFEE).plan_fail(400),
    );
    let pool = shape_pool();
    let mut degraded_seen = 0usize;
    for i in 0..N {
        let (req, expected) = request_and_expected(pool[i % pool.len()], i as u64);
        let got = server
            .submit(req)
            .expect("admitted")
            .wait_for(HANG_BOUND)
            .expect("plan failures must degrade, not error");
        assert_bitwise_eq(&expected, std::slice::from_ref(&got.c), "storm result");
        degraded_seen += usize::from(got.degraded);
    }
    let obs = Arc::clone(server.observer().expect("bus installed"));
    let stats = server.shutdown();
    audit_and_reconcile(&obs, &stats);
    let log = injector.log();
    assert!(log.plan_fails > 0, "the storm actually fired: {log:?}");
    assert_eq!(stats.plan_failures, log.plan_fails, "every injected failure counted");
    assert_eq!(stats.degraded, log.plan_fails, "one degraded completion per failed plan");
    assert_eq!(degraded_seen, stats.degraded, "clients saw the same degraded count");
    assert_eq!(stats.completed, N, "zero drops");
    assert_eq!(stats.batches, N - log.plan_fails, "the rest ran coordinated");
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(stats.retries, 0, "plan failures degrade without retrying");
}

/// Schedule 2: the executor panics ~30% of the time. With single-member
/// batches, generous retries, ample budget, and the breaker disabled,
/// every panic resolves to exactly one retry *or* one exhaustion
/// degrade: `retries + degraded == exec_panics`, and the worker pool
/// survives all of it.
#[test]
fn exec_panic_storm_retries_with_exact_accounting() {
    const N: usize = 60;
    let (server, injector) = server_with_faults(
        ServeConfig {
            max_batch: 1,
            batch_window: Duration::ZERO,
            retry: RetryPolicy {
                max_retries: 10,
                backoff_base: Duration::from_micros(10),
                backoff_cap: Duration::from_micros(100),
                retry_budget: 100_000,
            },
            breaker: BreakerPolicy { trip_threshold: 0, open_batches: 0 },
            ..ServeConfig::default()
        },
        FaultConfig::new(0xBADC0DE).exec_panic(300),
    );
    let pool = shape_pool();
    for i in 0..N {
        let (req, expected) = request_and_expected(pool[i % pool.len()], 1000 + i as u64);
        let got = server
            .submit(req)
            .expect("admitted")
            .wait_for(HANG_BOUND)
            .expect("panics must retry or degrade, not error");
        assert_bitwise_eq(&expected, std::slice::from_ref(&got.c), "panic-storm result");
    }
    let obs = Arc::clone(server.observer().expect("bus installed"));
    let stats = server.shutdown();
    audit_and_reconcile(&obs, &stats);
    let log = injector.log();
    assert!(log.exec_panics > 0, "the storm actually fired: {log:?}");
    assert_eq!(stats.worker_panics, log.exec_panics, "every panic caught and counted");
    assert_eq!(
        stats.retries + stats.degraded,
        log.exec_panics,
        "each panic is followed by exactly one retry or one exhaustion degrade"
    );
    assert_eq!(stats.completed, N, "zero drops, workers survived every panic");
    assert_eq!(stats.plan_failures, 0);
}

/// Schedule 3: slow workers plus a deadline storm. Real deadlines are
/// generous (never naturally expire), so `expired` reconciles exactly
/// with the injector's expiry log; every survivor is bitwise exact.
#[test]
fn slow_worker_and_deadline_storm_accounts_expiries_exactly() {
    const N: usize = 50;
    let (server, injector) = server_with_faults(
        ServeConfig {
            max_batch: 4,
            batch_window: Duration::from_micros(100),
            ..ServeConfig::default()
        },
        FaultConfig::new(0xD0DEC0DE).expire(250).slow_worker(200, Duration::from_millis(2)),
    );
    let pool = shape_pool();
    let tickets: Vec<(Ticket, Vec<MatF32>)> = (0..N)
        .map(|i| {
            let (mut req, expected) = request_and_expected(pool[i % pool.len()], 2000 + i as u64);
            req.deadline = Some(Duration::from_secs(3600));
            (server.submit(req).expect("admitted"), expected)
        })
        .collect();
    let mut ok = 0usize;
    let mut expired = 0usize;
    for (t, expected) in tickets {
        match t.wait_for(HANG_BOUND) {
            Ok(got) => {
                assert_bitwise_eq(&expected, std::slice::from_ref(&got.c), "slow-storm result");
                ok += 1;
            }
            Err(ServeError::Expired) => expired += 1,
            Err(e) => panic!("unexpected error under slow/deadline storm: {e}"),
        }
    }
    let obs = Arc::clone(server.observer().expect("bus installed"));
    let stats = server.shutdown();
    audit_and_reconcile(&obs, &stats);
    let log = injector.log();
    assert!(log.expires > 0 && log.slow_workers > 0, "the storm actually fired: {log:?}");
    assert_eq!(stats.expired, log.expires, "only injected expiries fired");
    assert_eq!(expired, log.expires, "clients saw exactly the injected expiries");
    assert_eq!(stats.completed, ok);
    assert_eq!(ok + expired, N, "zero drops despite stalls");
}

/// Schedule 4: everything at once — plan failures, executor panics,
/// degraded-path panics, slow workers, deadline storms — under
/// concurrent producers, with retries and the breaker live. The suite's
/// keystone: conservation (every ticket resolves), bitwise exactness of
/// every `Ok`, and full reconciliation of the resilience counters
/// against the fault log.
#[test]
fn combined_storm_conserves_every_request_and_reconciles_stats() {
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 30;
    let (server, injector) = server_with_faults(
        ServeConfig {
            max_batch: 4,
            batch_window: Duration::from_micros(100),
            queue_capacity: 32,
            workers: 3,
            retry: RetryPolicy {
                max_retries: 2,
                backoff_base: Duration::from_micros(10),
                backoff_cap: Duration::from_micros(200),
                retry_budget: 100_000,
            },
            breaker: BreakerPolicy { trip_threshold: 6, open_batches: 4 },
        },
        FaultConfig::new(0xF00DFACE)
            .plan_fail(100)
            .exec_panic(150)
            .degraded_panic(50)
            .expire(80)
            .slow_worker(100, Duration::from_micros(500)),
    );
    let server = Arc::new(server);
    let pool = shape_pool();
    let tallies: Vec<(usize, usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let server = Arc::clone(&server);
                let pool = pool.clone();
                scope.spawn(move || {
                    let (mut ok, mut expired, mut panicked) = (0usize, 0usize, 0usize);
                    for i in 0..PER_PRODUCER {
                        let seed = (p * PER_PRODUCER + i) as u64;
                        let (mut req, expected) =
                            request_and_expected(pool[i % pool.len()], 4000 + seed);
                        req.deadline = Some(Duration::from_secs(3600));
                        let t = server.submit(req).expect("blocking submit admits");
                        match t.wait_for(HANG_BOUND) {
                            Ok(got) => {
                                assert_bitwise_eq(
                                    &expected,
                                    std::slice::from_ref(&got.c),
                                    "combined-storm result",
                                );
                                ok += 1;
                            }
                            Err(ServeError::Expired) => expired += 1,
                            Err(ServeError::WorkerPanic(m)) => {
                                assert!(
                                    m.contains("ctb-serve injected fault"),
                                    "only injected panics may surface: {m}"
                                );
                                panicked += 1;
                            }
                            Err(e) => panic!("unexpected error in combined storm: {e}"),
                        }
                    }
                    (ok, expired, panicked)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("producer survives")).collect()
    });
    let server = Arc::into_inner(server).expect("sole owner after the scope");
    let obs = Arc::clone(server.observer().expect("bus installed"));
    let stats = server.stats();
    let final_stats = server.shutdown();
    assert_eq!(stats, final_stats, "drain had already completed; shutdown adds nothing");
    audit_and_reconcile(&obs, &final_stats);

    let log = injector.log();
    let (ok, expired, panicked) =
        tallies.iter().fold((0, 0, 0), |(a, b, c), (x, y, z)| (a + x, b + y, c + z));
    let total = PRODUCERS * PER_PRODUCER;
    assert!(
        log.plan_fails > 0 && log.exec_panics > 0 && log.expires > 0,
        "the combined storm actually fired on every major site: {log:?}"
    );
    // Conservation: every admitted request resolved, exactly once.
    assert_eq!(ok + expired + panicked, total, "zero hangs, zero drops");
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, ok);
    assert_eq!(stats.expired, expired);
    // Reconciliation against the injector's log.
    assert_eq!(stats.expired, log.expires, "generous real deadlines: only injected expiries");
    assert_eq!(stats.plan_failures, log.plan_fails);
    assert_eq!(
        stats.worker_panics,
        log.exec_panics + log.degraded_panics,
        "every caught panic traced back to an injection"
    );
    assert_eq!(panicked, log.degraded_panics, "only degraded-path panics are terminal");
    assert_eq!(stats.abandoned, 0, "every response was deliverable");
    assert!(stats.degraded > 0, "failures actually exercised the baseline fallback");
}

/// Schedule 5: a hard executor-panic storm (100% panic rate, retries
/// off) against a single worker — the breaker's trip/recover cycle
/// becomes fully deterministic: 6 coordinated failures trip it, 4
/// batches serve degraded while open, then it closes and the cycle
/// repeats. Every request still completes Ok (degraded).
#[test]
fn breaker_trips_and_recovers_deterministically() {
    const N: usize = 26;
    let (server, injector) = server_with_faults(
        ServeConfig {
            max_batch: 1,
            batch_window: Duration::ZERO,
            workers: 1,
            retry: RetryPolicy { max_retries: 0, ..RetryPolicy::default() },
            breaker: BreakerPolicy { trip_threshold: 6, open_batches: 4 },
            ..ServeConfig::default()
        },
        FaultConfig::new(0xDEAD10CC).exec_panic(1000),
    );
    let pool = shape_pool();
    for i in 0..N {
        let (req, expected) = request_and_expected(pool[i % pool.len()], 5000 + i as u64);
        let got = server
            .submit(req)
            .expect("admitted")
            .wait_for(HANG_BOUND)
            .expect("every request degrades to an Ok result");
        assert!(got.degraded, "nothing can succeed coordinated under a 100% panic rate");
        assert_bitwise_eq(&expected, std::slice::from_ref(&got.c), "breaker-cycle result");
    }
    let obs = Arc::clone(server.observer().expect("bus installed"));
    let stats = server.shutdown();
    audit_and_reconcile(&obs, &stats);
    let log = injector.log();
    // Single worker, single-member batches: the sequence is exactly
    // 6 panics → trip → 4 open (no planning, no panic roll) → 6 panics
    // → trip → 4 open → 6 panics → trip. 26 requests = 18 panicked + 8
    // served while open; all 26 degraded.
    assert_eq!(stats.completed, N);
    assert_eq!(stats.degraded, N, "every completion came from the baseline");
    assert_eq!(stats.breaker_trips, 3, "two full cycles plus the final trip");
    assert_eq!(stats.worker_panics, 18, "open phases bypass the panicking executor");
    assert_eq!(log.exec_panics, 18);
    assert_eq!(stats.retries, 0, "retries were disabled");
    assert_eq!(stats.batches, 0, "no coordinated execution ever succeeded");
    assert!(stats.breaker_open, "the 26th panic tripped it again; its slots are unconsumed");
}

/// Schedule 6: zero retry budget — panics may never re-admit; they
/// degrade immediately and the retry counter stays at zero.
#[test]
fn zero_retry_budget_degrades_without_retrying() {
    const N: usize = 40;
    let (server, injector) = server_with_faults(
        ServeConfig {
            max_batch: 1,
            batch_window: Duration::ZERO,
            retry: RetryPolicy { max_retries: 5, retry_budget: 0, ..RetryPolicy::default() },
            breaker: BreakerPolicy { trip_threshold: 0, open_batches: 0 },
            ..ServeConfig::default()
        },
        FaultConfig::new(0xACE0FBA5E).exec_panic(350),
    );
    let pool = shape_pool();
    for i in 0..N {
        let (req, expected) = request_and_expected(pool[i % pool.len()], 6000 + i as u64);
        let got = server
            .submit(req)
            .expect("admitted")
            .wait_for(HANG_BOUND)
            .expect("budget exhaustion degrades, never errors");
        assert_bitwise_eq(&expected, std::slice::from_ref(&got.c), "no-budget result");
    }
    let obs = Arc::clone(server.observer().expect("bus installed"));
    let stats = server.shutdown();
    audit_and_reconcile(&obs, &stats);
    let log = injector.log();
    assert!(log.exec_panics > 0, "the storm actually fired: {log:?}");
    assert_eq!(stats.retries, 0, "a zero budget admits no retries at all");
    assert_eq!(stats.degraded, log.exec_panics, "every panic degraded its request directly");
    assert_eq!(stats.completed, N);
}

/// Satellite contract: responses the requester walked away from are
/// counted, not silently discarded. Tickets dropped before completion
/// turn every send into an abandonment.
#[test]
fn dropped_tickets_are_counted_as_abandoned() {
    const N: usize = 12;
    // One batching window longer than the whole submit loop: every
    // ticket is provably dropped before any batch ships, so all N
    // responses are undeliverable — no race with fast workers.
    let (server, _injector) = server_with_faults(
        ServeConfig {
            max_batch: 2 * N,
            batch_window: Duration::from_millis(500),
            ..ServeConfig::default()
        },
        FaultConfig::new(0x0),
    );
    let pool = shape_pool();
    for i in 0..N {
        let (req, _) = request_and_expected(pool[i % pool.len()], 7000 + i as u64);
        drop(server.submit(req).expect("admitted"));
    }
    let obs = Arc::clone(server.observer().expect("bus installed"));
    let stats = server.shutdown();
    let counts = audit_and_reconcile(&obs, &stats);
    assert_eq!(stats.completed, N, "the server still computed every result");
    assert_eq!(stats.abandoned, N, "every undeliverable response was counted");
    assert_eq!(counts.responds_abandoned, N, "the trace agrees on every abandonment");
}
