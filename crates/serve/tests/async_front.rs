//! Differential suite: the async front door vs the blocking path.
//!
//! Every chaos schedule from the resilience suite is driven twice over
//! identical seeded traffic — once through the blocking
//! [`Server::submit`], once through [`ctb_serve::AsyncFront::try_submit`]
//! — and the two runs must be indistinguishable:
//!
//! 1. **Bitwise-identical results** — request `i` resolves to the same
//!    payload (same bits, same degraded flag) or the same typed error
//!    on both paths, and every `Ok` also matches the exact oracle.
//! 2. **Identical accounting** — the final [`ServeStats`] compare `==`
//!    as a whole: they hold counters only, and each request's wall time,
//!    the one thing the paths legitimately do differently, stays on its
//!    response.
//! 3. **Identical traces** — the audited [`TraceCounts`] compare `==`,
//!    so the front emits exactly one admission and one terminal per
//!    request, the same as the blocking path.
//!
//! The parity hinges on a deliberate design point: neither path
//! consults a fault site at admission (the front buffers and the
//! blocking path parks instead of rejecting), so the seeded per-site
//! fault cursors stay aligned whatever the schedule.

use ctb_core::{Framework, Session};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::{assert_bitwise_eq, GemmBatch, GemmShape, MatF32};
use ctb_obs::{Obs, TraceAudit, TraceCounts};
use ctb_serve::{
    quiet_injected_panics, BreakerPolicy, FaultConfig, FaultInjector, GemmRequest, RetryPolicy,
    ServeConfig, ServeStats, Server,
};
use std::sync::Arc;
use std::time::Duration;

/// Far beyond every injected delay: hitting it means a hang, not
/// slowness.
const HANG_BOUND: Duration = Duration::from_secs(30);

/// One differential schedule: the server tuning, the chaos schedule
/// and the traffic volume.
struct Schedule {
    cfg: ServeConfig,
    faults: FaultConfig,
    n: usize,
    /// Attach a generous real deadline to every request so the
    /// injected-expiry seam is consulted on both paths.
    deadline: bool,
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

/// Everything one run produces that the other must reproduce exactly.
struct Drive {
    outcomes: Vec<Result<(MatF32, bool), String>>,
    stats: ServeStats,
    counts: TraceCounts,
}

/// Drive the schedule serially (submit, then wait) so batch composition
/// and fault-cursor order are a pure function of the seeds — the only
/// variable left is the admission path under test.
fn drive(s: &Schedule, use_front: bool) -> Drive {
    quiet_injected_panics();
    let injector = Arc::new(FaultInjector::new(s.faults.clone()));
    let session = Session::new(Framework::new(ArchSpec::volta_v100()));
    let obs = Arc::new(Obs::wall());
    let server = Server::with_instrumentation(
        session,
        s.cfg.clone(),
        Some(Arc::clone(&injector)),
        Some(obs),
    );
    let front = use_front.then(|| server.front());
    let pool = shape_pool();
    let mut outcomes = Vec::with_capacity(s.n);
    for i in 0..s.n {
        let (mut req, expected) = request_and_expected(pool[i % pool.len()], i as u64);
        if s.deadline {
            req.deadline = Some(Duration::from_secs(3600));
        }
        let ticket = match &front {
            Some(f) => f.try_submit(req).expect("the front always admits valid requests"),
            None => server.submit(req).expect("the blocking path admits serial traffic"),
        };
        outcomes.push(match ticket.wait_for(HANG_BOUND) {
            Ok(got) => {
                assert_bitwise_eq(
                    &expected,
                    std::slice::from_ref(&got.c),
                    "request vs the exact oracle",
                );
                Ok((got.c, got.degraded))
            }
            Err(e) => Err(e.to_string()),
        });
    }
    drop(front);
    let obs = Arc::clone(server.observer().expect("bus installed"));
    let stats = server.shutdown();
    let counts = TraceAudit::new(obs.events()).check().expect("trace invariants hold");
    Drive { outcomes, stats, counts }
}

/// The differential: run both paths, demand indistinguishability.
fn assert_paths_equivalent(s: Schedule) {
    let blocking = drive(&s, false);
    let front = drive(&s, true);

    assert_eq!(blocking.outcomes.len(), front.outcomes.len());
    for (i, (b, f)) in blocking.outcomes.iter().zip(&front.outcomes).enumerate() {
        match (b, f) {
            (Ok((bc, bd)), Ok((fc, fd))) => {
                assert_eq!(bd, fd, "request {i}: degraded flag diverged between paths");
                assert_bitwise_eq(
                    std::slice::from_ref(bc),
                    std::slice::from_ref(fc),
                    "request payload across admission paths",
                );
            }
            (Err(be), Err(fe)) => {
                assert_eq!(be, fe, "request {i}: error diverged between paths");
            }
            (b, f) => panic!("request {i} diverged: blocking {b:?} vs front {f:?}"),
        }
    }

    assert_eq!(
        blocking.stats, front.stats,
        "ServeStats diverged between the blocking path and the async front"
    );
    assert_eq!(
        blocking.counts, front.counts,
        "audited trace counts diverged between the admission paths"
    );
}

/// Schedule 1: a plan-failure storm (40%), breaker disabled.
#[test]
fn front_matches_blocking_under_plan_failure_storm() {
    assert_paths_equivalent(Schedule {
        cfg: ServeConfig {
            max_batch: 1,
            batch_window: Duration::ZERO,
            breaker: BreakerPolicy { trip_threshold: 0, open_batches: 0 },
            ..ServeConfig::default()
        },
        faults: FaultConfig::new(0xC0FFEE).plan_fail(400),
        n: 60,
        deadline: false,
    });
}

/// Schedule 2: an executor-panic storm (30%) with generous retries.
#[test]
fn front_matches_blocking_under_exec_panic_storm() {
    assert_paths_equivalent(Schedule {
        cfg: ServeConfig {
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
        faults: FaultConfig::new(0xBADC0DE).exec_panic(300),
        n: 60,
        deadline: false,
    });
}

/// Schedule 3: slow workers plus a deadline storm — the injected-expiry
/// seam is consulted for every deadline-carrying request on both paths.
#[test]
fn front_matches_blocking_under_slow_worker_and_deadline_storm() {
    assert_paths_equivalent(Schedule {
        cfg: ServeConfig {
            max_batch: 4,
            batch_window: Duration::from_micros(100),
            ..ServeConfig::default()
        },
        faults: FaultConfig::new(0xD0DEC0DE).expire(250).slow_worker(200, Duration::from_millis(2)),
        n: 50,
        deadline: true,
    });
}

/// Schedule 4: everything at once — plan failures, executor panics,
/// degraded-path panics, slow workers, deadline storms — with retries
/// and the breaker live.
#[test]
fn front_matches_blocking_under_combined_storm() {
    assert_paths_equivalent(Schedule {
        cfg: ServeConfig {
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
        faults: FaultConfig::new(0xF00DFACE)
            .plan_fail(100)
            .exec_panic(150)
            .degraded_panic(50)
            .expire(80)
            .slow_worker(100, Duration::from_micros(500)),
        n: 120,
        deadline: true,
    });
}

/// Schedule 5: a hard panic storm (100%) against one worker — the
/// breaker's deterministic trip/recover cycle must phase identically
/// on both paths.
#[test]
fn front_matches_blocking_through_breaker_cycles() {
    assert_paths_equivalent(Schedule {
        cfg: ServeConfig {
            max_batch: 1,
            batch_window: Duration::ZERO,
            workers: 1,
            retry: RetryPolicy { max_retries: 0, ..RetryPolicy::default() },
            breaker: BreakerPolicy { trip_threshold: 6, open_batches: 4 },
            ..ServeConfig::default()
        },
        faults: FaultConfig::new(0xDEAD10CC).exec_panic(1000),
        n: 26,
        deadline: false,
    });
}

/// Schedule 6: zero retry budget — panics degrade immediately, on both
/// paths, with the retry counter pinned at zero.
#[test]
fn front_matches_blocking_with_zero_retry_budget() {
    assert_paths_equivalent(Schedule {
        cfg: ServeConfig {
            max_batch: 1,
            batch_window: Duration::ZERO,
            retry: RetryPolicy { max_retries: 5, retry_budget: 0, ..RetryPolicy::default() },
            breaker: BreakerPolicy { trip_threshold: 0, open_batches: 0 },
            ..ServeConfig::default()
        },
        faults: FaultConfig::new(0xACE0FBA5E).exec_panic(350),
        n: 40,
        deadline: false,
    });
}
