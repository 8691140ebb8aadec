//! Concurrency stress suite for the serving layer.
//!
//! The contracts under fire:
//!
//! 1. **Bitwise correctness under arbitrary coalescing** — whatever mix
//!    of concurrent requests a batch window scoops up, every requester
//!    gets back exactly the matrix `gemm_ref` would compute for its own
//!    inputs (the executors replay the identical floating-point
//!    operation sequence regardless of batch composition).
//! 2. **No drops under backpressure** — a tiny admission queue forces
//!    producers to block in `submit`; every accepted request must still
//!    complete.
//! 3. **Clean shutdown** — closing under load completes every admitted
//!    request before the threads join.

use ctb_core::Framework;
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::{assert_bitwise_eq, GemmBatch, GemmShape};
use ctb_serve::{GemmRequest, ServeConfig, ServeError, Server};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Mixed shape pool: small/large, edge sizes 1, odd K — the
/// variable-size traffic the paper's coalescing targets.
fn shape_pool() -> Vec<GemmShape> {
    vec![
        GemmShape::new(16, 32, 64),
        GemmShape::new(1, 48, 17),
        GemmShape::new(64, 64, 64),
        GemmShape::new(33, 1, 129),
        GemmShape::new(48, 80, 96),
        GemmShape::new(5, 7, 1),
        GemmShape::new(128, 37, 63),
        GemmShape::new(17, 33, 41),
    ]
}

/// Deterministic request + its bitwise-expected result.
fn request_and_expected(shape: GemmShape, seed: u64) -> (GemmRequest, Vec<ctb_matrix::MatF32>) {
    // Scalars drawn from a small set so concurrent windows mix groups.
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

#[test]
fn eight_producers_all_get_bitwise_exact_results_under_backpressure() {
    const PRODUCERS: usize = 8;
    const PER_PRODUCER: usize = 12;

    // Queue far smaller than the request volume: producers must block
    // in `submit` (backpressure), and none of their requests may drop.
    let server = Arc::new(Server::new(
        Framework::new(ArchSpec::volta_v100()),
        ServeConfig {
            max_batch: 16,
            batch_window: Duration::from_micros(500),
            queue_capacity: 4,
            workers: 3,
            ..ServeConfig::default()
        },
    ));
    let pool = shape_pool();

    let handles: Vec<_> = (0..PRODUCERS)
        .map(|t| {
            let server = Arc::clone(&server);
            let pool = pool.clone();
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let shape = pool[(t + i) % pool.len()];
                    let seed = (t * 1000 + i) as u64;
                    let (req, expected) = request_and_expected(shape, seed);
                    let got = server
                        .submit(req)
                        .expect("admission never fails for a live server")
                        .wait()
                        .expect("admitted requests always complete");
                    assert_bitwise_eq(
                        &expected,
                        std::slice::from_ref(&got.c),
                        &format!("producer {t} request {i} ({shape})"),
                    );
                    assert!(got.timing.batch_size >= 1);
                    assert!(got.timing.total_us() > 0.0, "every response carries its latency");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("producer thread panicked");
    }

    let server = Arc::into_inner(server).expect("all producers done");
    let stats = server.shutdown();
    let total = PRODUCERS * PER_PRODUCER;
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total, "no request dropped under backpressure");
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.rejected, 0);
    assert!(stats.batches <= total, "batches never exceed requests");
    assert!(stats.mean_batch_size >= 1.0);
    // Repeated shape signatures must be answered from the shared plan
    // cache: far fewer planning events than batches.
    assert_eq!(
        stats.plan_cache.misses + stats.plan_cache.hits,
        stats.batches,
        "one plan lookup per executed batch"
    );
}

#[test]
fn shutdown_under_load_drains_every_admitted_request() {
    let server = Arc::new(Server::new(
        Framework::new(ArchSpec::volta_v100()),
        ServeConfig {
            max_batch: 8,
            batch_window: Duration::from_micros(200),
            queue_capacity: 8,
            workers: 2,
            ..ServeConfig::default()
        },
    ));
    let accepted = Arc::new(AtomicUsize::new(0));
    let verified = Arc::new(AtomicUsize::new(0));
    let pool = shape_pool();

    // Producers submit as fast as they can until the server refuses.
    let handles: Vec<_> = (0..8)
        .map(|t| {
            let server = Arc::clone(&server);
            let accepted = Arc::clone(&accepted);
            let verified = Arc::clone(&verified);
            let pool = pool.clone();
            std::thread::spawn(move || {
                for i in 0.. {
                    let shape = pool[(t + i) % pool.len()];
                    let (req, expected) = request_and_expected(shape, (t * 7919 + i) as u64);
                    match server.submit(req) {
                        Ok(ticket) => {
                            accepted.fetch_add(1, Ordering::SeqCst);
                            let got =
                                ticket.wait().expect("admitted request completed by the drain");
                            assert_bitwise_eq(
                                &expected,
                                std::slice::from_ref(&got.c),
                                "drained result",
                            );
                            verified.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(ServeError::ShuttingDown) => return,
                        Err(e) => panic!("unexpected submit error: {e}"),
                    }
                }
            })
        })
        .collect();

    // Close admissions mid-flight, once the load phase has admitted
    // something; a generous deadline turns a stalled server into a
    // failure instead of a hang.
    let deadline = Instant::now() + Duration::from_secs(30);
    while accepted.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < deadline, "no request admitted within 30 s");
        std::thread::sleep(Duration::from_millis(1));
    }
    server.close();
    for h in handles {
        h.join().expect("producer thread panicked");
    }

    let server = Arc::into_inner(server).expect("producers exited");
    let stats = server.shutdown();
    let accepted = accepted.load(Ordering::SeqCst);
    assert!(accepted > 0, "the load phase admitted something");
    assert_eq!(verified.load(Ordering::SeqCst), accepted);
    assert_eq!(stats.completed, accepted, "drain completed exactly the admitted set");
    assert!(stats.rejected >= 1, "producers observed the close");
}

#[test]
fn identical_concurrent_requests_are_bitwise_identical_to_each_other() {
    // Eight threads submit the *same* request simultaneously; whatever
    // batches they land in, all eight results must agree bit-for-bit
    // (and match the oracle) — the no-result-depends-on-coalescing
    // property stated in the crate docs.
    let server = Arc::new(Server::new(
        Framework::new(ArchSpec::volta_v100()),
        ServeConfig {
            max_batch: 4,
            batch_window: Duration::from_micros(100),
            queue_capacity: 16,
            workers: 4,
            ..ServeConfig::default()
        },
    ));
    let shape = GemmShape::new(48, 80, 96);
    let (req, expected) = request_and_expected(shape, 42);
    let barrier = Arc::new(std::sync::Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            let req = req.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let got = server.submit(req).expect("admitted").wait().expect("completed");
                assert_bitwise_eq(&expected, std::slice::from_ref(&got.c), "raced duplicate");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("thread ok");
    }
    let server = Arc::into_inner(server).expect("done");
    let stats = server.shutdown();
    assert_eq!(stats.completed, 8);
}
