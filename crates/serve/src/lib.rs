//! `ctb-serve` — the concurrent batched-GEMM serving layer.
//!
//! The paper's thesis is that many small GEMMs coalesced into one
//! coordinated tiling + batching plan beat per-kernel launches (Fig 1,
//! 8, 9). Offline, this repository already exploits that through
//! [`ctb_core::Framework`] and the plan-caching [`ctb_core::Session`].
//! This crate closes the loop for *online* traffic: many producer
//! threads submit single GEMMs, the server coalesces whatever arrives
//! inside a bounded batching window into one `GemmBatch`, plans it once
//! through the shared session (repeated shape mixes hit the plan cache
//! and the simulation memo), executes the plan on a small worker pool,
//! and routes each result back to its requester with a per-request
//! latency breakdown ([`RequestTiming`]). The server itself keeps only
//! counters ([`ServeStats`]): a request's latency lives on its response
//! and, with an observability bus installed, on the trace's `Respond`
//! point.
//!
//! ```
//! use ctb_core::Framework;
//! use ctb_gpu_specs::ArchSpec;
//! use ctb_matrix::MatF32;
//! use ctb_serve::{GemmRequest, ServeConfig, Server};
//!
//! let server = Server::new(Framework::new(ArchSpec::volta_v100()), ServeConfig::default());
//! let req = GemmRequest::new(MatF32::random(32, 16, 1), MatF32::random(16, 24, 2));
//! let result = server.call(req).unwrap();
//! assert_eq!((result.c.rows(), result.c.cols()), (32, 24));
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```
//!
//! Correctness contract: the server computes *exactly* what a direct
//! [`ctb_core::execute_plan`] call would — every C element accumulates
//! in ascending-k order with the `alpha*acc + beta*c` epilogue — so
//! results are bitwise identical to
//! [`ctb_matrix::GemmBatch::reference_result_exact`] no matter how
//! requests are coalesced, interleaved, or raced. The stress suite in
//! `tests/stress.rs` holds the server to that bit-for-bit.
//!
//! Resilience contract: workers are panic-isolated
//! ([`std::panic::catch_unwind`] at the job boundary), panicked batch
//! members retry individually under a [`RetryPolicy`] (bounded
//! exponential backoff, server-lifetime budget), and plan failures,
//! exhausted retries, or an open circuit breaker ([`BreakerPolicy`])
//! fall back to the per-kernel default baseline — still bitwise-exact,
//! tagged [`GemmResult::degraded`]. The deterministic chaos seam
//! ([`FaultConfig`], [`FaultInjector`]) lets `tests/chaos.rs` force
//! every one of those paths on a seeded schedule and reconcile the
//! server's accounting against the injector's [`FaultLog`] exactly.

mod fault;
mod front;
mod queue;
mod request;
mod retry;
mod server;
mod stats;

pub use fault::{
    panic_message, quiet_injected_panics, FaultConfig, FaultInjector, FaultLog, FaultSite,
    INJECTED_DEGRADED_PANIC_MSG, INJECTED_PANIC_MSG,
};
pub use front::AsyncFront;
pub use request::{GemmRequest, GemmResult, RequestTiming, ServeError, Ticket};
pub use retry::{Breaker, BreakerPolicy, RetryPolicy};
pub use server::{ServeConfig, Server};
pub use stats::ServeStats;

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_core::Framework;
    use ctb_gpu_specs::ArchSpec;
    use ctb_matrix::{assert_bitwise_eq, GemmBatch, GemmShape, MatF32};
    use std::sync::Arc;
    use std::time::Duration;

    fn server_with(cfg: ServeConfig) -> Server {
        Server::new(Framework::new(ArchSpec::volta_v100()), cfg)
    }

    fn request_from(batch: &GemmBatch, i: usize) -> GemmRequest {
        GemmRequest {
            a: batch.a[i].clone(),
            b: batch.b[i].clone(),
            c: batch.c[i].clone(),
            alpha: batch.alpha,
            beta: batch.beta,
            deadline: None,
        }
    }

    #[test]
    fn single_request_is_bitwise_exact() {
        let server = server_with(ServeConfig::default());
        let shapes = [GemmShape::new(48, 64, 96)];
        let batch = GemmBatch::random(&shapes, 0.75, -1.5, 3);
        let expected = batch.reference_result_exact();
        let got = server.call(request_from(&batch, 0)).expect("served");
        assert_bitwise_eq(&expected, std::slice::from_ref(&got.c), "served result");
        assert_eq!(got.timing.batch_size, 1);
        assert!(got.timing.total_us() > 0.0);
    }

    #[test]
    fn window_coalesces_queued_requests() {
        // A generous window plus submit-then-wait guarantees the
        // batcher sees all four requests before the window closes.
        let server = server_with(ServeConfig {
            batch_window: Duration::from_millis(200),
            ..ServeConfig::default()
        });
        let shapes = vec![GemmShape::new(16, 32, 64); 4];
        let batch = GemmBatch::random(&shapes, 1.0, 0.5, 9);
        let expected = batch.reference_result_exact();
        let tickets: Vec<Ticket> =
            (0..4).map(|i| server.submit(request_from(&batch, i)).expect("admitted")).collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let got = t.wait().expect("completed");
            assert_bitwise_eq(
                std::slice::from_ref(&expected[i]),
                std::slice::from_ref(&got.c),
                "coalesced result",
            );
            assert_eq!(got.timing.batch_size, 4, "all four requests shared one batch");
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.batches, 1, "one coalesced batch");
        assert_eq!(stats.mean_batch_size, 4.0);
    }

    #[test]
    fn mixed_scalars_split_into_separate_batches() {
        let server = server_with(ServeConfig {
            batch_window: Duration::from_millis(200),
            ..ServeConfig::default()
        });
        let shapes = vec![GemmShape::new(24, 24, 24); 2];
        let b1 = GemmBatch::random(&shapes, 1.0, 0.0, 1);
        let b2 = GemmBatch::random(&shapes, 0.5, 1.0, 2);
        let t: Vec<Ticket> = [(&b1, 0), (&b2, 0), (&b1, 1), (&b2, 1)]
            .into_iter()
            .map(|(b, i)| server.submit(request_from(b, i)).expect("admitted"))
            .collect();
        let results: Vec<GemmResult> = t.into_iter().map(|t| t.wait().expect("done")).collect();
        let e1 = b1.reference_result_exact();
        let e2 = b2.reference_result_exact();
        assert_bitwise_eq(&e1, &[results[0].c.clone(), results[2].c.clone()], "alpha=1 group");
        assert_bitwise_eq(&e2, &[results[1].c.clone(), results[3].c.clone()], "alpha=.5 group");
        for r in &results {
            assert_eq!(r.timing.batch_size, 2, "each scalar group batched separately");
        }
        let stats = server.shutdown();
        assert_eq!(stats.batches, 2);
    }

    #[test]
    fn shutdown_rejects_new_but_completes_admitted() {
        let server = server_with(ServeConfig {
            batch_window: Duration::from_millis(50),
            ..ServeConfig::default()
        });
        let shapes = [GemmShape::new(32, 32, 32)];
        let batch = GemmBatch::random(&shapes, 1.0, 0.0, 7);
        let expected = batch.reference_result_exact();
        let tickets: Vec<Ticket> =
            (0..6).map(|_| server.submit(request_from(&batch, 0)).expect("admitted")).collect();
        let stats = server.shutdown(); // joins after draining
        assert_eq!(stats.completed, 6, "every admitted request completed");
        for t in tickets {
            let got = t.wait().expect("drained result");
            assert_bitwise_eq(&expected, std::slice::from_ref(&got.c), "drained result");
        }
    }

    #[test]
    fn close_rejects_new_submissions_while_draining_old() {
        let server = Arc::new(server_with(ServeConfig::default()));
        let shapes = [GemmShape::new(8, 8, 8)];
        let batch = GemmBatch::random(&shapes, 1.0, 0.0, 1);
        let producer = {
            let server = Arc::clone(&server);
            let req = request_from(&batch, 0);
            std::thread::spawn(move || {
                let mut completed = 0usize;
                loop {
                    match server.submit(req.clone()) {
                        Ok(t) => {
                            t.wait().expect("admitted requests complete");
                            completed += 1;
                        }
                        Err(ServeError::ShuttingDown) => return completed,
                        Err(e) => panic!("unexpected error {e}"),
                    }
                }
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        server.close();
        let completed = producer.join().expect("producer exits cleanly");
        let server = Arc::into_inner(server).expect("sole owner now");
        let stats = server.shutdown();
        assert_eq!(stats.completed, completed, "close dropped no admitted request");
        assert!(stats.rejected >= 1, "the final submit was rejected");
    }

    #[test]
    fn deadline_expiry_is_reported() {
        let server = server_with(ServeConfig {
            batch_window: Duration::from_millis(5),
            ..ServeConfig::default()
        });
        let shapes = [GemmShape::new(8, 8, 8)];
        let batch = GemmBatch::random(&shapes, 1.0, 0.0, 2);
        let mut req = request_from(&batch, 0);
        req.deadline = Some(Duration::ZERO);
        let t = server.submit(req).expect("admitted");
        match t.wait() {
            Err(ServeError::Expired) => {}
            other => panic!("expected Expired, got {:?}", other.map(|r| r.timing)),
        }
        let stats = server.shutdown();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn invalid_requests_fail_synchronously() {
        let server = server_with(ServeConfig::default());
        let bad = GemmRequest {
            a: MatF32::random(4, 5, 1),
            b: MatF32::random(6, 3, 2), // K mismatch
            c: MatF32::zeros(4, 3),
            alpha: 1.0,
            beta: 0.0,
            deadline: None,
        };
        match server.submit(bad) {
            Err(ServeError::Invalid(_)) => {}
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn repeated_shape_mixes_hit_the_plan_cache() {
        let server = server_with(ServeConfig {
            batch_window: Duration::from_millis(100),
            ..ServeConfig::default()
        });
        let shapes = vec![GemmShape::new(48, 64, 96), GemmShape::new(48, 64, 96)];
        for step in 0..5u64 {
            let batch = GemmBatch::random(&shapes, 1.0, 0.0, step);
            let tickets: Vec<Ticket> =
                (0..2).map(|i| server.submit(request_from(&batch, i)).expect("admitted")).collect();
            for t in tickets {
                t.wait().expect("completed");
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 10);
        // Whether the rounds coalesced into the 2-GEMM signature or
        // (under extreme scheduling delay) split into singletons, the
        // distinct signatures stay ≤ 2 and everything else is a cache
        // hit.
        assert!(stats.plan_cache.misses <= 2, "at most two signatures: {:?}", stats.plan_cache);
        assert!(stats.plan_cache.hits >= 3);
        assert!(stats.plan_cache.hit_rate() > 0.5);
    }
}
