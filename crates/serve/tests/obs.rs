//! Observability-specific serve tests.
//!
//! - The flight recorder's panic-path contract: a worker panic's dump
//!   must contain the panicking batch's *closed* Exec span, i.e. the
//!   span guard outlives the `catch_unwind` boundary and finishes
//!   before the dump is marked.
//! - The one server clock: with a bus installed, the bus's clock stamps,
//!   expires and times every request, so under a `SimClock` a request
//!   expires by simulated time, whatever the host's timing.

use ctb_core::{Framework, Session};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::{GemmBatch, GemmShape};
use ctb_obs::{EventKind, Obs, PointKind, SimClock, SpanKind, TraceAudit};
use ctb_serve::{
    quiet_injected_panics, FaultConfig, FaultInjector, GemmRequest, RequestTiming, ServeConfig,
    ServeError, Server,
};
use std::sync::Arc;
use std::time::Duration;

const HANG_BOUND: Duration = Duration::from_secs(30);

fn request(seed: u64) -> GemmRequest {
    let batch = GemmBatch::random(&[GemmShape::new(32, 48, 64)], 1.0, 0.5, seed);
    GemmRequest {
        a: batch.a[0].clone(),
        b: batch.b[0].clone(),
        c: batch.c[0].clone(),
        alpha: 1.0,
        beta: 0.5,
        deadline: None,
    }
}

#[test]
fn worker_panic_dump_contains_the_panicking_exec_span() {
    // Every coordinated execution panics: each batch takes the
    // retry-then-degrade path, so every batch produces a "worker panic"
    // flight dump. The contract under test: the Exec span guard lives
    // *outside* the `catch_unwind` boundary and is finished before the
    // dump is marked, so each dump ends with the panicking batch's
    // complete SpanBegin/SpanEnd pair followed by its PanicCaught mark.
    quiet_injected_panics();
    let injector = Arc::new(FaultInjector::new(FaultConfig::new(0x0B5CA11).exec_panic(1000)));
    let obs = Arc::new(Obs::wall());
    let session = Session::new(Framework::new(ArchSpec::volta_v100()));
    let cfg = ServeConfig {
        workers: 1,
        max_batch: 4,
        batch_window: Duration::ZERO,
        ..ServeConfig::default()
    };
    let server = Server::with_instrumentation(session, cfg, Some(injector), Some(Arc::clone(&obs)));

    let tickets: Vec<_> =
        (0..6).map(|seed| server.submit(request(seed)).expect("admitted")).collect();
    for t in tickets {
        t.wait_for(HANG_BOUND).expect("degraded path still completes every request");
    }
    let stats = server.shutdown();
    assert!(stats.worker_panics >= 1, "the schedule must actually panic");
    assert_eq!(stats.completed, 6, "zero drops through the panic storm");

    let dumps = obs.flight_dumps();
    let worker_dumps: Vec<_> = dumps.iter().filter(|d| d.reason == "worker panic").collect();
    assert_eq!(
        worker_dumps.len(),
        stats.worker_panics,
        "one flight dump per caught coordinated-path panic"
    );
    for dump in worker_dumps {
        let panic_pos = dump
            .events
            .iter()
            .rposition(|e| matches!(e.kind, EventKind::Point(PointKind::PanicCaught)))
            .expect("a worker-panic dump records the PanicCaught mark");
        let (end_pos, span_id) = dump.events[..panic_pos]
            .iter()
            .enumerate()
            .rev()
            .find_map(|(i, e)| match e.kind {
                EventKind::SpanEnd { span: SpanKind::Exec, id } => Some((i, id)),
                _ => None,
            })
            .expect("the panicking batch's Exec span is closed inside the dump");
        assert!(
            dump.events[..end_pos].iter().any(|e| matches!(
                e.kind,
                EventKind::SpanBegin { span: SpanKind::Exec, id } if id == span_id
            )),
            "the dump also holds the matching Exec span begin"
        );
    }

    // The full trace still audits clean after all that unwinding.
    let counts = TraceAudit::new(obs.events()).check().expect("trace invariants hold");
    assert_eq!(counts.panics_caught, stats.worker_panics);
    assert_eq!(counts.responds_degraded, stats.degraded);
}

#[test]
fn expiry_follows_the_server_clock() {
    // The first request waits 2 s of simulated time for its 1 s
    // deadline while almost no wall time passes. Its window can close
    // only on the second arrival (two fill the batch; the window is a
    // minute long), which comes after the clock moved, so the batcher's
    // expiry check reads the advanced clock and the test has no race.
    let clock = Arc::new(SimClock::new());
    let obs = Arc::new(Obs::sim(Arc::clone(&clock)));
    let session = Session::new(Framework::new(ArchSpec::volta_v100()));
    let cfg = ServeConfig {
        max_batch: 2,
        batch_window: Duration::from_secs(60),
        workers: 1,
        ..ServeConfig::default()
    };
    let server = Server::with_instrumentation(session, cfg, None, Some(Arc::clone(&obs)));

    let late = GemmRequest { deadline: Some(Duration::from_secs(1)), ..request(0) };
    let late = server.submit(late).expect("admitted");
    clock.advance(2_000_000);
    let on_time = server.submit(request(1)).expect("admitted");

    assert_eq!(late.wait_for(HANG_BOUND).map(|r| r.timing), Err(ServeError::Expired));
    let served = on_time.wait_for(HANG_BOUND).expect("a request without a deadline is served");
    // The clock stood still after the advance, so every part of the
    // timing is zero, and the expired request left the batch before it
    // was coalesced.
    assert_eq!(
        served.timing,
        RequestTiming { queue_us: 0.0, plan_us: 0.0, exec_us: 0.0, batch_size: 1 }
    );

    let stats = server.shutdown();
    assert_eq!((stats.expired, stats.completed), (1, 1));
    let counts = TraceAudit::new(obs.events()).check().expect("trace invariants hold");
    assert_eq!((counts.expired, counts.responds), (1, 1));
}
