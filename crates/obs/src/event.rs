//! The trace vocabulary: spans and point events.
//!
//! Spans bracket the phases the paper's framework actually spends time
//! in — plan selection (tiling + batching coordination), autotune /
//! simulation lookups, and batch execution — plus the serving-layer
//! seams around them (coalescing windows, cluster placement). Point
//! events mark the state transitions the layer stats count, one event
//! per counter increment, which is what lets
//! [`TraceAudit`](crate::audit::TraceAudit) reconcile a trace against
//! `ServeStats` / `ClusterStats` / `FaultLog` with `==` rather than
//! tolerance.

/// A phase with duration: emitted as a `SpanBegin`/`SpanEnd` pair
/// sharing an id, nested per worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// `Session::plan` — tiling selection + batching coordination.
    Plan,
    /// Cold-path plan construction (solver + `SimMemo` simulation).
    Autotune,
    /// Coordinated batch execution through the packed executor.
    Exec,
    /// Per-kernel baseline fallback execution (degraded path).
    DegradedExec,
    /// A serve batching window: first pop to batch dispatch.
    Coalesce,
    /// Cluster placement decision (sim-cost argmin over devices).
    Place,
}

impl SpanKind {
    /// Stable lowercase name keying per-kind counts and JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Plan => "plan",
            SpanKind::Autotune => "autotune",
            SpanKind::Exec => "exec",
            SpanKind::DegradedExec => "degraded_exec",
            SpanKind::Coalesce => "coalesce",
            SpanKind::Place => "place",
        }
    }

    /// Every span kind, in a fixed order (JSON schema stability).
    pub const ALL: [SpanKind; 6] = [
        SpanKind::Plan,
        SpanKind::Autotune,
        SpanKind::Exec,
        SpanKind::DegradedExec,
        SpanKind::Coalesce,
        SpanKind::Place,
    ];
}

/// An instantaneous state transition.
///
/// Terminal events — [`Reject`](PointKind::Reject),
/// [`Respond`](PointKind::Respond), [`Expired`](PointKind::Expired),
/// [`Failed`](PointKind::Failed), [`BatchDone`](PointKind::BatchDone) —
/// close the life of one admitted request; the audit demands exactly
/// one per [`Admit`](PointKind::Admit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PointKind {
    /// Request accepted into an admission queue.
    ///
    /// Emitted *before* the queue push so downstream events can never
    /// precede it in the log; if the push then fails, a
    /// [`Reject`](PointKind::Reject) carrying the same `req` closes it.
    Admit { req: u64 },
    /// Terminal: an admitted request refused — by a serve queue that
    /// closed before it could be pushed, or by a cluster on which no
    /// live device could plan its shapes.
    Reject { req: u64 },
    /// A panicked batch member re-queued as a singleton.
    Retry { req: u64 },
    /// A worker panic contained by `catch_unwind`.
    PanicCaught,
    /// Planning returned an error (real or injected).
    PlanFailure,
    /// A circuit breaker tripped open.
    BreakerTrip,
    /// One coalesced batch finished coordinated execution.
    BatchExecuted { size: usize },
    /// Terminal: result delivered (or the ticket was dropped —
    /// `abandoned`). `batch` is the span id of the Exec/DegradedExec
    /// span that produced the result; the timing fields mirror the
    /// `RequestTiming` handed to the caller, so the audit can check
    /// `queue + plan + exec == total` and that `exec_us` equals the
    /// referenced span's duration, exactly.
    Respond {
        req: u64,
        batch: u64,
        degraded: bool,
        abandoned: bool,
        queue_us: f64,
        plan_us: f64,
        exec_us: f64,
        total_us: f64,
    },
    /// Terminal: deadline passed before planning.
    Expired { req: u64, abandoned: bool },
    /// Terminal: request failed (plan failure past budget, panic past
    /// retries, degraded-path panic).
    Failed { req: u64, abandoned: bool },
    /// Plan cache hit in `Session::plan`.
    PlanCacheHit,
    /// Plan cache miss (this call built and inserted the plan).
    PlanCacheMiss,
    /// Cluster: batch placed on a device queue.
    Routed { device: usize },
    /// Cluster: idle device stole a batch from a victim's queue.
    Steal { to: usize, from: usize },
    /// Cluster: batch bounced off a failing device and re-entered
    /// placement.
    Reroute { from: usize },
    /// Cluster: device administratively killed.
    Kill { device: usize },
    /// Terminal (cluster): batch finished on `device`. The engine holds
    /// no tickets a caller could drop, so nothing is ever abandoned.
    BatchDone { req: u64, device: usize, degraded: bool },
    /// Cluster: a placement (or steal) landed on the device already
    /// holding the batch's operands — no interposer staging.
    ResidencyHit { device: usize },
    /// Cluster: a placement (or steal) had to stage operands onto a
    /// non-resident device; the remote share crossed the interposer.
    ResidencyMiss { device: usize },
}

impl PointKind {
    /// Stable lowercase name keying per-kind counts and JSON exports.
    pub fn name(&self) -> &'static str {
        match self {
            PointKind::Admit { .. } => "admit",
            PointKind::Reject { .. } => "reject",
            PointKind::Retry { .. } => "retry",
            PointKind::PanicCaught => "panic_caught",
            PointKind::PlanFailure => "plan_failure",
            PointKind::BreakerTrip => "breaker_trip",
            PointKind::BatchExecuted { .. } => "batch_executed",
            PointKind::Respond { .. } => "respond",
            PointKind::Expired { .. } => "expired",
            PointKind::Failed { .. } => "failed",
            PointKind::PlanCacheHit => "plan_cache_hit",
            PointKind::PlanCacheMiss => "plan_cache_miss",
            PointKind::Routed { .. } => "routed",
            PointKind::Steal { .. } => "steal",
            PointKind::Reroute { .. } => "reroute",
            PointKind::Kill { .. } => "kill",
            PointKind::BatchDone { .. } => "batch_done",
            PointKind::ResidencyHit { .. } => "residency_hit",
            PointKind::ResidencyMiss { .. } => "residency_miss",
        }
    }

    /// Names of every point kind, in a fixed order (JSON schema
    /// stability — exports emit all of them even when zero).
    pub const ALL_NAMES: [&'static str; 19] = [
        "admit",
        "reject",
        "retry",
        "panic_caught",
        "plan_failure",
        "breaker_trip",
        "batch_executed",
        "respond",
        "expired",
        "failed",
        "plan_cache_hit",
        "plan_cache_miss",
        "routed",
        "steal",
        "reroute",
        "kill",
        "batch_done",
        "residency_hit",
        "residency_miss",
    ];
}

/// What an [`Event`] records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// Span opened; `id` is the begin event's own `seq` (unique and
    /// deterministic).
    SpanBegin { span: SpanKind, id: u64 },
    /// Span closed; `id` matches the begin.
    SpanEnd { span: SpanKind, id: u64 },
    /// Instantaneous event.
    Point(PointKind),
}

/// One trace entry. `seq` is assigned under the log lock, so trace
/// order and `seq` order agree; `worker` is a dense id assigned to
/// threads in first-emission order (deterministic for serial
/// workloads, unlike `ThreadId`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    pub seq: u64,
    pub t_us: u64,
    pub worker: u32,
    pub kind: EventKind,
}

impl Event {
    /// Stable single-line rendering; `Obs::render` concatenates these,
    /// and the determinism suite compares the result byte-for-byte.
    pub fn render(&self) -> String {
        format!("#{} t={}us w={} {:?}", self.seq, self.t_us, self.worker, self.kind)
    }
}

ctb_savestate::savestate_enum!(SpanKind {
    0 => Plan,
    1 => Autotune,
    2 => Exec,
    3 => DegradedExec,
    4 => Coalesce,
    5 => Place,
});

// Every tag keeps its value across format versions: 18 and 19 were
// appended after the cluster tags, and 17 (a plan-cache insert refused
// by an admission gate the cache no longer has) is retired, not reused.
ctb_savestate::savestate_enum!(PointKind {
    0 => Admit { req },
    1 => Reject { req },
    2 => Retry { req },
    3 => PanicCaught,
    4 => PlanFailure,
    5 => BreakerTrip,
    6 => BatchExecuted { size },
    7 => Respond { req, batch, degraded, abandoned, queue_us, plan_us, exec_us, total_us },
    8 => Expired { req, abandoned },
    9 => Failed { req, abandoned },
    10 => PlanCacheHit,
    11 => PlanCacheMiss,
    12 => Routed { device },
    13 => Steal { to, from },
    14 => Reroute { from },
    15 => Kill { device },
    16 => BatchDone { req, device, degraded },
    18 => ResidencyHit { device },
    19 => ResidencyMiss { device },
});

ctb_savestate::savestate_enum!(EventKind {
    0 => SpanBegin { span, id },
    1 => SpanEnd { span, id },
    2 => Point(point),
});

ctb_savestate::savestate_struct!(Event { seq, t_us, worker, kind });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_cover_all() {
        let mut seen = std::collections::BTreeSet::new();
        for k in SpanKind::ALL {
            assert!(seen.insert(k.name()), "duplicate span name {}", k.name());
        }
        let mut seen = std::collections::BTreeSet::new();
        for n in PointKind::ALL_NAMES {
            assert!(seen.insert(n), "duplicate point name {n}");
        }
        // Spot-check that `name()` agrees with the ALL_NAMES table.
        assert_eq!(PointKind::Admit { req: 0 }.name(), PointKind::ALL_NAMES[0]);
        assert_eq!(PointKind::Reject { req: 0 }.name(), PointKind::ALL_NAMES[1]);
        assert_eq!(
            PointKind::BatchDone { req: 0, device: 0, degraded: false }.name(),
            PointKind::ALL_NAMES[16]
        );
        assert_eq!(PointKind::ResidencyHit { device: 0 }.name(), PointKind::ALL_NAMES[17]);
        assert_eq!(PointKind::ResidencyMiss { device: 0 }.name(), PointKind::ALL_NAMES[18]);
    }

    #[test]
    fn event_codec_round_trips_every_kind_bitwise() {
        use ctb_savestate::{Reader, Savestate as _, Writer};
        let mut kinds: Vec<EventKind> = Vec::new();
        for s in SpanKind::ALL {
            kinds.push(EventKind::SpanBegin { span: s, id: 7 });
            kinds.push(EventKind::SpanEnd { span: s, id: 7 });
        }
        kinds.extend([
            EventKind::Point(PointKind::Admit { req: 3 }),
            EventKind::Point(PointKind::Reject { req: 9 }),
            EventKind::Point(PointKind::Retry { req: 4 }),
            EventKind::Point(PointKind::PanicCaught),
            EventKind::Point(PointKind::PlanFailure),
            EventKind::Point(PointKind::BreakerTrip),
            EventKind::Point(PointKind::BatchExecuted { size: 12 }),
            EventKind::Point(PointKind::Respond {
                req: 1,
                batch: 2,
                degraded: true,
                abandoned: false,
                queue_us: 1.5,
                plan_us: f64::from_bits(0x7FF8_0000_0000_0001), // NaN payload
                exec_us: -0.0,
                total_us: 3.25,
            }),
            EventKind::Point(PointKind::Expired { req: 5, abandoned: true }),
            EventKind::Point(PointKind::Failed { req: 6, abandoned: false }),
            EventKind::Point(PointKind::PlanCacheHit),
            EventKind::Point(PointKind::PlanCacheMiss),
            EventKind::Point(PointKind::Routed { device: 3 }),
            EventKind::Point(PointKind::Steal { to: 1, from: 2 }),
            EventKind::Point(PointKind::Reroute { from: 0 }),
            EventKind::Point(PointKind::Kill { device: 9 }),
            EventKind::Point(PointKind::BatchDone { req: 8, device: 1, degraded: true }),
            EventKind::Point(PointKind::ResidencyHit { device: 4 }),
            EventKind::Point(PointKind::ResidencyMiss { device: 5 }),
        ]);
        for (i, kind) in kinds.into_iter().enumerate() {
            let e = Event { seq: i as u64, t_us: 1000 + i as u64, worker: (i % 3) as u32, kind };
            let mut w = Writer::new();
            e.save(&mut w);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = Event::load(&mut r).unwrap();
            r.expect_end().unwrap();
            // render() covers every field debug-formatted, so equal
            // renders == equal events, bitwise f64s included.
            assert_eq!(back.render(), e.render());
        }
    }

    #[test]
    fn event_codec_rejects_bad_tags_with_typed_errors() {
        use ctb_savestate::{Reader, Savestate as _, SavestateError, Writer};
        // 17 is a retired tag; 99 was never one.
        for tag in [17u8, 99] {
            let mut w = Writer::new();
            (0u64, 0u64).save(&mut w);
            0u32.save(&mut w);
            2u8.save(&mut w); // point…
            tag.save(&mut w); // …with an invalid point tag
            let bytes = w.into_bytes();
            assert_eq!(
                Event::load(&mut Reader::new(&bytes)),
                Err(SavestateError::Corrupt(format!("bad PointKind tag {tag}")))
            );
        }
        // The tags after the retired one keep the values a v10
        // checkpoint holds.
        for (kind, tag) in [
            (PointKind::ResidencyHit { device: 4 }, 18u8),
            (PointKind::ResidencyMiss { device: 4 }, 19),
        ] {
            let mut w = Writer::new();
            kind.save(&mut w);
            assert_eq!(w.into_bytes()[0], tag, "{kind:?}");
        }
    }

    #[test]
    fn render_is_stable() {
        let e = Event {
            seq: 7,
            t_us: 1234,
            worker: 2,
            kind: EventKind::Point(PointKind::Admit { req: 42 }),
        };
        assert_eq!(e.render(), "#7 t=1234us w=2 Point(Admit { req: 42 })");
    }
}
