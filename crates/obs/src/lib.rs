//! `ctb-obs` — structured observability for the coordinated
//! tiling-and-batching stack.
//!
//! One [`Obs`] instance is a process-local event bus: instrumented
//! seams in `ctb-core`, `ctb-serve`, and `ctb-cluster` emit **spans**
//! (plan / autotune / exec / coalesce / place phases, begin + end with
//! monotonic microsecond timestamps) and **point events** (admission,
//! rejection, retries, breaker trips, terminal outcomes — one event per
//! stats-counter increment). The event log is the bus's one record:
//! [`TraceAudit`] reconciles it against the layer stats, [`Obs::render`]
//! prints it byte-stably, checkpoints carry it, and every count and
//! span duration a report needs is read from it. A **flight dump**,
//! taken on worker panic or breaker trip, is a mark in that log: it
//! reads back as the 256 events before the mark.
//!
//! Installation follows the same seam as the fault injector: every
//! layer holds an `Option<Arc<Obs>>` that defaults to `None`, so an
//! uninstrumented run pays one pointer-null check per site and nothing
//! else. The clock is pluggable ([`WallClock`] for production,
//! [`SimClock`] for tests), which makes a seeded single-worker workload
//! produce **byte-identical** traces across runs — the determinism
//! suite holds the bus to exactly that.
//!
//! ```
//! use ctb_obs::{Obs, PointKind, SpanKind, TraceAudit};
//! use std::sync::Arc;
//!
//! let obs = Arc::new(Obs::wall());
//! let t_admit = obs.point(PointKind::Admit { req: 0 });
//! let exec = obs.span(SpanKind::Exec);
//! let batch = exec.id();
//! let (begin, end) = exec.finish();
//! let exec_us = (end - begin) as f64;
//! let queue_us = (begin - t_admit) as f64;
//! obs.point(PointKind::Respond {
//!     req: 0,
//!     batch,
//!     degraded: false,
//!     abandoned: false,
//!     queue_us,
//!     plan_us: 0.0,
//!     exec_us,
//!     total_us: queue_us + 0.0 + exec_us,
//! });
//! let counts = TraceAudit::new(obs.events()).check().expect("trace audits clean");
//! assert_eq!(counts.terminals(), 1);
//! ```

pub mod audit;
pub mod clock;
pub mod event;
pub mod flight;

pub use audit::{TraceAudit, TraceCounts};
pub use clock::{ObsClock, SimClock, WallClock};
pub use event::{Event, EventKind, PointKind, SpanKind};
pub use flight::FlightDump;

use ctb_savestate::{Savestate, SavestateError};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

/// Flight-recorder depth: the most recent events a dump holds.
const FLIGHT_RING: usize = 256;

#[derive(Default)]
struct LogInner {
    /// Every event, in emission order; an event's `seq` is its index.
    events: Vec<Event>,
    /// Flight dumps, oldest first: each is its reason and the log's
    /// length when it was taken.
    dumps: Vec<(String, usize)>,
    /// Dense worker ids, assigned in first-emission order so serial
    /// workloads get deterministic ids (raw `ThreadId`s are not).
    workers: HashMap<ThreadId, u32>,
}

/// The event bus. Shared as `Arc<Obs>` across layers; all emission and
/// every dump funnel through one mutex, so `seq` order, log order and
/// dump order agree — the audit's ordering invariants depend on it.
pub struct Obs {
    clock: Arc<dyn ObsClock>,
    inner: Mutex<LogInner>,
}

impl Obs {
    /// Wall-clock bus.
    pub fn wall() -> Self {
        Self::with_clock(Arc::new(WallClock::new()))
    }

    /// Simulated-clock bus; the caller keeps the clock and advances it.
    pub fn sim(clock: Arc<SimClock>) -> Self {
        Self::with_clock(clock)
    }

    pub fn with_clock(clock: Arc<dyn ObsClock>) -> Self {
        Obs { clock, inner: Mutex::default() }
    }

    /// The log, locked. Nothing panics while holding it ([`ObsLog::load`]
    /// keeps every dump mark inside the log), so a poisoned lock is a bug
    /// here.
    fn log(&self) -> std::sync::MutexGuard<'_, LogInner> {
        self.inner.lock().expect("nothing panics while holding the obs log")
    }

    /// Current bus time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Emit one event whose kind may depend on the seq it is assigned
    /// (span ids are their begin event's seq). Returns (seq, t_us).
    fn emit_with(&self, f: impl FnOnce(u64) -> EventKind) -> (u64, u64) {
        let tid = std::thread::current().id();
        let mut inner = self.log();
        let t_us = self.clock.now_us();
        let next_worker = inner.workers.len() as u32;
        let worker = *inner.workers.entry(tid).or_insert(next_worker);
        let seq = inner.events.len() as u64;
        inner.events.push(Event { seq, t_us, worker, kind: f(seq) });
        (seq, t_us)
    }

    /// Record an instantaneous event; returns its timestamp (callers
    /// use it to anchor durations to the same clock, e.g. queue time
    /// measured from the `Admit` event).
    pub fn point(&self, kind: PointKind) -> u64 {
        self.emit_with(|_| EventKind::Point(kind)).1
    }

    /// Open a span. Close it with [`SpanGuard::finish`] to get the
    /// exact (begin, end) microsecond pair; if the guard instead drops
    /// during unwind, the drop emits the `SpanEnd` so traces stay
    /// well-formed across panics.
    pub fn span(&self, kind: SpanKind) -> SpanGuard<'_> {
        let (seq, t_us) = self.emit_with(|seq| EventKind::SpanBegin { span: kind, id: seq });
        SpanGuard { obs: self, kind, id: seq, begin_us: t_us, done: false }
    }

    fn end_span(&self, kind: SpanKind, id: u64) -> u64 {
        self.emit_with(|_| EventKind::SpanEnd { span: kind, id }).1
    }

    /// Copy of the full event log.
    pub fn events(&self) -> Vec<Event> {
        self.log().events.clone()
    }

    /// Byte-stable rendering of the whole log, one event per line —
    /// what the determinism suite compares across runs.
    pub fn render(&self) -> String {
        let inner = self.log();
        let mut out = String::new();
        for e in &inner.events {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }

    /// Mark a flight dump at the log's current end. Called on worker
    /// panic and breaker trip; [`flight_dumps`](Self::flight_dumps)
    /// reads each mark back as the 256 events before it.
    pub fn dump_flight(&self, reason: &str) {
        let mut inner = self.log();
        let end = inner.events.len();
        inner.dumps.push((reason.to_string(), end));
    }

    /// All flight dumps taken so far, oldest first: each holds the
    /// latest 256 events logged before it was taken.
    pub fn flight_dumps(&self) -> Vec<FlightDump> {
        let inner = self.log();
        inner
            .dumps
            .iter()
            .map(|(reason, end)| FlightDump {
                reason: reason.clone(),
                events: inner.events[end.saturating_sub(FLIGHT_RING)..*end].to_vec(),
            })
            .collect()
    }

    /// Serialize the bus state a deterministic resume depends on: the
    /// event log and the dump marks. Each event's `seq` is its index
    /// in the log, and a dump is read back from the log, so nothing
    /// else is written. The thread→worker-id map is deliberately *not*
    /// saved — dense ids are assigned in first-emission order, so the
    /// restoring process's emitting thread re-acquires the same dense
    /// id the original's did.
    pub fn save(&self, w: &mut ctb_savestate::Writer) {
        let inner = self.log();
        inner.events.save(w);
        inner.dumps.save(w);
    }

    /// Overwrite this bus's log and dump marks with `log`. Events
    /// emitted on this bus before the install — e.g. by the replans of
    /// an engine restore — are discarded wholesale, which is why an
    /// engine restore decodes the log first and installs it *last*.
    pub fn install(&self, log: ObsLog) {
        let mut inner = self.log();
        inner.events = log.events;
        inner.dumps = log.dumps;
        inner.workers.clear();
    }
}

/// An event log and its dump marks as [`Obs::save`] wrote them,
/// decoded and checked but not yet [installed](Obs::install).
pub struct ObsLog {
    events: Vec<Event>,
    dumps: Vec<(String, usize)>,
}

impl ObsLog {
    /// Decode what [`Obs::save`] wrote. An event whose `seq` is not its
    /// index in the log, or a dump marked past the log's end, is a
    /// typed `Corrupt`.
    pub fn load(r: &mut ctb_savestate::Reader<'_>) -> Result<Self, SavestateError> {
        let events = Vec::<Event>::load(r)?;
        if let Some((i, e)) = events.iter().enumerate().find(|(i, e)| e.seq != *i as u64) {
            return Err(SavestateError::Corrupt(format!("event {i} of the log has seq {}", e.seq)));
        }
        let dumps = Vec::<(String, usize)>::load(r)?;
        if let Some((reason, end)) = dumps.iter().find(|(_, end)| *end > events.len()) {
            return Err(SavestateError::Corrupt(format!(
                "flight dump {reason:?} marks event {end} of a {}-event log",
                events.len()
            )));
        }
        Ok(ObsLog { events, dumps })
    }
}

/// Open span handle. Prefer [`finish`](Self::finish) — it returns the
/// exact (begin, end) microsecond pair so callers can report durations
/// that reconcile with the trace to the bit. Dropping the guard —
/// including during a panic's unwind — closes the span too, so the
/// audit's "every span closed" invariant survives `catch_unwind`
/// seams.
pub struct SpanGuard<'a> {
    obs: &'a Obs,
    kind: SpanKind,
    id: u64,
    begin_us: u64,
    done: bool,
}

impl SpanGuard<'_> {
    /// The span id (`SpanBegin` event's seq) — what `Respond` terminal
    /// events reference as `batch`.
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn begin_us(&self) -> u64 {
        self.begin_us
    }

    /// Close the span; returns (begin_us, end_us) from the bus clock.
    pub fn finish(mut self) -> (u64, u64) {
        self.done = true;
        let end = self.obs.end_span(self.kind, self.id);
        (self.begin_us, end)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.obs.end_span(self.kind, self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_savestate::{Reader, Writer};

    #[test]
    fn zero_events_when_nothing_emitted() {
        let obs = Obs::wall();
        assert!(obs.events().is_empty());
        assert!(obs.flight_dumps().is_empty());
        assert_eq!(obs.render(), "");
    }

    #[test]
    fn span_ids_match_begin_seq_and_metrics_follow() {
        let obs = Obs::wall();
        let g = obs.span(SpanKind::Plan);
        assert_eq!(g.id(), 0);
        let (b, e) = g.finish();
        assert!(e >= b);
        let events = obs.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::SpanBegin { span: SpanKind::Plan, id: 0 });
        assert_eq!(events[1].kind, EventKind::SpanEnd { span: SpanKind::Plan, id: 0 });
        let counts = TraceAudit::new(events).check().expect("a closed span audits clean");
        assert_eq!(counts.span_count(SpanKind::Plan), 1);
    }

    #[test]
    fn dropped_guard_still_closes_the_span() {
        let obs = Obs::wall();
        {
            let _g = obs.span(SpanKind::Exec);
        }
        let audit = TraceAudit::new(obs.events()).check().expect("drop closed the span");
        assert_eq!(audit.span_count(SpanKind::Exec), 1);
    }

    #[test]
    fn unwinding_past_a_guard_closes_the_span() {
        let obs = Obs::wall();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = obs.span(SpanKind::Exec);
            panic!("boom");
        }));
        assert!(caught.is_err());
        TraceAudit::new(obs.events()).check().expect("unwind closed the span");
    }

    #[test]
    fn point_returns_clock_time_and_counts() {
        let clock = Arc::new(SimClock::new());
        let obs = Obs::sim(Arc::clone(&clock));
        clock.advance(500);
        let t = obs.point(PointKind::Reject { req: 3 });
        assert_eq!(t, 500);
        assert_eq!(obs.events()[0].kind, EventKind::Point(PointKind::Reject { req: 3 }));
    }

    #[test]
    fn flight_ring_is_bounded_and_dumps_latest() {
        let obs = Obs::sim(Arc::new(SimClock::new()));
        for i in 0..260u64 {
            obs.point(PointKind::Admit { req: i });
        }
        obs.dump_flight("test");
        let dumps = obs.flight_dumps();
        assert_eq!(dumps.len(), 1);
        assert_eq!(dumps[0].reason, "test");
        assert_eq!(dumps[0].events.len(), FLIGHT_RING, "ring bounded at capacity");
        let seqs: Vec<u64> = dumps[0].events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (4..260).collect::<Vec<u64>>(), "latest events, oldest first");
        assert!(dumps[0].render().contains("flight recorder dump (test): 256 events"));
        assert_eq!(obs.events().len(), 260, "the log keeps every event");
    }

    #[test]
    fn sim_clock_traces_are_byte_identical() {
        let run = || {
            let clock = Arc::new(SimClock::new());
            let obs = Obs::sim(Arc::clone(&clock));
            obs.point(PointKind::Admit { req: 1 });
            clock.advance(100);
            let g = obs.span(SpanKind::Exec);
            clock.advance(50);
            let (b, e) = g.finish();
            obs.point(PointKind::Respond {
                req: 1,
                batch: 1,
                degraded: false,
                abandoned: false,
                queue_us: 100.0,
                plan_us: 0.0,
                exec_us: (e - b) as f64,
                total_us: 150.0,
            });
            obs.render()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn checkpointed_bus_resumes_byte_identical_traces() {
        // Two buses run the same scripted workload; one is checkpointed
        // mid-script and restored into a fresh bus which finishes the
        // script. Final renders must agree byte-for-byte.
        let script_prefix = |obs: &Obs, clock: &SimClock| {
            obs.point(PointKind::Admit { req: 1 });
            clock.advance(100);
            let g = obs.span(SpanKind::Exec);
            clock.advance(50);
            g.finish();
            obs.dump_flight("mid-script dump");
        };
        let script_suffix = |obs: &Obs, clock: &SimClock| {
            clock.advance(25);
            obs.point(PointKind::BatchDone { req: 1, device: 0, degraded: false });
        };

        let clock_a = Arc::new(SimClock::new());
        let a = Obs::sim(Arc::clone(&clock_a));
        script_prefix(&a, &clock_a);
        script_suffix(&a, &clock_a);

        let clock_b = Arc::new(SimClock::new());
        let b = Obs::sim(Arc::clone(&clock_b));
        script_prefix(&b, &clock_b);
        let mut w = ctb_savestate::Writer::new();
        b.save(&mut w);
        let bytes = w.into_bytes();

        let clock_c = Arc::new(SimClock::new());
        let c = Obs::sim(Arc::clone(&clock_c));
        // Pollution emitted before the install is discarded by it.
        c.point(PointKind::PlanCacheMiss);
        let mut r = ctb_savestate::Reader::new(&bytes);
        c.install(ObsLog::load(&mut r).unwrap());
        r.expect_end().unwrap();
        clock_c.set(clock_b.now_us());
        script_suffix(&c, &clock_c);

        assert_eq!(c.render(), a.render(), "resumed trace is byte-identical");
        assert_eq!(c.flight_dumps().len(), 1);
        assert_eq!(c.flight_dumps()[0].render(), a.flight_dumps()[0].render());
    }

    #[test]
    fn restore_rejects_truncated_blobs() {
        let a = Obs::sim(Arc::new(SimClock::new()));
        a.point(PointKind::PanicCaught);
        let mut w = Writer::new();
        a.save(&mut w);
        let bytes = w.into_bytes();

        // Truncation surfaces as Corrupt, never a panic.
        assert!(matches!(
            ObsLog::load(&mut Reader::new(&bytes[..bytes.len() - 3])),
            Err(SavestateError::Corrupt(_))
        ));
    }

    /// Decode a blob of `events` followed by the dump marks `dumps`
    /// and install it into a fresh bus.
    fn restore_parts(events: &[Event], dumps: &[(String, usize)]) -> Result<Obs, SavestateError> {
        let mut w = Writer::new();
        w.seq(events);
        w.seq(dumps);
        let obs = Obs::sim(Arc::new(SimClock::new()));
        obs.install(ObsLog::load(&mut Reader::new(&w.into_bytes()))?);
        Ok(obs)
    }

    #[test]
    fn restore_rejects_a_dump_marked_past_the_log() {
        let a = Obs::sim(Arc::new(SimClock::new()));
        a.point(PointKind::PanicCaught);
        let events = a.events();
        let at_end = restore_parts(&events, &[("at the end".into(), 1)]).unwrap();
        assert_eq!(at_end.flight_dumps()[0].events, events, "a mark at the log's end restores");
        assert!(matches!(
            restore_parts(&events, &[("past the end".into(), 2)]),
            Err(SavestateError::Corrupt(msg)) if msg.contains("marks event 2 of a 1-event log")
        ));
    }

    #[test]
    fn restore_rejects_an_event_whose_seq_is_not_its_index() {
        let a = Obs::sim(Arc::new(SimClock::new()));
        a.point(PointKind::PanicCaught);
        a.point(PointKind::PanicCaught);
        let mut events = a.events();
        assert!(restore_parts(&events, &[]).is_ok());
        // A repeated seq, as a bus resumed behind its log would emit.
        events[1].seq = 0;
        assert!(matches!(
            restore_parts(&events, &[]),
            Err(SavestateError::Corrupt(msg)) if msg.contains("event 1 of the log has seq 0")
        ));
    }
}
