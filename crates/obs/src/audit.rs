//! Trace-driven whole-system invariant auditing.
//!
//! [`TraceAudit`] consumes a recorded event log and checks the
//! structural invariants every correct run must satisfy, regardless of
//! scheduling, faults, or batching decisions:
//!
//! 1. `seq` strictly increasing and timestamps non-decreasing (the bus
//!    assigns both under one lock from a monotonic clock).
//! 2. Per-worker span-stack discipline: spans nest and never overlap
//!    on a worker; every `SpanEnd` matches the innermost open span.
//! 3. Every opened span is closed by the end of the trace (the
//!    panic-safe `SpanGuard` drop guarantees this even on unwind).
//! 4. Terminal uniqueness: every admitted request reaches *exactly
//!    one* terminal event (`Reject` / `Respond` / `Expired` / `Failed`
//!    / `BatchDone`), and no terminal names an unadmitted request.
//! 5. Timing additivity: every `Respond` satisfies
//!    `queue_us + plan_us + exec_us == total_us` exactly (`==`, not ≈).
//! 6. Span linkage: every non-degraded `Respond` references a closed
//!    `Exec` span (degraded ones a `DegradedExec` span) whose measured
//!    duration equals the reported `exec_us` exactly.
//!
//! On success it returns [`TraceCounts`] — one exact tally per point
//! kind — which the chaos suites compare `==` against `ServeStats`,
//! `ClusterStats`, and `FaultLog`.

use crate::event::{Event, EventKind, PointKind, SpanKind};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Exact tallies of every point kind in a trace (plus span counts),
/// produced by a successful [`TraceAudit::check`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceCounts {
    pub admits: usize,
    pub rejects: usize,
    pub retries: usize,
    pub panics_caught: usize,
    pub plan_failures: usize,
    pub breaker_trips: usize,
    pub batches: usize,
    /// Sum of `BatchExecuted::size` over the trace.
    pub batch_members: usize,
    pub responds: usize,
    pub responds_degraded: usize,
    pub responds_abandoned: usize,
    pub expired: usize,
    pub expired_abandoned: usize,
    pub failed: usize,
    pub failed_abandoned: usize,
    pub plan_cache_hits: usize,
    pub plan_cache_misses: usize,
    pub routed: usize,
    pub steals: usize,
    pub reroutes: usize,
    pub kills: usize,
    pub batch_done: usize,
    pub batch_done_degraded: usize,
    /// Placements (and steals) that landed on the operand-resident device.
    pub residency_hits: usize,
    /// Placements (and steals) that staged operands onto a new device.
    pub residency_misses: usize,
    /// Completed span count per kind name.
    pub spans: BTreeMap<&'static str, usize>,
}

impl TraceCounts {
    /// Terminal events across all flavours.
    pub fn terminals(&self) -> usize {
        self.rejects + self.responds + self.expired + self.failed + self.batch_done
    }

    /// Requests whose ticket receiver was dropped before delivery.
    pub fn abandoned(&self) -> usize {
        self.responds_abandoned + self.expired_abandoned + self.failed_abandoned
    }

    /// Completed spans of one kind (0 when none).
    pub fn span_count(&self, kind: SpanKind) -> usize {
        self.spans.get(kind.name()).copied().unwrap_or(0)
    }
}

struct ClosedSpan {
    kind: SpanKind,
    begin_us: u64,
    end_us: u64,
}

/// Auditor over one recorded trace. Build with the events from
/// [`Obs::events`](crate::Obs::events), then [`check`](Self::check).
pub struct TraceAudit {
    events: Vec<Event>,
}

impl TraceAudit {
    pub fn new(events: Vec<Event>) -> Self {
        TraceAudit { events }
    }

    /// Run every invariant; the error string names the first violated
    /// invariant and the offending event.
    pub fn check(&self) -> Result<TraceCounts, String> {
        let mut counts = TraceCounts::default();
        let mut stacks: HashMap<u32, Vec<(SpanKind, u64)>> = HashMap::new();
        let mut open_spans: HashMap<u64, (SpanKind, u64)> = HashMap::new();
        let mut closed_spans: HashMap<u64, ClosedSpan> = HashMap::new();
        let mut admitted: HashSet<u64> = HashSet::new();
        let mut terminated: HashMap<u64, usize> = HashMap::new();
        // Deferred: a Respond may be recorded before its Exec span's
        // SpanEnd reaches the log in odd interleavings; verify linkage
        // after the full scan.
        let mut linkage: Vec<(u64, u64, bool, f64)> = Vec::new();

        let mut prev_seq: Option<u64> = None;
        let mut prev_t: Option<u64> = None;
        for e in &self.events {
            if let Some(p) = prev_seq {
                if e.seq <= p {
                    return Err(format!("seq not strictly increasing at {}", e.render()));
                }
            }
            prev_seq = Some(e.seq);
            if let Some(t) = prev_t {
                if e.t_us < t {
                    return Err(format!("timestamp went backwards at {}", e.render()));
                }
            }
            prev_t = Some(e.t_us);

            match e.kind {
                EventKind::SpanBegin { span, id } => {
                    if open_spans.insert(id, (span, e.t_us)).is_some() {
                        return Err(format!("span id {id} opened twice at {}", e.render()));
                    }
                    stacks.entry(e.worker).or_default().push((span, id));
                }
                EventKind::SpanEnd { span, id } => {
                    let stack = stacks.entry(e.worker).or_default();
                    match stack.pop() {
                        Some((top_kind, top_id)) if top_kind == span && top_id == id => {}
                        Some((top_kind, top_id)) => {
                            return Err(format!(
                                "span overlap on worker {}: end of {:?}#{id} but innermost open is {:?}#{top_id}",
                                e.worker, span, top_kind
                            ));
                        }
                        None => {
                            return Err(format!(
                                "span end without begin on worker {} at {}",
                                e.worker,
                                e.render()
                            ));
                        }
                    }
                    let (_, begin_us) = open_spans
                        .remove(&id)
                        .ok_or_else(|| format!("span end for unknown id at {}", e.render()))?;
                    closed_spans.insert(id, ClosedSpan { kind: span, begin_us, end_us: e.t_us });
                    *counts.spans.entry(span.name()).or_insert(0) += 1;
                }
                EventKind::Point(p) => {
                    Self::tally(&mut counts, &p);
                    match p {
                        PointKind::Admit { req } if !admitted.insert(req) => {
                            return Err(format!("request {req} admitted twice"));
                        }
                        PointKind::Admit { .. } => {}
                        PointKind::Respond {
                            req,
                            batch,
                            degraded,
                            queue_us,
                            plan_us,
                            exec_us,
                            total_us,
                            ..
                        } => {
                            *terminated.entry(req).or_insert(0) += 1;
                            if queue_us + plan_us + exec_us != total_us {
                                return Err(format!(
                                    "timing not additive for request {req}: {queue_us} + {plan_us} + {exec_us} != {total_us}"
                                ));
                            }
                            linkage.push((req, batch, degraded, exec_us));
                        }
                        PointKind::Reject { req }
                        | PointKind::Expired { req, .. }
                        | PointKind::Failed { req, .. }
                        | PointKind::BatchDone { req, .. } => {
                            *terminated.entry(req).or_insert(0) += 1;
                        }
                        _ => {}
                    }
                }
            }
        }

        for (worker, stack) in &stacks {
            if let Some((kind, id)) = stack.last() {
                return Err(format!("span {kind:?}#{id} left open on worker {worker}"));
            }
        }

        for (req, n) in &terminated {
            if !admitted.contains(req) {
                return Err(format!("terminal event for unadmitted request {req}"));
            }
            if *n != 1 {
                return Err(format!("request {req} has {n} terminal events, expected 1"));
            }
        }
        for req in &admitted {
            if !terminated.contains_key(req) {
                return Err(format!("admitted request {req} has no terminal event"));
            }
        }

        for (req, batch, degraded, exec_us) in &linkage {
            let span = closed_spans
                .get(batch)
                .ok_or_else(|| format!("request {req} responds from unknown span id {batch}"))?;
            let want = if *degraded { SpanKind::DegradedExec } else { SpanKind::Exec };
            if span.kind != want {
                return Err(format!(
                    "request {req} (degraded={degraded}) linked to a {:?} span, expected {want:?}",
                    span.kind
                ));
            }
            let dur = (span.end_us - span.begin_us) as f64;
            if dur != *exec_us {
                return Err(format!(
                    "request {req}: exec span #{batch} lasted {dur}us but response reports {exec_us}us"
                ));
            }
        }

        Ok(counts)
    }

    fn tally(c: &mut TraceCounts, p: &PointKind) {
        match p {
            PointKind::Admit { .. } => c.admits += 1,
            PointKind::Reject { .. } => c.rejects += 1,
            PointKind::Retry { .. } => c.retries += 1,
            PointKind::PanicCaught => c.panics_caught += 1,
            PointKind::PlanFailure => c.plan_failures += 1,
            PointKind::BreakerTrip => c.breaker_trips += 1,
            PointKind::BatchExecuted { size } => {
                c.batches += 1;
                c.batch_members += size;
            }
            PointKind::Respond { degraded, abandoned, .. } => {
                c.responds += 1;
                if *degraded {
                    c.responds_degraded += 1;
                }
                if *abandoned {
                    c.responds_abandoned += 1;
                }
            }
            PointKind::Expired { abandoned, .. } => {
                c.expired += 1;
                if *abandoned {
                    c.expired_abandoned += 1;
                }
            }
            PointKind::Failed { abandoned, .. } => {
                c.failed += 1;
                if *abandoned {
                    c.failed_abandoned += 1;
                }
            }
            PointKind::PlanCacheHit => c.plan_cache_hits += 1,
            PointKind::PlanCacheMiss => c.plan_cache_misses += 1,
            PointKind::Routed { .. } => c.routed += 1,
            PointKind::Steal { .. } => c.steals += 1,
            PointKind::Reroute { .. } => c.reroutes += 1,
            PointKind::Kill { .. } => c.kills += 1,
            PointKind::BatchDone { degraded, .. } => {
                c.batch_done += 1;
                if *degraded {
                    c.batch_done_degraded += 1;
                }
            }
            PointKind::ResidencyHit { .. } => c.residency_hits += 1,
            PointKind::ResidencyMiss { .. } => c.residency_misses += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, t_us: u64, worker: u32, kind: EventKind) -> Event {
        Event { seq, t_us, worker, kind }
    }

    /// A minimal healthy serve trace: admit -> coalesce -> plan ->
    /// exec -> respond, with exact timing linkage.
    fn healthy_trace() -> Vec<Event> {
        use EventKind::*;
        vec![
            ev(0, 10, 0, Point(PointKind::Admit { req: 1 })),
            ev(1, 12, 1, SpanBegin { span: SpanKind::Coalesce, id: 1 }),
            ev(2, 20, 1, SpanEnd { span: SpanKind::Coalesce, id: 1 }),
            ev(3, 21, 2, SpanBegin { span: SpanKind::Plan, id: 3 }),
            ev(4, 30, 2, SpanEnd { span: SpanKind::Plan, id: 3 }),
            ev(5, 30, 2, SpanBegin { span: SpanKind::Exec, id: 5 }),
            ev(6, 80, 2, SpanEnd { span: SpanKind::Exec, id: 5 }),
            ev(7, 80, 2, Point(PointKind::BatchExecuted { size: 1 })),
            ev(
                8,
                81,
                2,
                Point(PointKind::Respond {
                    req: 1,
                    batch: 5,
                    degraded: false,
                    abandoned: false,
                    queue_us: 11.0,
                    plan_us: 9.0,
                    exec_us: 50.0,
                    total_us: 70.0,
                }),
            ),
        ]
    }

    #[test]
    fn healthy_trace_passes_and_tallies() {
        let counts = TraceAudit::new(healthy_trace()).check().expect("healthy trace audits clean");
        assert_eq!(counts.admits, 1);
        assert_eq!(counts.responds, 1);
        assert_eq!(counts.terminals(), 1);
        assert_eq!(counts.abandoned(), 0);
        assert_eq!(counts.batches, 1);
        assert_eq!(counts.batch_members, 1);
        assert_eq!(counts.span_count(SpanKind::Exec), 1);
        assert_eq!(counts.span_count(SpanKind::Plan), 1);
        assert_eq!(counts.span_count(SpanKind::Place), 0);
    }

    #[test]
    fn dropped_terminal_event_is_caught() {
        // The acceptance-criteria negative test: corrupt a valid trace
        // by deleting its terminal event; the audit must flag the
        // admitted request as unterminated.
        let mut trace = healthy_trace();
        trace.pop();
        let err = TraceAudit::new(trace).check().expect_err("corrupted trace must fail");
        assert!(err.contains("no terminal event"), "unexpected error: {err}");
    }

    #[test]
    fn duplicate_terminal_is_caught() {
        let mut trace = healthy_trace();
        let mut dup = trace[8];
        dup.seq = 9;
        trace.push(dup);
        let err = TraceAudit::new(trace).check().expect_err("duplicate terminal must fail");
        assert!(err.contains("terminal events"), "unexpected error: {err}");
    }

    #[test]
    fn terminal_for_unadmitted_request_is_caught() {
        let mut trace = healthy_trace();
        trace[0] = ev(0, 10, 0, EventKind::Point(PointKind::Admit { req: 99 }));
        trace.push(ev(
            9,
            90,
            0,
            EventKind::Point(PointKind::Expired { req: 99, abandoned: false }),
        ));
        let err = TraceAudit::new(trace).check().expect_err("must fail");
        assert!(err.contains("unadmitted"), "unexpected error: {err}");
    }

    #[test]
    fn overlapping_spans_are_caught() {
        use EventKind::*;
        let trace = vec![
            ev(0, 0, 0, SpanBegin { span: SpanKind::Plan, id: 0 }),
            ev(1, 1, 0, SpanBegin { span: SpanKind::Exec, id: 1 }),
            // Ends the outer span while the inner is still open.
            ev(2, 2, 0, SpanEnd { span: SpanKind::Plan, id: 0 }),
            ev(3, 3, 0, SpanEnd { span: SpanKind::Exec, id: 1 }),
        ];
        let err = TraceAudit::new(trace).check().expect_err("overlap must fail");
        assert!(err.contains("overlap"), "unexpected error: {err}");
    }

    #[test]
    fn unclosed_span_is_caught() {
        use EventKind::*;
        let trace = vec![ev(0, 0, 0, SpanBegin { span: SpanKind::Exec, id: 0 })];
        let err = TraceAudit::new(trace).check().expect_err("open span must fail");
        assert!(err.contains("left open"), "unexpected error: {err}");
    }

    #[test]
    fn non_additive_timing_is_caught() {
        let mut trace = healthy_trace();
        if let EventKind::Point(PointKind::Respond { total_us, .. }) = &mut trace[8].kind {
            *total_us += 1.0;
        }
        let err = TraceAudit::new(trace).check().expect_err("bad timing must fail");
        assert!(err.contains("not additive"), "unexpected error: {err}");
    }

    #[test]
    fn exec_span_duration_mismatch_is_caught() {
        let mut trace = healthy_trace();
        if let EventKind::Point(PointKind::Respond { exec_us, queue_us, .. }) = &mut trace[8].kind {
            // Keep the sum additive but break the span linkage.
            *exec_us += 1.0;
            *queue_us -= 1.0;
        }
        let err = TraceAudit::new(trace).check().expect_err("span mismatch must fail");
        assert!(err.contains("lasted"), "unexpected error: {err}");
    }

    #[test]
    fn respond_linked_to_wrong_span_kind_is_caught() {
        let mut trace = healthy_trace();
        if let EventKind::Point(PointKind::Respond { batch, .. }) = &mut trace[8].kind {
            *batch = 3; // the Plan span
        }
        let err = TraceAudit::new(trace).check().expect_err("wrong span kind must fail");
        assert!(err.contains("expected Exec"), "unexpected error: {err}");
    }

    #[test]
    fn non_monotonic_seq_is_caught() {
        let mut trace = healthy_trace();
        trace[3].seq = 1;
        let err = TraceAudit::new(trace).check().expect_err("seq regression must fail");
        assert!(err.contains("seq"), "unexpected error: {err}");
    }
}
