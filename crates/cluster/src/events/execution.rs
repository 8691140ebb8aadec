//! Execution: starting a device's next job, completing it (a witness
//! runs for real), failing and re-routing it, and the degraded
//! baseline when no device can take it.

use super::timeline::Ev;
use super::{EvJob, EventCluster, ReqOutcome, WITNESS_ALPHA, WITNESS_BETA};
use crate::drift::PlacementDecision;
use ctb_matrix::{bitwise_mismatch, GemmBatch, MatF32};
use ctb_obs::{PointKind, SpanKind};
use ctb_savestate::{savestate_enum, savestate_struct};
use ctb_serve::FaultSite;
use std::sync::Arc;

/// Healing-probe interval after a breaker trip.
const PROBE_NS: u64 = 1_000_000;

/// What the fault dice decided a running job's end will look like. The
/// rolls are drawn when the job *starts*, in a fixed order, and applied
/// when its `ExecDone` fires.
#[derive(Clone)]
enum Fate {
    Complete,
    PlanFailed,
    Panicked,
}

savestate_enum!(Fate { 0 => Complete, 1 => PlanFailed, 2 => Panicked });

#[derive(Clone)]
pub(super) struct Running {
    job: EvJob,
    fate: Fate,
}

savestate_struct!(Running { job, fate });

impl Running {
    pub(super) fn job_mut(&mut self) -> &mut EvJob {
        &mut self.job
    }
}

impl EventCluster {
    pub(super) fn on_exec_done(&mut self, device: usize) {
        let Some(Running { job, fate }) = self.devices[device].running.take() else {
            return;
        };
        match fate {
            Fate::Complete => self.complete_job(device, job),
            Fate::PlanFailed => {
                self.stats.plan_failures += 1;
                if let Some(o) = self.obs() {
                    o.point(PointKind::PlanFailure);
                }
                self.fail_and_reroute(device, job);
            }
            Fate::Panicked => {
                self.stats.worker_panics += 1;
                if let Some(o) = self.obs() {
                    o.point(PointKind::PanicCaught);
                    o.dump_flight("worker panic");
                }
                self.fail_and_reroute(device, job);
            }
        }
        self.maybe_start(device);
        self.maybe_schedule_steal(device);
    }

    /// If `device` is idle and has queued work, start its front job.
    pub(super) fn maybe_start(&mut self, device: usize) {
        if self.devices[device].running.is_some() {
            return;
        }
        let Some(job) = self.dequeue(device) else {
            return;
        };
        self.start_job(device, job);
    }

    /// Roll the job's fate (slow stall → plan failure → exec panic) and
    /// schedule its `ExecDone`.
    pub(super) fn start_job(&mut self, device: usize, job: EvJob) {
        let dev = &self.devices[device];
        // Injected worker stall: sim time ahead of the work.
        let stall_ns = match &dev.fault {
            Some(f) => {
                f.roll_slow().map(|d| d.as_nanos().min(u128::from(u64::MAX)) as u64).unwrap_or(0)
            }
            None => 0,
        };
        let fate = if dev.roll(FaultSite::PlanFail) {
            Fate::PlanFailed
        } else if dev.roll(FaultSite::ExecPanic) {
            Fate::Panicked
        } else {
            Fate::Complete
        };
        let exec_ns = match fate {
            // Never zero, so a completion cannot share its timestamp
            // with the placement that caused it. Under a ground-truth
            // pool the device occupies its true (drifted) time, not the
            // predicted one.
            Fate::Complete => {
                let us = self.charged_us(device, &job);
                ((us * 1_000.0).round() as u64).max(1)
            }
            // Failures surface almost immediately and charge no
            // simulated busy time.
            Fate::PlanFailed | Fate::Panicked => 1,
        };
        let done = self.now.plus(stall_ns + exec_ns);
        self.devices[device].running = Some(Running { job, fate });
        self.timeline.schedule(done, Ev::ExecDone { device });
    }

    /// The simulated time a completing job occupies `device`: the
    /// placer's prediction normally (zero placement error by
    /// construction), the true-arch simulation when a ground-truth pool
    /// is attached.
    fn charged_us(&mut self, device: usize, job: &EvJob) -> f64 {
        if self.ground_truth.is_none() {
            return job.predicted_us;
        }
        self.actual_us(device, job)
    }

    /// Memoized "what the true silicon takes" for `job`'s signature on
    /// `device`'s arch class, kept in the signature's prediction cell.
    /// Simulates the *planned* kernel directly on
    /// the drifted spec — deliberately outside the SimMemo, whose
    /// context key is the arch name and so cannot distinguish nominal
    /// from drifted. Classes the pool does not drift charge the nominal
    /// simulation (the model is their truth).
    fn actual_us(&mut self, device: usize, job: &EvJob) -> f64 {
        let class = self.class_of[device];
        if let Some(us) = self.cell(job.sig, class).actual_us {
            return us;
        }
        let session = &self.classes[class].session;
        let plan = session
            .plan(&job.shapes)
            .expect("ground-truth timing is only charged for placed jobs, whose plan is warm");
        let nominal = session.framework().arch();
        let truth = self.ground_truth.as_ref().expect("checked by charged_us");
        let spec = truth.spec(nominal.name).unwrap_or(nominal);
        let us =
            ctb_sim::simulate(spec, &ctb_sim::LaunchSequence::Single(plan.kernel.clone())).total_us;
        self.cell(job.sig, class).actual_us = Some(us);
        us
    }

    /// Coordinated completion. Witnesses execute for real and are
    /// bitwise-checked; everyone else completes by accounting, charging
    /// the simulated time the placer predicted. A witness charges its
    /// plan's `predicted_us`, the simulated time of the plan's kernel,
    /// which is the number the placer read from the same plan; that
    /// shared source of truth is why `mean_abs_placement_err_us` stays
    /// 0. A ground-truth pool replaces only the *charged time* with the
    /// true-arch simulation (making the error real); witness execution
    /// and its bitwise check are timing-independent and unchanged.
    fn complete_job(&mut self, device: usize, job: EvJob) {
        let model_time = if job.witness {
            self.run_witness(&job, |eng, batch| {
                // Plan first (warm cache), then the Exec span, so the
                // trace shows planning ahead of execution.
                let session = &eng.classes[eng.class_of[device]].session;
                let plan = session
                    .plan(&batch.shapes)
                    .expect("witness plan is warm: placement already planned this signature");
                let _exec = eng.obs().map(|o| o.span(SpanKind::Exec));
                (ctb_core::execute_plan(batch, &plan.plan), plan.predicted_us)
            })
        } else {
            if let Some(o) = self.obs() {
                o.span(SpanKind::Exec).finish();
            }
            job.predicted_us
        };
        let executed_us =
            if self.ground_truth.is_some() { self.actual_us(device, &job) } else { model_time };
        let model_us = self.cell(job.sig, self.class_of[device]).model_us;
        let arch = self.arch(device).name;
        if let Some(log) = &mut self.decisions {
            log.push(PlacementDecision {
                id: job.id,
                device,
                arch,
                shapes: Arc::clone(&job.shapes),
                model_us: model_us.unwrap_or(job.predicted_us),
                predicted_us: job.predicted_us,
                actual_us: executed_us,
            });
        }
        let dev = &mut self.devices[device];
        dev.breaker.record_success();
        dev.backlog_us -= job.predicted_us;
        dev.busy_sim_us += executed_us;
        dev.completed += 1;
        self.stats.err_abs_sum_us += (job.predicted_us - executed_us).abs();
        self.complete(&job, device, false);
        self.index_touch(device);
    }

    /// Execute a witness for real: rebuild its batch from the data seed,
    /// run it through `run`, and compare the results bit for bit with the
    /// exact oracle, counting the witness and any mismatch. Returns what
    /// `run` returns beside the results.
    fn run_witness<T>(
        &mut self,
        job: &EvJob,
        run: impl FnOnce(&Self, &GemmBatch) -> (Vec<MatF32>, T),
    ) -> T {
        self.witnesses += 1;
        let batch = GemmBatch::random(&job.shapes, WITNESS_ALPHA, WITNESS_BETA, job.seed);
        let (results, out) = run(self, &batch);
        if bitwise_mismatch(&batch.reference_result_exact(), &results).is_some() {
            self.witness_mismatches += 1;
        }
        out
    }

    /// A served request (on `device`, or inline through the degraded
    /// baseline) ends as done.
    fn complete(&mut self, job: &EvJob, device: usize, degraded: bool) {
        self.end_request(ReqOutcome::Done {
            id: job.id,
            device,
            degraded,
            stolen: job.stolen,
            reroutes: job.attempts,
        });
    }

    /// The one way a request leaves the engine: its terminal trace point,
    /// the `open_jobs` count and, when recorded, its outcome.
    pub(super) fn end_request(&mut self, outcome: ReqOutcome) {
        if let Some(o) = self.obs() {
            o.point(match outcome {
                ReqOutcome::Done { id, device, degraded, .. } => {
                    PointKind::BatchDone { req: id, device, degraded }
                }
                ReqOutcome::PlanRejected { id } => PointKind::Reject { req: id },
                ReqOutcome::Failed { id } => PointKind::Failed { req: id, abandoned: false },
            });
        }
        self.open_jobs -= 1;
        if self.cfg.record_outcomes {
            self.outcomes.push(outcome);
        }
    }

    /// Common failure tail, in this order: charge the breaker (a trip
    /// drains the queue onto survivors *before* this job moves), release
    /// the backlog, then re-route the failing job.
    fn fail_and_reroute(&mut self, device: usize, job: EvJob) {
        if self.devices[device].breaker.record_failure() {
            self.devices[device].breaker_trips += 1;
            self.breaker_active = true;
            if let Some(o) = self.obs() {
                o.point(PointKind::BreakerTrip);
                o.dump_flight("breaker trip");
            }
            self.drain_and_reroute(device);
            self.schedule_probe(device);
        }
        self.devices[device].backlog_us -= job.predicted_us;
        self.index_touch(device);
        self.reroute(job, device);
    }

    /// Arm `device`'s healing probe one interval from now, unless one is
    /// already pending or no work is left to heal for.
    pub(super) fn schedule_probe(&mut self, device: usize) {
        if !self.devices[device].probe_pending && self.work_pending() {
            self.devices[device].probe_pending = true;
            self.timeline.schedule(self.now.plus(PROBE_NS), Ev::BreakerProbe { device });
        }
    }

    pub(super) fn drain_and_reroute(&mut self, device: usize) {
        while let Some(job) = self.dequeue(device) {
            self.devices[device].backlog_us -= job.predicted_us;
            self.reroute(job, device);
        }
        self.index_touch(device);
    }

    fn reroute(&mut self, mut job: EvJob, from: usize) {
        job.attempts += 1;
        self.devices[from].reroutes_out += 1;
        if let Some(o) = self.obs() {
            o.point(PointKind::Reroute { from });
        }
        if job.attempts > self.cfg.max_reroutes {
            self.degrade_inline(job);
            return;
        }
        match self.place_attempt(job, Some(from)) {
            Ok(device) => self.maybe_start(device),
            Err(fail) => self.degrade_inline(fail.job),
        }
    }

    /// Terminal fallback: the per-kernel default baseline, parametrised
    /// by the first live device's architecture (any arch yields
    /// bitwise-identical results — it only shapes the baseline's
    /// tiling); only witnesses actually run it (degraded results are
    /// bitwise-exact too, so the sample proves the path).
    pub(super) fn degrade_inline(&mut self, job: EvJob) {
        let donor = self.devices.iter().find(|d| d.alive).map_or(0, |d| d.id);
        let inject = self.devices[donor].roll(FaultSite::DegradedPanic);
        let obs_arc = self.obs.clone();
        let guard = obs_arc.as_ref().map(|o| o.span(SpanKind::DegradedExec));
        if inject {
            // The injected baseline panic: span closed first, then the
            // caught-panic bookkeeping, then the terminal Failed event,
            // so a flight dump holds the complete span.
            drop(guard);
            self.stats.worker_panics += 1;
            if let Some(o) = self.obs() {
                o.point(PointKind::PanicCaught);
                o.dump_flight("degraded worker panic");
            }
            self.end_request(ReqOutcome::Failed { id: job.id });
            return;
        }
        if job.witness {
            self.run_witness(&job, |eng, batch| {
                (ctb_baselines::default_functional(eng.arch(donor), batch), ())
            });
        }
        drop(guard);
        self.stats.degraded += 1;
        self.complete(&job, donor, true);
    }
}
