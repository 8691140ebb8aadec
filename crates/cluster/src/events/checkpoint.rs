//! Savestate: class and device images, checkpoint and restore at an
//! event boundary.

use super::execution::Running;
use super::timeline::{Ev, SimTime, Timeline};
use super::{ArchClass, EvDevice, EvJob, EventCluster, EventConfig, LoadGen, ReqOutcome};
use crate::stats::ClusterInner;
use ctb_core::CacheStats;
use ctb_gpu_specs::{ArchSpec, ChipletTopology};
use ctb_matrix::GemmShape;
use ctb_obs::{Obs, ObsClock, ObsLog, SimClock};
use ctb_savestate::{savestate_struct, Reader, Savestate, SavestateError, Writer};
use ctb_serve::{Breaker, BreakerPolicy, FaultInjector, FaultLog};
use std::sync::Arc;

/// One arch class's checkpoint record, written once for all its
/// devices: the name and topology each of them is checked against on
/// restore, the class session's plan-cache `(hits, misses)`, pinned
/// back after the restore's replans (which count as misses), and every
/// prediction the class made.
pub(super) struct ClassImage {
    name: String,
    topology: ChipletTopology,
    cache: (usize, usize),
    /// Each signature the class predicted, sorted by shapes. A plan is
    /// a pure function of the arch, its thresholds and the shapes, so
    /// this is the class's whole planning record; restore replans each
    /// `Ok`.
    predictions: Vec<Prediction>,
}

/// A predicted signature: its predicted µs, or the planner's rejection.
type Prediction = (Arc<[GemmShape]>, Result<f64, String>);

savestate_struct!(ClassImage { name, topology, cache, predictions });

/// One device's checkpoint record. Its arch is the one of its class
/// record, and its breaker is a live object, rebuilt around these values
/// on restore. Whether a steal check or a breaker probe is pending for
/// it is not written: restore reads both off the timeline.
pub(super) struct DeviceImage {
    /// Index of the device's [`ClassImage`] in the checkpoint.
    class: usize,
    alive: bool,
    queue: Vec<EvJob>,
    running: Option<Running>,
    backlog_us: f64,
    busy_sim_us: f64,
    /// Breaker `(consecutive failures, open slots remaining)`.
    breaker: (usize, usize),
    fault: Option<Arc<FaultInjector>>,
    placements: usize,
    completed: usize,
    steals: usize,
    reroutes_out: usize,
    breaker_trips: usize,
}

savestate_struct!(DeviceImage {
    class,
    alive,
    queue,
    running,
    backlog_us,
    busy_sim_us,
    breaker,
    fault,
    placements,
    completed,
    steals,
    reroutes_out,
    breaker_trips,
});

impl EvDevice {
    pub(super) fn image(&self, class: usize) -> DeviceImage {
        DeviceImage {
            class,
            alive: self.alive,
            queue: self.queue.iter().cloned().collect(),
            running: self.running.clone(),
            backlog_us: self.backlog_us,
            busy_sim_us: self.busy_sim_us,
            breaker: self.breaker.state(),
            fault: self.fault.clone(),
            placements: self.placements,
            completed: self.completed,
            steals: self.steals,
            reroutes_out: self.reroutes_out,
            breaker_trips: self.breaker_trips,
        }
    }

    /// Overwrite this freshly built device with a checkpointed image
    /// (its arch, topology and fault schedule are already in place).
    fn restore_image(&mut self, d: DeviceImage, breaker: BreakerPolicy) {
        self.queue = d.queue.into();
        self.running = d.running;
        self.backlog_us = d.backlog_us;
        self.busy_sim_us = d.busy_sim_us;
        self.alive = d.alive;
        self.breaker = Breaker::restore(breaker, d.breaker);
        self.placements = d.placements;
        self.completed = d.completed;
        self.steals = d.steals;
        self.reroutes_out = d.reroutes_out;
        self.breaker_trips = d.breaker_trips;
    }
}

/// Checkpoint / restore. The engine is single-threaded, so any moment
/// between [`EventCluster::step`] calls is a consistent *event
/// boundary*: no half-dispatched event exists, every pending cause
/// lives on the timeline, and every decision source (fault cursors,
/// breaker runs, predictions, the tie-break counter) is a plain value.
/// [`checkpoint`](Self::checkpoint) serializes exactly those values —
/// no wall-clock, no addresses, no plan — which is why a restored
/// engine re-runs the remainder of the schedule decision-for-decision
/// and byte-for-byte (trace included); `tests/savestate.rs` enforces
/// this differentially at swept crash points over the chaos schedules.
impl EventCluster {
    /// Serialize the engine's complete state at the current event
    /// boundary into a versioned blob.
    ///
    /// # Panics
    ///
    /// Calibration runs are not checkpointable: a ground-truth pool,
    /// an open decision log, or an installed calibration profile are
    /// runtime-only state the pinned blob format deliberately excludes
    /// (a restored engine could not replay the same charged times or
    /// corrected predictions). Record and calibrate first, checkpoint
    /// after.
    pub fn checkpoint(&self) -> Vec<u8> {
        assert!(
            self.ground_truth.is_none()
                && self.decisions.is_none()
                && self.share.calib().version() == 0,
            "calibration runs are not checkpointable: detach the ground-truth pool, stop \
             decision recording and leave the share's CalibHandle at version 0 before \
             checkpointing"
        );
        let mut w = Writer::with_header();
        self.cfg.save(&mut w);
        self.obs.is_some().save(&mut w);
        // -- engine scalars
        self.now.save(&mut w);
        self.next_job_id.save(&mut w);
        self.events_processed.save(&mut w);
        self.requests.save(&mut w);
        self.witnesses.save(&mut w);
        self.witness_mismatches.save(&mut w);
        // -- open-loop load source
        self.gen.save(&mut w);
        // -- arch classes (class order), then devices (pool order)
        self.class_images().save(&mut w);
        w.len_prefix(self.devices.len());
        for d in &self.devices {
            d.image(self.class_of[d.id]).save(&mut w);
        }
        // -- timeline (pending events + tie-break counter)
        self.timeline.save(&mut w);
        // -- operand residency
        self.save_residency(&mut w);
        // -- recorded outcomes, cluster-wide counters
        self.outcomes.save(&mut w);
        self.stats.save(&mut w);
        // -- instrumentation state, last: restore replans first (which
        // emits events), then overwrites the log with this.
        if let (Some(clock), Some(obs)) = (&self.clock, &self.obs) {
            clock.now_us().save(&mut w);
            obs.save(&mut w);
        }
        w.into_bytes()
    }

    /// Rebuild an engine from a [`checkpoint`](Self::checkpoint) blob.
    /// `pool` must be the same architecture sequence the checkpointed
    /// engine was built over (checked by name and topology, per device,
    /// against the device's class record, and by replanning — a typed
    /// [`SavestateError::Mismatch`] otherwise). Returns the engine and,
    /// when the checkpoint was instrumented, its freshly attached
    /// [`Obs`] (the caller's handle for trace comparison).
    ///
    /// Restore order matters and is fixed. The whole blob is read and
    /// checked first, the obs log included, with the engine built
    /// exactly as [`new`](Self::new) builds it, so a truncated or
    /// corrupt blob is refused before anything is planned. Then every
    /// successful prediction is *replanned* through its class session
    /// on the engine's fresh plan cache and memo, and a replan that
    /// fails or predicts other bits than the checkpoint is a typed
    /// `Mismatch` naming the arch: a pool whose specs kept their names
    /// but not their model cannot resume on the checkpoint's times.
    /// The replans rebuild the plan cache and the memo, whose counters
    /// then equal the checkpoint's (each class plans each signature
    /// once, three candidates per plan, in a memo context of its own);
    /// only the classes' cache counters are pinned back, and the obs
    /// log is installed last, discarding the plan spans the replans
    /// emitted. What the blob does not hold because the timeline and
    /// the devices fix it is counted from them: the pending arrivals,
    /// the open jobs, the pending steal checks and breaker probes, and
    /// whether any breaker has tripped.
    pub fn restore(
        pool: Vec<ArchSpec>,
        bytes: &[u8],
    ) -> Result<(Self, Option<Arc<Obs>>), SavestateError> {
        let (mut r, version) = Reader::with_header(bytes)?;
        // v2 extended the embedded `PlanShare` image (shard layout,
        // capacity bound, admission gate); v3 added chiplet topology,
        // the locality ranking flag, operand residency and its
        // counters; v4 moved plan-cache accounting from the devices to
        // the arch classes and keys residency by shapes; v5 writes each
        // arch once per class and drops what restore can count; v6 drops
        // the obs bus's config; v7 writes the obs log and dump marks
        // only; v8 drops the shard count and gives each plan-cache key
        // its calibration epoch; v9 drops the fault injector's admission
        // site and `BatchDone`'s abandoned flag, and writes the share's
        // bound, gate and counters ahead of its memo and keys; v10 drops
        // the share's config, bound, gate and counters, and writes its
        // keys ahead of its memo; v11 drops the plan-cache keys, the
        // memo and its counters, and writes each class's predictions in
        // its class record. Each time an older checkpoint stopped
        // describing a decodable engine.
        if version < 11 {
            return Err(SavestateError::Mismatch(format!(
                "cluster checkpoint format v{version} predates v11, which records each arch \
                 class's predictions instead of plan-cache keys and a memo; re-checkpoint with \
                 the current engine"
            )));
        }
        let cfg = EventConfig::load(&mut r)?;
        let (clock, obs) = if bool::load(&mut r)? {
            let clock = Arc::new(SimClock::new());
            let obs = Arc::new(Obs::sim(Arc::clone(&clock)));
            (Some(clock), Some(obs))
        } else {
            (None, None)
        };
        let now = SimTime::load(&mut r)?;
        let next_job_id = u64::load(&mut r)?;
        let events_processed = u64::load(&mut r)?;
        let requests = usize::load(&mut r)?;
        let witnesses = usize::load(&mut r)?;
        let witness_mismatches = usize::load(&mut r)?;
        let gen = Option::<LoadGen>::load(&mut r)?;

        let classes = Vec::<ClassImage>::load(&mut r)?;
        let n_devices = r.len_prefix()?;
        if n_devices == 0 {
            return Err(SavestateError::Corrupt("checkpoint declares zero devices".into()));
        }
        if n_devices != pool.len() {
            return Err(SavestateError::Mismatch(format!(
                "checkpoint holds {n_devices} devices, restore pool holds {}",
                pool.len()
            )));
        }
        let mut images = Vec::with_capacity(n_devices);
        for (id, arch) in pool.iter().enumerate() {
            let d = DeviceImage::load(&mut r)?;
            let Some(class) = classes.get(d.class) else {
                return Err(SavestateError::Corrupt(format!(
                    "device {id} names arch class {}, the checkpoint holds {} arch classes",
                    d.class,
                    classes.len()
                )));
            };
            if class.name != arch.name {
                return Err(SavestateError::Mismatch(format!(
                    "device {id}: checkpoint arch {:?}, restore pool has {:?}",
                    class.name, arch.name
                )));
            }
            if class.topology != arch.topology {
                return Err(SavestateError::Mismatch(format!(
                    "device {id}: checkpoint topology {:?}, restore pool has {:?}",
                    class.topology, arch.topology
                )));
            }
            images.push(d);
        }
        let mut timeline = Timeline::load(&mut r)?;
        for (at, ev) in timeline.pending() {
            // The timeline pops in `(at, seq)` order and the engine steps
            // its clock to each popped time, so an event before `now`
            // would run simulated time backwards.
            if at < now {
                return Err(SavestateError::Corrupt(format!(
                    "pending event at {} ns precedes the checkpoint's now, {} ns",
                    at.as_ns(),
                    now.as_ns()
                )));
            }
            if let Ev::ExecDone { device }
            | Ev::StealCheck { device }
            | Ev::BreakerProbe { device }
            | Ev::DeviceKill { device } = *ev
            {
                if device >= n_devices {
                    return Err(SavestateError::Corrupt(format!(
                        "pending event names device {device}, the pool holds {n_devices}"
                    )));
                }
            }
        }
        let faults = images.iter_mut().map(|d| d.fault.take()).collect();
        let mut eng = EventCluster::build(pool, cfg, faults, obs.clone(), clock);
        if classes.len() != eng.classes.len() {
            return Err(SavestateError::Corrupt(format!(
                "checkpoint holds {} arch classes, the pool has {}",
                classes.len(),
                eng.classes.len()
            )));
        }
        eng.load_residency(&mut r)?;
        // Signature ids are engine-local and never written: every job the
        // blob held is interned again here.
        for d in &mut images {
            for job in d.queue.iter_mut().chain(d.running.as_mut().map(Running::job_mut)) {
                job.sig = eng.intern(&job.shapes);
            }
        }
        timeline.for_each_job(|job| job.sig = eng.intern(&job.shapes));
        for (dev, d) in eng.devices.iter_mut().zip(images) {
            dev.restore_image(d, eng.cfg.breaker.clone());
        }
        eng.queued = eng.devices.iter().filter(|d| !d.queue.is_empty()).count();
        // Each pending count and flag is kept where its events are
        // scheduled and fired, so the timeline and the devices fix it:
        // an open job is awaiting placement, queued or running.
        for (_, ev) in timeline.pending() {
            match *ev {
                Ev::Arrive { .. } => eng.pending_arrivals += 1,
                Ev::PlaceDone { .. } => eng.open_jobs += 1,
                Ev::StealCheck { device } => eng.devices[device].steal_pending = true,
                Ev::BreakerProbe { device } => eng.devices[device].probe_pending = true,
                Ev::ExecDone { .. } | Ev::DeviceKill { .. } => {}
            }
        }
        for d in &eng.devices {
            eng.open_jobs += d.queue.len() + usize::from(d.running.is_some());
        }
        eng.breaker_active = eng.devices.iter().any(|d| d.breaker_trips > 0);
        eng.outcomes = Vec::<ReqOutcome>::load(&mut r)?;
        eng.stats = ClusterInner::load(&mut r)?;
        let log = match eng.obs {
            Some(_) => Some((u64::load(&mut r)?, ObsLog::load(&mut r)?)),
            None => None,
        };
        r.expect_end()?;
        eng.replan(&classes)?;
        for (class, image) in classes.into_iter().enumerate() {
            let (hits, misses) = image.cache;
            eng.classes[class].session.set_stats(CacheStats { hits, misses });
            for (shapes, predicted) in image.predictions {
                let sig = eng.intern(&shapes);
                eng.cell(sig, class).predicted = Some(predicted);
            }
        }
        if let (Some((now_us, log)), Some(clock), Some(obs)) = (log, &eng.clock, &eng.obs) {
            clock.set(now_us);
            obs.install(log);
        }
        eng.timeline = timeline;
        eng.gen = gen;
        eng.now = now;
        eng.next_job_id = next_job_id;
        eng.events_processed = events_processed;
        eng.requests = requests;
        eng.witnesses = witnesses;
        eng.witness_mismatches = witness_mismatches;
        // The class heaps restart from the restored backlogs: the
        // original heap's extra entries are stale by value and thus
        // invisible, so one entry per alive device reproduces the same
        // argmin choices.
        (0..eng.classes.len()).for_each(|class| eng.reindex(class));
        Ok((eng, obs))
    }

    /// One record per arch class, in class order.
    pub(super) fn class_images(&self) -> Vec<ClassImage> {
        let image = |(class, c): (usize, &ArchClass)| {
            let cells = self.predictions.iter().skip(class).step_by(self.classes.len());
            let mut predictions: Vec<_> = cells
                .zip(&self.sigs)
                .filter_map(|(cell, s)| Some((Arc::clone(&s.shapes), cell.predicted.clone()?)))
                .collect();
            predictions.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            let CacheStats { hits, misses } = c.session.stats();
            ClassImage {
                name: c.arch().name.to_string(),
                topology: c.arch().topology,
                cache: (hits, misses),
                predictions,
            }
        };
        self.classes.iter().enumerate().map(image).collect()
    }

    /// Plan each successful prediction of the checkpoint's class records
    /// again through its class session and check that the replan
    /// predicts the same bits.
    fn replan(&self, classes: &[ClassImage]) -> Result<(), SavestateError> {
        for (class, image) in self.classes.iter().zip(classes) {
            for (shapes, predicted) in &image.predictions {
                let Ok(us) = predicted else { continue };
                let plan = class.session.plan(shapes).map_err(|e| {
                    SavestateError::Mismatch(format!(
                        "arch {:?} cannot replan a checkpointed prediction: {e}",
                        image.name
                    ))
                })?;
                if plan.predicted_us.to_bits() != us.to_bits() {
                    return Err(SavestateError::Mismatch(format!(
                        "arch {:?} replans a checkpointed prediction of {us} µs as {} µs",
                        image.name, plan.predicted_us
                    )));
                }
            }
        }
        Ok(())
    }

    /// Per-device injected-fault accounting (`None` where no chaos
    /// schedule is attached). A restored engine owns *fresh* injectors
    /// rebuilt from serialized cursors, so differential suites compare
    /// fault history through this seam rather than through the `Arc`s
    /// they passed at construction.
    pub fn fault_logs(&self) -> Vec<Option<FaultLog>> {
        self.devices.iter().map(|d| d.fault.as_ref().map(|f| f.log())).collect()
    }
}
