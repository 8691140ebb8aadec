//! Placement: the per-class prediction cache, the exact and indexed
//! placement scans, operand residency and work stealing.

use super::timeline::Ev;
use super::{EvJob, EventCluster, PlacementMode};
use crate::placer::{self, Candidate};
use ctb_matrix::GemmShape;
use ctb_obs::{PointKind, SpanKind};
use ctb_savestate::{Reader, Savestate, SavestateError, Writer};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::Arc;

/// Why a placement attempt found no home. Boxed at the placement
/// boundary so the common `Ok` path does not pay for the failure
/// payload (the job rides along to be re-routed or degraded).
pub(super) struct PlaceFail {
    pub(super) job: EvJob,
    pub(super) any_full: bool,
    pub(super) plan_err: Option<String>,
}

/// `(arch class name, shape signature) → predicted µs` (or the
/// planner's rejection, memoized so a poisoned signature is not
/// re-planned per device).
pub(super) type PredictionCache = HashMap<(&'static str, Arc<[GemmShape]>), Result<f64, String>>;

/// Where a shape signature's operands currently live: a device in the
/// pool and the home chiplet the device's topology assigns them. The
/// engine keeps one per signature, keyed by [`ctb_core::shape_sig_hash`]
/// and written at every landing (placement or steal, last writer wins);
/// the locality ranking reads it to waive the interposer penalty for the
/// resident device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct OperandHome {
    /// Pool index of the holding device.
    pub(super) device: usize,
    /// Home chiplet on that device (always 0 on monolithic parts).
    chiplet: u32,
}

/// `chiplet` is widened to `u64` in the blob; a value past `u32::MAX`
/// decodes as `Corrupt`.
impl Savestate for OperandHome {
    fn save(&self, w: &mut Writer) {
        self.device.save(w);
        u64::from(self.chiplet).save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        let device = usize::load(r)?;
        let chiplet = u64::load(r)?;
        let chiplet = u32::try_from(chiplet).map_err(|_| {
            SavestateError::Corrupt(format!("chiplet index {chiplet} does not fit u32"))
        })?;
        Ok(OperandHome { device, chiplet })
    }
}

impl EventCluster {
    /// Memoized prediction for `shapes` on device `dev_idx`'s arch
    /// class: plan through the class's session and take the plan's
    /// `predicted_us` (the planner simulated the chosen candidate while
    /// choosing it), corrected by the installed calibration profile and
    /// shared across all devices of the class.
    fn predict_cached(&mut self, dev_idx: usize, shapes: &Arc<[GemmShape]>) -> Result<f64, String> {
        // Cached values include the installed correction, so a profile
        // install (version bump on the share's CalibHandle) invalidates
        // the whole cache.
        let version = self.share.calib().version();
        if version != self.calib_version {
            self.predictions.clear();
            self.calib_version = version;
        }
        let class = self.class_of[dev_idx];
        let rep = self.class_rep[class];
        let name = self.devices[rep].arch().name;
        if let Some(r) = self.predictions.get(&(name, Arc::clone(shapes))) {
            return r.clone();
        }
        let raw = self.devices[rep].session.plan(shapes).map(|plan| plan.predicted_us);
        let r = match raw {
            Ok(model) => {
                self.model_us.insert((name, Arc::clone(shapes)), model);
                // Identity state (version 0) returns `model` bit-for-bit.
                Ok(self.share.calib().correct(name, model, &ctb_core::selector::features(shapes)))
            }
            Err(e) => Err(e),
        };
        self.predictions.insert((name, Arc::clone(shapes)), r.clone());
        r
    }

    fn use_index(&self, exclude: Option<usize>) -> bool {
        if self.breaker_active || exclude.is_some() {
            return false;
        }
        // Locality-aware placement over a chiplet pool needs the full
        // slate: the penalty depends on which device holds the operands,
        // which the backlog-keyed class index cannot express.
        if self.cfg.locality.enabled && self.has_chiplets {
            return false;
        }
        match self.cfg.placement {
            PlacementMode::Exact => false,
            PlacementMode::Indexed => true,
            PlacementMode::Auto => self.devices.len() >= 64,
        }
    }

    fn index_key(&self, device: usize) -> u64 {
        // Backlogs are clamped non-negative, and non-negative IEEE
        // doubles order identically to their bit patterns.
        self.devices[device].backlog().to_bits()
    }

    /// Record `device`'s current backlog in its class heap (lazy
    /// invalidation: older entries for the device go stale by value).
    pub(super) fn index_touch(&mut self, device: usize) {
        let class = self.class_of[device];
        let key = self.index_key(device);
        self.index[class].push(Reverse((key, device)));
    }

    /// One placement attempt. The exact path ranks every live device;
    /// the indexed path short-circuits the scan with per-class argmins,
    /// which pick the same device whenever no breaker is open and the
    /// best queue is not full — and fall back to the exact scan
    /// otherwise. Returns the placed-on device.
    pub(super) fn place_attempt(
        &mut self,
        job: EvJob,
        exclude: Option<usize>,
    ) -> Result<usize, Box<PlaceFail>> {
        if self.use_index(exclude) {
            self.place_indexed(job)
        } else {
            self.place_exact(job, exclude)
        }
    }

    /// Indexed argmin placement: peek each class heap's valid head
    /// (same within-class order as the global ranking, because the
    /// predicted time is constant within a class), then compare class
    /// winners with the identical completion-then-id ordering.
    fn place_indexed(&mut self, job: EvJob) -> Result<usize, Box<PlaceFail>> {
        let obs_arc = self.obs.clone();
        let place = obs_arc.as_ref().map(|o| o.span(SpanKind::Place));
        let shapes = job.shapes.clone();
        let sig = ctb_core::shape_sig_hash(&shapes);
        let op_bytes = ctb_core::operand_bytes(&shapes);
        let mut plan_err: Option<String> = None;
        let mut best: Option<Candidate> = None;
        for class in 0..self.class_rep.len() {
            let rep = self.class_rep[class];
            let predicted_us = match self.predict_cached(rep, &shapes) {
                Ok(v) => v,
                Err(m) => {
                    plan_err = Some(m);
                    continue;
                }
            };
            // Discard stale heads, then peek the class argmin.
            let head = loop {
                let Some(&Reverse((key, device))) = self.index[class].peek() else {
                    break None;
                };
                if self.devices[device].alive && self.index_key(device) == key {
                    break Some((key, device));
                }
                self.index[class].pop();
            };
            let Some((key, device)) = head else { continue };
            // `use_index` keeps this path off locality-relevant pools,
            // so the penalty here is identically zero.
            let cand =
                Candidate { device, backlog_us: f64::from_bits(key), predicted_us, penalty_us: 0.0 };
            let better = match &best {
                None => true,
                Some(b) => cand
                    .completion_us()
                    .total_cmp(&b.completion_us())
                    .then(cand.device.cmp(&b.device))
                    .is_lt(),
            };
            if better {
                best = Some(cand);
            }
        }
        let Some(c) = best else {
            // No live device bid: all dead, or every class failed to plan.
            return Err(Box::new(PlaceFail { job, any_full: false, plan_err }));
        };
        match self.land(&c, job, sig, op_bytes) {
            Ok(()) => Ok(c.device),
            // The best queue is full: close this span and spill down the
            // exact ranking.
            Err(job) => {
                drop(place);
                self.place_exact(job, None)
            }
        }
    }

    /// The exact scan: predict the job on every eligible device (served
    /// from the class cache) and queue it on the best-ranked candidate,
    /// spilling down the ranking when queues are full. A device serving
    /// its breaker's open window is sidelined, and each sidelining
    /// consumes one open slot, so the device heals after `open_batches`
    /// placements routed around it; when *every* candidate is open,
    /// routing proceeds on cost alone — a suspect device beats the
    /// baseline.
    fn place_exact(
        &mut self,
        mut job: EvJob,
        exclude: Option<usize>,
    ) -> Result<usize, Box<PlaceFail>> {
        let obs_arc = self.obs.clone();
        let _place = obs_arc.as_ref().map(|o| o.span(SpanKind::Place));
        let shapes = job.shapes.clone();
        // One residency snapshot per placement slate, read before any
        // candidate is scored, so every candidate is judged against the
        // same operand home.
        let sig = ctb_core::shape_sig_hash(&shapes);
        let op_bytes = ctb_core::operand_bytes(&shapes);
        let resident = self.residency.get(&sig).map(|h| h.device);
        let mut candidates = Vec::with_capacity(self.devices.len());
        let mut plan_err = None;
        for i in 0..self.devices.len() {
            if Some(i) == exclude || !self.devices[i].alive {
                continue;
            }
            match self.predict_cached(i, &shapes) {
                Ok(predicted_us) => candidates.push(Candidate {
                    device: i,
                    backlog_us: self.devices[i].backlog(),
                    predicted_us,
                    penalty_us: self.locality_penalty(i, resident, op_bytes),
                }),
                Err(m) => plan_err = Some(m),
            }
        }
        if candidates.is_empty() {
            return Err(Box::new(PlaceFail { job, any_full: false, plan_err }));
        }
        let all_open = candidates.iter().all(|c| self.devices[c.device].breaker.is_open());
        let candidates = placer::rank(candidates);
        let mut any_full = false;
        for c in &candidates {
            if !all_open && self.devices[c.device].breaker.consume_open() {
                continue;
            }
            match self.land(c, job, sig, op_bytes) {
                Ok(()) => return Ok(c.device),
                Err(refused) => {
                    any_full = true;
                    job = refused;
                }
            }
        }
        Err(Box::new(PlaceFail { job, any_full, plan_err: None }))
    }

    /// Queue `job` on candidate `c` with `c`'s prediction, or hand it
    /// back when the queue already holds `queue_capacity` jobs (at least
    /// one). A refused job's prediction is added to the backlog and taken
    /// off again; that can move the backlog's last bits, and every later
    /// ranking reads those bits, so the order is part of the engine's
    /// decisions.
    fn land(
        &mut self,
        c: &Candidate,
        mut job: EvJob,
        sig: u64,
        op_bytes: u64,
    ) -> Result<(), EvJob> {
        job.predicted_us = c.predicted_us;
        let dev = &mut self.devices[c.device];
        dev.backlog_us += c.predicted_us;
        if dev.queue.len() >= self.cfg.queue_capacity.max(1) {
            dev.backlog_us -= c.predicted_us;
            return Err(job);
        }
        dev.queue.push_back(job);
        dev.placements += 1;
        self.stats.routed += 1;
        if let Some(o) = self.obs() {
            o.point(PointKind::Routed { device: c.device });
        }
        self.account_residency(c.device, sig, op_bytes);
        self.index_touch(c.device);
        Ok(())
    }

    /// The locality routing penalty for placing this batch on `device`,
    /// given the `resident` device: the interposer-crossing cost
    /// of staging the remote share of the operands onto it. Zero for the
    /// resident device, for monolithic topologies, and under a blind
    /// policy; never folded into `predicted_us`.
    fn locality_penalty(&self, device: usize, resident: Option<usize>, op_bytes: u64) -> f64 {
        if !self.cfg.locality.enabled || resident == Some(device) {
            return 0.0;
        }
        let topo = &self.devices[device].arch().topology;
        ctb_sim::locality_penalty_us(topo, ctb_sim::remote_operand_bytes(topo, op_bytes))
    }

    /// Residency accounting at a landing (placement or steal): hit when
    /// the batch's operands already live on `device`, otherwise a miss
    /// that charges the remote share of the operand bytes and re-homes
    /// the signature on `device` (last writer wins). Runs under aware
    /// *and* blind policies — the bench arms differ only in ranking.
    fn account_residency(&mut self, device: usize, sig: u64, op_bytes: u64) {
        let topo = self.devices[device].arch().topology;
        if self.residency.get(&sig).is_some_and(|h| h.device == device) {
            self.stats.residency_hits += 1;
            if let Some(o) = self.obs() {
                o.point(PointKind::ResidencyHit { device });
            }
            return;
        }
        self.stats.residency_misses += 1;
        self.stats.remote_operand_bytes += ctb_sim::remote_operand_bytes(&topo, op_bytes);
        if let Some(o) = self.obs() {
            o.point(PointKind::ResidencyMiss { device });
        }
        self.residency.insert(sig, OperandHome { device, chiplet: topo.home_chiplet(sig) });
    }

    pub(super) fn on_steal_check(&mut self, thief_idx: usize) {
        self.devices[thief_idx].steal_pending = false;
        let thief = &self.devices[thief_idx];
        if !thief.alive || thief.breaker.is_open() || !thief.idle() {
            return;
        }
        if self.try_steal(thief_idx) {
            // Busy now; the next idle transition re-arms the check.
            return;
        }
        self.maybe_schedule_steal(thief_idx);
    }

    pub(super) fn maybe_schedule_steal(&mut self, device: usize) {
        if !self.cfg.steal.enabled {
            return;
        }
        let dev = &self.devices[device];
        if !dev.alive || !dev.idle() || dev.steal_pending || !self.work_pending() {
            return;
        }
        let poll_ns = self.cfg.steal.poll.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.devices[device].steal_pending = true;
        self.timeline.schedule(self.now.plus(poll_ns.max(1)), Ev::StealCheck { device });
    }

    /// An idle device looks for the most-backlogged live peer and, when
    /// the cost model says the peer's front batch finishes sooner here
    /// than it would *start* there ([`placer::steal_beneficial`]),
    /// takes it.
    fn try_steal(&mut self, thief_idx: usize) -> bool {
        let mut victim: Option<(usize, f64)> = None;
        for dev in &self.devices {
            if dev.id == thief_idx || !dev.alive || dev.queue.is_empty() {
                continue;
            }
            let backlog = dev.backlog();
            if backlog >= self.cfg.steal.min_victim_backlog_us
                && victim.is_none_or(|(_, b)| backlog > b)
            {
                victim = Some((dev.id, backlog));
            }
        }
        let Some((victim_idx, victim_backlog)) = victim else {
            return false;
        };
        let Some(shapes) = self.devices[victim_idx].queue.front().map(|j| j.shapes.clone()) else {
            return false;
        };
        let Ok(predicted_here) = self.predict_cached(thief_idx, &shapes) else {
            return false;
        };
        if !placer::steal_beneficial(
            victim_backlog,
            predicted_here,
            self.cfg.steal.min_victim_backlog_us,
        ) {
            return false;
        }
        let Some(mut job) = self.devices[victim_idx].queue.pop_front() else {
            return false;
        };
        self.devices[victim_idx].backlog_us -= job.predicted_us;
        self.index_touch(victim_idx);
        job.predicted_us = predicted_here;
        job.stolen = true;
        self.devices[thief_idx].backlog_us += predicted_here;
        self.devices[thief_idx].steals += 1;
        self.stats.steals += 1;
        if let Some(o) = self.obs() {
            o.point(PointKind::Steal { to: thief_idx, from: victim_idx });
        }
        // A steal moves the operands with the work: the thief becomes
        // the holder.
        self.account_residency(
            thief_idx,
            ctb_core::shape_sig_hash(&shapes),
            ctb_core::operand_bytes(&shapes),
        );
        self.index_touch(thief_idx);
        self.start_job(thief_idx, job);
        true
    }
}
