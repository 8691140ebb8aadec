//! Placement: signature interning and the per-class prediction cache,
//! the exact and indexed placement scans, the class heaps, operand
//! residency and work stealing.

use super::timeline::Ev;
use super::{ArchClass, EvJob, EventCluster, PlacementMode};
use crate::placer::{self, Candidate};
use ctb_core::hash::mix64;
use ctb_matrix::GemmShape;
use ctb_obs::{PointKind, SpanKind};
use ctb_savestate::{Reader, Savestate, SavestateError, Writer};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::Hasher;
use std::sync::Arc;

/// Why a placement attempt found no home. Boxed at the placement
/// boundary so the common `Ok` path does not pay for the failure
/// payload (the job rides along to be re-routed or degraded).
pub(super) struct PlaceFail {
    pub(super) job: EvJob,
    pub(super) any_full: bool,
    pub(super) plan_err: Option<String>,
}

/// The hasher of the signature table, which every arrival probes: each
/// word a key writes is folded through [`mix64`], a bijective
/// full-avalanche mix, in place of SipHash's rounds. Unlike SipHash it
/// has no secret key, so shapes crafted to collide could slow admission
/// down; the keys are the shapes of the jobs the engine's own caller
/// submits. The table is never iterated, so the hash fixes no id.
#[derive(Default)]
pub(super) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = mix64(self.0 ^ word);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

/// An interned shape signature, with what every landing of it reads.
pub(super) struct Signature {
    pub(super) shapes: Arc<[GemmShape]>,
    /// [`ctb_core::operand_bytes`].
    op_bytes: u64,
    /// The device holding the operands: the last one a batch of this
    /// signature landed on (placement or steal). The locality ranking
    /// waives the interposer penalty for it.
    pub(super) holder: Option<usize>,
}

/// What the engine has computed for one signature on one arch class.
#[derive(Default)]
pub(super) struct ClassPrediction {
    /// Predicted µs, corrected by the installed calibration profile, or
    /// the planner's rejection, memoized so a poisoned signature is not
    /// re-planned per device. `None` until first asked, and again after
    /// a profile install.
    pub(super) predicted: Option<Result<f64, String>>,
    /// The raw model µs behind `predicted`, before the correction; kept
    /// for [`PlacementDecision::model_us`](crate::drift::PlacementDecision::model_us).
    pub(super) model_us: Option<f64>,
    /// The true-arch µs under a ground-truth pool, memoized by
    /// `actual_us`.
    pub(super) actual_us: Option<f64>,
}

impl EventCluster {
    /// The dense id of `shapes`, interned on first sight with one empty
    /// [`ClassPrediction`] per arch class and no holder. Admission calls
    /// it once per request, and `restore` once per job and listing entry
    /// it loads.
    pub(super) fn intern(&mut self, shapes: &Arc<[GemmShape]>) -> usize {
        if let Some(&sig) = self.sig_ids.get(&shapes[..]) {
            return sig;
        }
        let sig = self.sigs.len();
        let op_bytes = ctb_core::operand_bytes(shapes);
        self.sigs.push(Signature { shapes: Arc::clone(shapes), op_bytes, holder: None });
        self.sig_ids.insert(Arc::clone(shapes), sig);
        let cells = self.predictions.len() + self.classes.len();
        self.predictions.resize_with(cells, ClassPrediction::default);
        sig
    }

    /// The prediction cell of signature `sig` on arch class `class`.
    pub(super) fn cell(&mut self, sig: usize, class: usize) -> &mut ClassPrediction {
        let classes = self.classes.len();
        &mut self.predictions[sig * classes + class]
    }

    /// Write every signature's holder as `(shapes, device)`, sorted by
    /// shapes, for byte-stable output.
    pub(super) fn save_residency(&self, w: &mut Writer) {
        let mut held: Vec<_> =
            self.sigs.iter().filter_map(|s| Some((&s.shapes, s.holder?))).collect();
        held.sort_unstable();
        w.len_prefix(held.len());
        for (shapes, device) in held {
            shapes.save(w);
            device.save(w);
        }
    }

    /// Read what [`save_residency`](Self::save_residency) wrote,
    /// interning each signature.
    pub(super) fn load_residency(&mut self, r: &mut Reader<'_>) -> Result<(), SavestateError> {
        for (shapes, device) in Vec::<(Arc<[GemmShape]>, usize)>::load(r)? {
            let sig = self.intern(&shapes);
            self.sigs[sig].holder = Some(device);
        }
        Ok(())
    }

    /// Cached predictions include the installed calibration correction,
    /// so a profile install (version bump on the share's `CalibHandle`)
    /// invalidates them all. Read once per placement attempt or steal.
    fn sync_calibration(&mut self) {
        let version = self.share.calib().version();
        if version != self.calib_version {
            self.predictions.iter_mut().for_each(|cell| cell.predicted = None);
            self.calib_version = version;
        }
    }

    /// Memoized prediction for signature `sig` on arch class `class`:
    /// plan through the class session and take the plan's
    /// `predicted_us` (the planner simulated the chosen candidate while
    /// choosing it), corrected by the installed calibration profile and
    /// shared across all devices of the class. The caller has run
    /// [`sync_calibration`](Self::sync_calibration).
    fn predict(&mut self, sig: usize, class: usize) -> Result<f64, String> {
        if let Some(r) = &self.cell(sig, class).predicted {
            return r.clone();
        }
        let shapes = Arc::clone(&self.sigs[sig].shapes);
        let name = self.classes[class].arch().name;
        let r = match self.classes[class].session.plan(&shapes) {
            Ok(plan) => {
                self.cell(sig, class).model_us = Some(plan.predicted_us);
                // Identity state (version 0) returns the model bit-for-bit.
                let features = ctb_core::selector::features(&shapes);
                Ok(self.share.calib().correct(name, plan.predicted_us, &features))
            }
            Err(e) => Err(e),
        };
        self.cell(sig, class).predicted = Some(r.clone());
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

    /// Record `device`'s current backlog in its class heap (lazy
    /// invalidation: older entries for the device go stale by value).
    /// Every backlog change is followed by a touch, so each live device
    /// keeps one valid entry, and a heap past twice its class's devices
    /// drops its stale ones.
    pub(super) fn index_touch(&mut self, device: usize) {
        let class = self.class_of[device];
        let ArchClass { devices, heap, .. } = &mut self.classes[class];
        heap.push(Reverse((self.devices[device].index_key(), device)));
        if heap.len() > 2 * devices.len() {
            self.reindex(class);
        }
    }

    /// Rebuild `class`'s heap to one entry per live device, keyed by its
    /// current backlog: exactly the entries the lazy heap treats as
    /// valid, so every argmin it answers stays the same.
    pub(super) fn reindex(&mut self, class: usize) {
        let ArchClass { devices, heap, .. } = &mut self.classes[class];
        let mut entries = std::mem::take(heap).into_vec();
        entries.clear();
        for &device in devices.iter() {
            let dev = &self.devices[device];
            if dev.alive {
                entries.push(Reverse((dev.index_key(), device)));
            }
        }
        *heap = BinaryHeap::from(entries);
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
        self.sync_calibration();
        let mut plan_err: Option<String> = None;
        let mut best: Option<Candidate> = None;
        for class in 0..self.classes.len() {
            let predicted_us = match self.predict(job.sig, class) {
                Ok(v) => v,
                Err(m) => {
                    plan_err = Some(m);
                    continue;
                }
            };
            // Discard stale heads, then peek the class argmin.
            let heap = &mut self.classes[class].heap;
            let head = loop {
                let Some(&Reverse((key, device))) = heap.peek() else {
                    break None;
                };
                let dev = &self.devices[device];
                if dev.alive && dev.index_key() == key {
                    break Some((key, device));
                }
                heap.pop();
            };
            let Some((key, device)) = head else { continue };
            // `use_index` keeps this path off locality-relevant pools,
            // so the penalty here is identically zero.
            let cand = Candidate {
                device,
                backlog_us: f64::from_bits(key),
                predicted_us,
                penalty_us: 0.0,
            };
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
        match self.land(&c, job) {
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
        self.sync_calibration();
        // One residency snapshot per placement slate, read before any
        // candidate is scored, so every candidate is judged against the
        // same operand home.
        let Signature { op_bytes, holder: resident, .. } = self.sigs[job.sig];
        let mut candidates = Vec::with_capacity(self.devices.len());
        let mut plan_err = None;
        for i in 0..self.devices.len() {
            if Some(i) == exclude || !self.devices[i].alive {
                continue;
            }
            match self.predict(job.sig, self.class_of[i]) {
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
            match self.land(c, job) {
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
    /// one). The bound is checked before the backlog is charged, so a
    /// refused landing leaves the device's backlog bits, and with them
    /// its class-heap entry, exactly as they were.
    fn land(&mut self, c: &Candidate, mut job: EvJob) -> Result<(), EvJob> {
        job.predicted_us = c.predicted_us;
        if self.devices[c.device].queue.len() >= self.cfg.queue_capacity.max(1) {
            return Err(job);
        }
        let sig = job.sig;
        let dev = &mut self.devices[c.device];
        dev.backlog_us += c.predicted_us;
        dev.placements += 1;
        self.enqueue(c.device, job);
        if let Some(o) = self.obs() {
            o.point(PointKind::Routed { device: c.device });
        }
        self.account_residency(c.device, sig);
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
        let topo = &self.arch(device).topology;
        ctb_sim::locality_penalty_us(topo, ctb_sim::remote_operand_bytes(topo, op_bytes))
    }

    /// Residency accounting at a landing (placement or steal): hit when
    /// the batch's operands already live on `device`, otherwise a miss
    /// that charges the remote share of the operand bytes and makes
    /// `device` the signature's holder (last writer wins). Runs under
    /// aware *and* blind policies — the bench arms differ only in
    /// ranking.
    fn account_residency(&mut self, device: usize, sig: usize) {
        let Signature { op_bytes, holder, .. } = self.sigs[sig];
        if holder == Some(device) {
            self.stats.residency_hits += 1;
            if let Some(o) = self.obs() {
                o.point(PointKind::ResidencyHit { device });
            }
            return;
        }
        self.stats.residency_misses += 1;
        let topo = &self.arch(device).topology;
        self.stats.remote_operand_bytes += ctb_sim::remote_operand_bytes(topo, op_bytes);
        if let Some(o) = self.obs() {
            o.point(PointKind::ResidencyMiss { device });
        }
        self.sigs[sig].holder = Some(device);
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
    /// takes it. With no job queued anywhere there is no victim, and the
    /// pool is not scanned.
    fn try_steal(&mut self, thief_idx: usize) -> bool {
        debug_assert_eq!(
            self.queued,
            self.devices.iter().filter(|d| !d.queue.is_empty()).count(),
            "queued-device count out of step with the queues"
        );
        if self.queued == 0 {
            return false;
        }
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
        let Some(sig) = self.devices[victim_idx].queue.front().map(|j| j.sig) else {
            return false;
        };
        self.sync_calibration();
        let Ok(predicted_here) = self.predict(sig, self.class_of[thief_idx]) else {
            return false;
        };
        if !placer::steal_beneficial(
            victim_backlog,
            predicted_here,
            self.cfg.steal.min_victim_backlog_us,
        ) {
            return false;
        }
        let Some(mut job) = self.dequeue(victim_idx) else {
            return false;
        };
        self.devices[victim_idx].backlog_us -= job.predicted_us;
        self.index_touch(victim_idx);
        job.predicted_us = predicted_here;
        job.stolen = true;
        self.devices[thief_idx].backlog_us += predicted_here;
        self.devices[thief_idx].steals += 1;
        if let Some(o) = self.obs() {
            o.point(PointKind::Steal { to: thief_idx, from: victim_idx });
        }
        // A steal moves the operands with the work: the thief becomes
        // the holder.
        self.account_residency(thief_idx, sig);
        self.index_touch(thief_idx);
        self.start_job(thief_idx, job);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::EventConfig;
    use super::*;
    use ctb_gpu_specs::ArchSpec;

    /// A landing refused by a full queue leaves the device's backlog bit
    /// for bit as it was, and with it the device's class-heap entry.
    /// Charging 0.2 onto a backlog of 0.1 and refunding it would leave
    /// 0.10000000000000003.
    #[test]
    fn a_refused_landing_leaves_the_backlog_bits() {
        let cfg = EventConfig { queue_capacity: 1, ..EventConfig::default() };
        let mut eng = EventCluster::new(vec![ArchSpec::maxwell_m60()], cfg);
        let shapes: Arc<[GemmShape]> = Arc::from([GemmShape::new(16, 16, 16)]);
        let sig = eng.intern(&shapes);
        let job = |id| EvJob {
            id,
            shapes: Arc::clone(&shapes),
            sig,
            seed: id,
            predicted_us: 0.0,
            attempts: 0,
            stolen: false,
            witness: false,
        };
        let at = |backlog_us, predicted_us| Candidate {
            device: 0,
            backlog_us,
            predicted_us,
            penalty_us: 0.0,
        };
        assert!(eng.land(&at(0.0, 0.1), job(0)).is_ok(), "the empty queue takes a job");
        assert_eq!(eng.devices[0].backlog_us, 0.1);
        let refused = eng.land(&at(0.1, 0.2), job(1)).expect_err("the full queue refuses");
        assert_eq!(refused.id, 1);
        assert_eq!(eng.devices[0].backlog_us.to_bits(), 0.1f64.to_bits());
        assert_eq!(eng.devices[0].queue.len(), 1);
        let key = eng.devices[0].index_key();
        let heap = &eng.classes[0].heap;
        assert!(heap.iter().any(|&Reverse(entry)| entry == (key, 0)), "entry went stale");
    }
}
