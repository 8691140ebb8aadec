//! Execution-timeline capture: per-block scheduling events from the
//! slot scheduler, plus utilisation summaries and a text renderer.
//!
//! The timeline answers "where did the time go" questions the aggregate
//! report cannot: wave structure, slot imbalance, straggler blocks. It
//! runs the slot scheduler of [`crate::engine::simulate_kernel`], so
//! the makespan matches the report exactly.

use crate::cost::KernelDesc;
use crate::engine::schedule;
use ctb_gpu_specs::{occupancy, ArchSpec};

/// One scheduled block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockEvent {
    /// Index in the kernel's grid (dispatch order).
    pub block: usize,
    /// Residency slot (SM × slot-within-SM).
    pub slot: usize,
    /// Start time in cycles.
    pub start: f64,
    /// End time in cycles.
    pub end: f64,
    /// Whether this is a bubble block.
    pub bubble: bool,
}

/// The full timeline of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    pub kernel: String,
    pub slots: usize,
    pub makespan: f64,
    pub events: Vec<BlockEvent>,
}

impl Timeline {
    /// Fraction of slot-time spent running blocks (1 = perfectly
    /// balanced, no tail).
    pub fn slot_utilisation(&self) -> f64 {
        if self.makespan <= 0.0 || self.slots == 0 {
            return 0.0;
        }
        let busy: f64 = self.events.iter().map(|e| e.end - e.start).sum();
        busy / (self.makespan * self.slots as f64)
    }

    /// Number of scheduling waves observed (max blocks on one slot).
    pub fn waves(&self) -> usize {
        let mut per_slot = std::collections::HashMap::new();
        for e in &self.events {
            *per_slot.entry(e.slot).or_insert(0usize) += 1;
        }
        per_slot.values().copied().max().unwrap_or(0)
    }

    /// The block that finishes last (the makespan-setting straggler).
    pub fn straggler(&self) -> Option<&BlockEvent> {
        self.events.iter().max_by(|a, b| a.end.total_cmp(&b.end))
    }

    /// Render an ASCII Gantt chart of the first `max_slots` slots,
    /// `width` characters wide.
    pub fn render(&self, max_slots: usize, width: usize) -> String {
        let mut out = format!(
            "{}: {} blocks on {} slots, makespan {:.0} cycles, utilisation {:.0}%\n",
            self.kernel,
            self.events.len(),
            self.slots,
            self.makespan,
            100.0 * self.slot_utilisation()
        );
        if self.makespan <= 0.0 {
            return out;
        }
        let scale = width as f64 / self.makespan;
        let shown: Vec<usize> = {
            let mut s: Vec<usize> = self.events.iter().map(|e| e.slot).collect();
            s.sort_unstable();
            s.dedup();
            s.into_iter().take(max_slots).collect()
        };
        for slot in shown {
            let mut row = vec![b'.'; width];
            for e in self.events.iter().filter(|e| e.slot == slot) {
                let a = ((e.start * scale) as usize).min(width.saturating_sub(1));
                let b = ((e.end * scale) as usize).clamp(a + 1, width);
                let ch = if e.bubble { b'o' } else { b'#' };
                for cell in &mut row[a..b] {
                    *cell = ch;
                }
            }
            out.push_str(&format!("slot {slot:>4} |{}|\n", String::from_utf8(row).expect("ascii")));
        }
        out
    }
}

/// Capture the timeline of one kernel (the scheduler of
/// [`crate::engine::simulate_kernel`]).
pub fn capture_timeline(arch: &ArchSpec, kd: &KernelDesc) -> Timeline {
    let occ = occupancy::occupancy(arch, &kd.footprint);
    assert!(occ.blocks_per_sm > 0, "infeasible footprint");
    let mut events = Vec::with_capacity(kd.blocks.len());
    let s = schedule(arch, kd, &occ, |block, slot, start, bt| {
        let bubble = kd.blocks[block].is_bubble();
        events.push(BlockEvent { block, slot, start, end: start + bt.cycles, bubble });
    });
    Timeline { kernel: kd.name.clone(), slots: s.slots, makespan: s.makespan, events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::TilePass;
    use crate::engine::simulate_kernel;
    use ctb_gpu_specs::BlockFootprint;

    fn kernel(blocks: usize, it: u32) -> KernelDesc {
        let pass = TilePass {
            iterations: it,
            fma_per_thread: 128.0,
            ld_shared_per_thread: 16.0,
            ld_global_per_thread: 1.0,
            aux_per_thread: 4.0,
            epilogue_stores: 4.0,
        };
        let mut kd = KernelDesc::new("timeline", BlockFootprint::new(256, 48, 8192));
        for _ in 0..blocks {
            kd.push_block(256, [pass]);
        }
        kd
    }

    #[test]
    fn timeline_makespan_matches_the_report() {
        let arch = ArchSpec::volta_v100();
        for blocks in [1usize, 80, 1000] {
            let kd = kernel(blocks, 16);
            let t = capture_timeline(&arch, &kd);
            let report = simulate_kernel(&arch, &kd);
            assert!((t.makespan - report.cycles).abs() < 1e-6, "{blocks} blocks");
            assert_eq!(t.events.len(), blocks);
        }
    }

    #[test]
    fn events_on_a_slot_never_overlap() {
        let arch = ArchSpec::volta_v100();
        let t = capture_timeline(&arch, &kernel(2000, 4));
        let mut per_slot: std::collections::HashMap<usize, Vec<(f64, f64)>> = Default::default();
        for e in &t.events {
            per_slot.entry(e.slot).or_default().push((e.start, e.end));
        }
        for (slot, mut spans) in per_slot {
            spans.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in spans.windows(2) {
                assert!(w[0].1 <= w[1].0 + 1e-9, "slot {slot} overlaps: {w:?}");
            }
        }
    }

    #[test]
    fn waves_and_utilisation_behave() {
        let arch = ArchSpec::volta_v100();
        // Sub-wave: every block in wave 1, utilisation tied to how many
        // slots are used.
        let sub = capture_timeline(&arch, &kernel(80, 16));
        assert_eq!(sub.waves(), 1);
        // Multi-wave: more blocks per slot, higher utilisation.
        let multi = capture_timeline(&arch, &kernel(3000, 16));
        assert!(multi.waves() >= 2);
        assert!(multi.slot_utilisation() > 0.5);
        assert!(multi.slot_utilisation() <= 1.0 + 1e-9);
    }

    #[test]
    fn render_produces_a_gantt_chart() {
        let arch = ArchSpec::volta_v100();
        let t = capture_timeline(&arch, &kernel(10, 8));
        let text = t.render(4, 40);
        assert!(text.contains("10 blocks"));
        assert!(text.lines().count() >= 2);
        assert!(text.contains('#'));
    }

    #[test]
    fn straggler_is_the_last_finisher() {
        let arch = ArchSpec::volta_v100();
        let t = capture_timeline(&arch, &kernel(200, 8));
        let s = t.straggler().expect("non-empty");
        assert!((s.end - t.makespan).abs() < 1e-9);
    }
}
