//! The event timeline: typed simulated time, the `(SimTime, seq)`
//! min-heap, and the fixed event vocabulary it orders.

use super::EvJob;
use ctb_savestate::{savestate_enum, Reader, Savestate, SavestateError, Writer};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A typed simulated timestamp, in nanoseconds. Nanosecond granularity
/// keeps distinct exponential inter-arrival draws distinct even at a
/// million requests per simulated second; the [`Obs`](ctb_obs::Obs)
/// clock runs in microseconds, so [`SimTime::as_us`] truncates on the
/// way out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub fn from_us(us: u64) -> Self {
        SimTime(us.saturating_mul(1_000))
    }

    pub fn plus(self, ns: u64) -> Self {
        SimTime(self.0.saturating_add(ns))
    }

    pub fn as_ns(self) -> u64 {
        self.0
    }

    pub fn as_us(self) -> u64 {
        self.0 / 1_000
    }
}

impl Savestate for SimTime {
    fn save(&self, w: &mut Writer) {
        self.0.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        u64::load(r).map(SimTime)
    }
}

struct Entry {
    at: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// The event timeline: a min-heap keyed by `(SimTime, seq)`. The `seq`
/// tie-break is assigned at schedule time, so events scheduled for the
/// same instant pop in schedule order — FIFO among equals, which is
/// what makes the engine's event order (and therefore its trace) a pure
/// function of the inputs.
pub(super) struct Timeline {
    heap: BinaryHeap<Reverse<Entry>>,
    seq: u64,
}

impl Timeline {
    pub(super) fn new() -> Self {
        Timeline { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Schedule `ev` at `at`, after every event already scheduled for
    /// the same instant.
    pub(super) fn schedule(&mut self, at: SimTime, ev: Ev) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, ev }));
    }

    /// Pop the earliest event (ties in schedule order).
    pub(super) fn pop(&mut self) -> Option<(SimTime, Ev)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.ev))
    }

    /// Every pending event, in no particular order.
    pub(super) fn pending(&self) -> impl Iterator<Item = &Ev> {
        self.heap.iter().map(|Reverse(e)| &e.ev)
    }

    /// Apply `f` to the job of every pending arrival and placement. The
    /// `(at, seq)` keys are untouched, so the pop order is too.
    pub(super) fn for_each_job(&mut self, mut f: impl FnMut(&mut EvJob)) {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        for Reverse(e) in &mut entries {
            if let Ev::Arrive { job } | Ev::PlaceDone { job } = &mut e.ev {
                f(job);
            }
        }
        self.heap = BinaryHeap::from(entries);
    }
}

/// The tie-break counter, then the pending entries sorted by
/// `(at, seq)` — pop order, which is also the unique byte-stable order.
/// The restored heap holds the same `(at, seq, ev)` set, so its pop
/// order — and every tie-break the resumed run assigns from `seq`
/// onward — is identical to the original's.
impl Savestate for Timeline {
    fn save(&self, w: &mut Writer) {
        self.seq.save(w);
        let mut entries: Vec<&Entry> = self.heap.iter().map(|Reverse(e)| e).collect();
        entries.sort_unstable_by_key(|e| (e.at, e.seq));
        w.len_prefix(entries.len());
        for e in entries {
            e.at.save(w);
            e.seq.save(w);
            e.ev.save(w);
        }
    }

    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        let seq = u64::load(r)?;
        let entries = r.seq(|r| {
            let e = Entry { at: SimTime::load(r)?, seq: u64::load(r)?, ev: Ev::load(r)? };
            if e.seq >= seq {
                return Err(SavestateError::Corrupt(format!(
                    "timeline entry seq {} not below the tie-break counter {seq}",
                    e.seq
                )));
            }
            Ok(Reverse(e))
        })?;
        Ok(Timeline { heap: BinaryHeap::from(entries), seq })
    }
}

/// The fixed event vocabulary. Queue polling, steal polling, breaker
/// healing and kill drains all map onto one of these six slots.
pub(super) enum Ev {
    /// A request enters the system (admission + placement kickoff).
    Arrive { job: EvJob },
    /// A placement attempt for `job` runs now (initial or backoff retry).
    PlaceDone { job: EvJob },
    /// The device's currently running job finishes now.
    ExecDone { device: usize },
    /// An idle device looks for a saturated victim to steal from.
    StealCheck { device: usize },
    /// Post-trip healing probe: re-kick a recovered idle device.
    BreakerProbe { device: usize },
    /// Scheduled device failure (chaos schedules).
    DeviceKill { device: usize },
}

savestate_enum!(Ev {
    0 => Arrive { job },
    1 => PlaceDone { job },
    2 => ExecDone { device },
    3 => StealCheck { device },
    4 => BreakerProbe { device },
    5 => DeviceKill { device },
});
