//! The event timeline: typed simulated time, the `(SimTime, seq)`
//! min-heap with its same-instant FIFO, and the fixed event vocabulary
//! they order.

use super::EvJob;
use ctb_savestate::{savestate_enum, Reader, Savestate, SavestateError, Writer};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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

/// The event timeline, popped in `(SimTime, seq)` order. The `seq`
/// tie-break is assigned at schedule time, so events scheduled for the
/// same instant pop in schedule order — FIFO among equals, which is
/// what makes the engine's event order (and therefore its trace) a pure
/// function of the inputs.
///
/// An event scheduled for the instant last popped — every arrival's
/// `PlaceDone` — joins `fifo` instead of the min-heap. Nothing is
/// scheduled before that instant: the engine schedules its own events
/// at or after its `now`, the public entry points
/// `EventCluster::submit_at` and `EventCluster::kill_at` assert that
/// the time they are given does not precede it, the engine's `step`
/// debug-asserts that popped times never fall, and `restore` refuses a
/// blob with a pending event before its `now`. So every `fifo` entry
/// shares one instant and sits in `seq` order, and `pop` takes the
/// earlier of the two fronts.
pub(super) struct Timeline {
    heap: BinaryHeap<Reverse<Entry>>,
    fifo: VecDeque<Entry>,
    /// The instant last popped: `fifo`'s instant while it holds entries.
    now: SimTime,
    seq: u64,
}

impl Timeline {
    pub(super) fn new() -> Self {
        Timeline { heap: BinaryHeap::new(), fifo: VecDeque::new(), now: SimTime::ZERO, seq: 0 }
    }

    /// Schedule `ev` at `at`, after every event already scheduled for
    /// the same instant. `at` must not precede the instant last popped.
    pub(super) fn schedule(&mut self, at: SimTime, ev: Ev) {
        let e = Entry { at, seq: self.seq, ev };
        self.seq += 1;
        if at == self.now {
            self.fifo.push_back(e);
        } else {
            self.heap.push(Reverse(e));
        }
    }

    /// Pop the earliest event (ties in schedule order).
    pub(super) fn pop(&mut self) -> Option<(SimTime, Ev)> {
        let e = match (self.heap.peek(), self.fifo.front()) {
            (Some(Reverse(h)), Some(f)) if h > f => self.fifo.pop_front(),
            (Some(_), _) => self.heap.pop().map(|Reverse(e)| e),
            (None, _) => self.fifo.pop_front(),
        }?;
        self.now = e.at;
        Some((e.at, e.ev))
    }

    /// Every pending event with its time, in no particular order.
    pub(super) fn pending(&self) -> impl Iterator<Item = (SimTime, &Ev)> {
        self.heap.iter().map(|Reverse(e)| e).chain(&self.fifo).map(|e| (e.at, &e.ev))
    }

    /// Apply `f` to the job of every pending arrival and placement. The
    /// `(at, seq)` keys are untouched, so the pop order is too.
    pub(super) fn for_each_job(&mut self, mut f: impl FnMut(&mut EvJob)) {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        for e in entries.iter_mut().map(|Reverse(e)| e).chain(&mut self.fifo) {
            if let Ev::Arrive { job } | Ev::PlaceDone { job } = &mut e.ev {
                f(job);
            }
        }
        self.heap = BinaryHeap::from(entries);
    }
}

/// The tie-break counter, then the pending entries of the heap and the
/// FIFO together, sorted by `(at, seq)` — pop order, which is also the
/// unique byte-stable order. `load` puts every entry on the heap, which
/// pops the same `(at, seq, ev)` set in the same order, so every
/// tie-break the resumed run assigns from `seq` onward is identical to
/// the original's. The instant last popped is not written: the loaded
/// FIFO is empty, and the first pop sets it.
impl Savestate for Timeline {
    fn save(&self, w: &mut Writer) {
        self.seq.save(w);
        let mut entries: Vec<&Entry> =
            self.heap.iter().map(|Reverse(e)| e).chain(&self.fifo).collect();
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
        Ok(Timeline { heap: BinaryHeap::from(entries), seq, ..Timeline::new() })
    }
}

/// The fixed event vocabulary. Queue polling, steal polling, breaker
/// healing and kill drains all map onto one of these six slots. A job
/// rides boxed, so an `Ev` is 16 bytes and a timeline entry 32; the
/// box an arrival is scheduled with carries the job to its placement.
pub(super) enum Ev {
    /// A request enters the system (admission + placement kickoff).
    Arrive { job: Box<EvJob> },
    /// A placement attempt for `job` runs now (initial or backoff retry).
    PlaceDone { job: Box<EvJob> },
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
