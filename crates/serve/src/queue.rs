//! Bounded MPSC queue with blocking backpressure: the server's
//! admission queue and its batch job queue.
//!
//! `std::sync::mpsc` channels are unbounded, so admission control is
//! built directly on a `Mutex<VecDeque>` + two condvars: producers block
//! in [`BoundedQueue::push`] while the queue is at capacity (that *is*
//! the backpressure contract — an accepted request is never dropped),
//! and the single consumer parks in [`BoundedQueue::pop`] until work or
//! close arrives.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

struct State<T> {
    q: VecDeque<T>,
    closed: bool,
}

/// A deadline-bounded pop ran out of time while the queue stayed empty
/// (and open) — distinct from `Ok(None)`, which means closed + drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopTimedOut;

/// What a push attempt observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// Non-blocking push found the queue at capacity.
    Full,
    /// The queue no longer accepts items.
    Closed,
}

pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State { q: VecDeque::new(), closed: false }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocking push: waits while the queue is at capacity. Fails only
    /// when the queue is closed (before or during the wait).
    pub fn push(&self, item: T) -> Result<(), PushError> {
        let mut st = self.lock();
        loop {
            if st.closed {
                return Err(PushError::Closed);
            }
            if st.q.len() < self.capacity {
                st.q.push_back(item);
                drop(st);
                self.not_empty.notify_one();
                return Ok(());
            }
            st = self.not_full.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Non-blocking push. On failure the item is handed back so the
    /// caller can route it elsewhere (the serving layer's no-drop
    /// guarantee depends on this: a retry re-pushed against a closed
    /// queue must still be resolvable inline).
    ///
    /// Saturation is checked *before* the closed flag, as in
    /// [`BoundedQueue::try_push_many`]: a push that finds the queue at
    /// capacity reports `Full` even when a `close` raced in just ahead
    /// of it, and `Closed` only when a slot would otherwise have been
    /// free.
    pub fn try_push(&self, item: T) -> Result<(), (PushError, T)> {
        let mut st = self.lock();
        if st.q.len() >= self.capacity {
            return Err((PushError::Full, item));
        }
        if st.closed {
            return Err((PushError::Closed, item));
        }
        st.q.push_back(item);
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Submission batching: move items from the front of `buf` into the
    /// queue while there is capacity, under a single lock acquisition.
    /// Returns how many were pushed plus the blocker that stopped the
    /// flush (`None` when `buf` was fully drained, even when its last
    /// item took the last free slot). Same error priority as
    /// [`BoundedQueue::try_push`]: `Full` when the queue is at capacity
    /// (even if also closed), `Closed` otherwise.
    pub fn try_push_many(&self, buf: &mut VecDeque<T>) -> (usize, Option<PushError>) {
        if buf.is_empty() {
            return (0, None);
        }
        let mut pushed = 0usize;
        let mut st = self.lock();
        // Emptiness is checked before capacity: a flush that fills the
        // queue exactly left nothing blocked, so it reports no `Full`.
        let blocker = loop {
            if buf.is_empty() {
                break None;
            }
            if st.q.len() >= self.capacity {
                break Some(PushError::Full);
            }
            if st.closed {
                break Some(PushError::Closed);
            }
            st.q.extend(buf.pop_front());
            pushed += 1;
        };
        drop(st);
        if pushed > 0 {
            self.not_empty.notify_all();
        }
        (pushed, blocker)
    }

    /// Blocking pop: `None` only when the queue is closed *and* fully
    /// drained — a consumer that loops on this sees every item ever
    /// accepted, which is what the serving layer's drain guarantee
    /// rests on.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.lock();
        loop {
            if let Some(item) = st.q.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Pop, waiting at most until `deadline`. `Ok(None)` means closed
    /// and drained; `Err(PopTimedOut)` means the deadline passed while
    /// the queue stayed empty (and open).
    pub fn pop_until(&self, deadline: Instant) -> Result<Option<T>, PopTimedOut> {
        let mut st = self.lock();
        loop {
            if let Some(item) = st.q.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Ok(Some(item));
            }
            if st.closed {
                return Ok(None);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(PopTimedOut);
            }
            let (guard, _timeout) =
                self.not_empty.wait_timeout(st, deadline - now).unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Stop accepting items and wake every waiter. Items already queued
    /// remain poppable.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    pub fn len(&self) -> usize {
        self.lock().q.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn try_push_observes_capacity_and_returns_the_item() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err((PushError::Full, 3)));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_rejects_pushes_but_drains_pops() {
        let q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(PushError::Closed));
        assert_eq!(q.try_push(3), Err((PushError::Closed, 3)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None, "closed + drained");
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let q = BoundedQueue::new(0);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2), Err((PushError::Full, 2)));
    }

    #[test]
    fn blocked_push_completes_once_space_frees() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push(2));
        // Give the pusher time to block, then free a slot.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop(), Some(1));
        pusher.join().unwrap().expect("push succeeds after pop");
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn blocked_push_unblocks_on_close() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(1).unwrap();
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || q2.push(2));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(pusher.join().unwrap(), Err(PushError::Closed));
        // The item accepted before the close is still there.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn closed_full_queue_reports_full_not_closed() {
        // A close racing in ahead of a try_push against a saturated
        // queue still reports Full: capacity wins over the closed flag.
        let q = BoundedQueue::new(1);
        q.push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err((PushError::Full, 2)), "Full wins over the close");
        // Once the close is observable through a free slot, Closed is
        // the right answer again.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(2), Err((PushError::Closed, 2)));
    }

    #[test]
    fn try_push_many_flushes_under_one_lock() {
        let q = BoundedQueue::new(3);
        let mut buf: VecDeque<i32> = (1..=2).collect();
        assert_eq!(q.try_push_many(&mut buf), (2, None), "buffer fits: fully drained");
        assert!(buf.is_empty());

        let mut buf: VecDeque<i32> = (3..=6).collect();
        assert_eq!(q.try_push_many(&mut buf), (1, Some(PushError::Full)), "stops at capacity");
        assert_eq!(buf, VecDeque::from(vec![4, 5, 6]), "unpushed tail stays buffered in order");
        assert_eq!(q.len(), 3);

        // Exact fill: the last buffered item takes the last free slot,
        // so nothing is left blocked.
        let exact = BoundedQueue::new(2);
        exact.try_push(0).unwrap();
        let mut one: VecDeque<i32> = VecDeque::from(vec![1]);
        assert_eq!(exact.try_push_many(&mut one), (1, None), "exact fill drains the buffer");
        assert!(one.is_empty());

        q.close();
        assert_eq!(q.try_push_many(&mut buf), (0, Some(PushError::Full)), "full wins over closed");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(
            q.try_push_many(&mut buf),
            (0, Some(PushError::Closed)),
            "closed with free slots"
        );
        assert_eq!(buf.len(), 3, "nothing lost on a closed queue");
        // FIFO across the flushes: 1 popped above, 2 and 3 remain.
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));

        let mut empty: VecDeque<i32> = VecDeque::new();
        assert_eq!(q.try_push_many(&mut empty), (0, None), "empty buffer is a no-op");
    }

    #[test]
    fn pop_until_times_out_when_idle() {
        let q: BoundedQueue<i32> = BoundedQueue::new(1);
        let deadline = Instant::now() + Duration::from_millis(5);
        assert_eq!(q.pop_until(deadline), Err(PopTimedOut));
    }
}

#[cfg(test)]
mod invariant_props {
    //! Property suite: arbitrary push/pop/close interleavings never
    //! lose an item, never duplicate one, never exceed capacity, and
    //! preserve FIFO order. Driven against a plain `VecDeque` model for
    //! the sequential script, plus a real two-thread interleaving for
    //! the concurrent lose/duplicate check.

    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// One scripted operation: 0/1 = try_push / blockable pop variants,
    /// 2 = close. Encoded as small ints so the strategy stays simple.
    fn apply_script(cap: usize, ops: &[u32]) {
        let q: BoundedQueue<u64> = BoundedQueue::new(cap);
        let cap = cap.max(1); // mirrors the constructor's clamp
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut closed = false;
        let mut next_id: u64 = 0;
        for &op in ops {
            match op % 3 {
                0 => {
                    let r = q.try_push(next_id);
                    // Full is checked before Closed, even after a close.
                    if model.len() >= cap {
                        prop_assert_eq!(r, Err((PushError::Full, next_id)));
                    } else if closed {
                        prop_assert_eq!(r, Err((PushError::Closed, next_id)));
                    } else {
                        prop_assert_eq!(r, Ok(()));
                        model.push_back(next_id);
                    }
                    next_id += 1;
                }
                1 => {
                    // Non-blocking pop via an already-expired deadline.
                    let r = q.pop_until(Instant::now());
                    match (model.pop_front(), closed) {
                        (Some(want), _) => prop_assert_eq!(r, Ok(Some(want)), "FIFO order"),
                        (None, true) => prop_assert_eq!(r, Ok(None), "closed + drained"),
                        (None, false) => prop_assert_eq!(r, Err(PopTimedOut), "empty, still open"),
                    }
                }
                _ => {
                    q.close();
                    closed = true;
                }
            }
            prop_assert_eq!(q.len(), model.len());
            prop_assert!(q.len() <= cap, "capacity exceeded");
        }
        // Drain: everything the model still holds comes out, in order,
        // exactly once.
        q.close();
        let mut drained = Vec::new();
        while let Some(v) = q.pop() {
            drained.push(v);
        }
        prop_assert_eq!(drained, model.into_iter().collect::<Vec<_>>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn scripted_interleavings_match_the_model(
            cap in 0usize..=5,
            ops in collection::vec(0u32..3, 1..=60),
        ) {
            apply_script(cap, &ops);
        }

        #[test]
        fn concurrent_depth_never_exceeds_capacity(
            cap in 1usize..=4,
            per_producer in 1usize..=40,
        ) {
            // Two blocking producers and one consumer hammer the queue
            // while a sampler thread continuously observes the depth;
            // every observation must respect the constructor's bound.
            let q: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::new(cap));
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let sampler = {
                let q = Arc::clone(&q);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut max_seen = 0usize;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        max_seen = max_seen.max(q.len());
                        std::hint::spin_loop();
                    }
                    max_seen
                })
            };
            let producers: Vec<_> = (0..2u64)
                .map(|t| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        for i in 0..per_producer as u64 {
                            q.push(t * 1_000_000 + i).expect("queue stays open");
                        }
                    })
                })
                .collect();
            let consumer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = 0usize;
                    while let Some(_v) = q.pop() {
                        got += 1;
                    }
                    got
                })
            };
            for p in producers {
                p.join().unwrap();
            }
            q.close();
            let got = consumer.join().unwrap();
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            let max_seen = sampler.join().unwrap();
            prop_assert_eq!(got, 2 * per_producer, "every accepted item drained");
            prop_assert!(max_seen <= cap, "observed depth {} exceeds capacity {}", max_seen, cap);
        }

        #[test]
        fn concurrent_producers_never_lose_or_duplicate(
            cap in 1usize..=3,
            per_producer in 1usize..=25,
            close_after_ms in 0u64..=3,
        ) {
            let q: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::new(cap));
            let producers: Vec<_> = (0..2u64)
                .map(|t| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || {
                        let mut accepted = Vec::new();
                        for i in 0..per_producer as u64 {
                            let id = t * 1_000_000 + i;
                            match q.push(id) {
                                Ok(()) => accepted.push(id),
                                Err(PushError::Closed) => break,
                                Err(PushError::Full) => unreachable!("blocking push"),
                            }
                        }
                        accepted
                    })
                })
                .collect();
            let consumer = {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            };
            std::thread::sleep(Duration::from_millis(close_after_ms));
            q.close();
            let mut accepted: Vec<u64> =
                producers.into_iter().flat_map(|p| p.join().unwrap()).collect();
            let mut got = consumer.join().unwrap();
            // Per-producer FIFO order is preserved in the popped stream.
            for t in 0..2u64 {
                let sub: Vec<u64> =
                    got.iter().copied().filter(|v| v / 1_000_000 == t).collect();
                let mut expect: Vec<u64> =
                    accepted.iter().copied().filter(|v| v / 1_000_000 == t).collect();
                expect.sort_unstable();
                prop_assert_eq!(sub, expect, "per-producer FIFO");
            }
            // Exactly the accepted multiset comes out: no loss, no dup.
            accepted.sort_unstable();
            got.sort_unstable();
            prop_assert_eq!(got, accepted);
        }
    }
}
