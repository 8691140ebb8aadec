//! Cache-admission gating for the shared plan cache.
//!
//! A 10^6-distinct-shape storm would blow an unbounded exact plan map
//! to millions of entries, most of them one-shot shapes that are never
//! looked up again. Following the Stream-K++ observation that cheap
//! probabilistic membership state beats unbounded exact maps for
//! kernel-selection caches, insertion into a bounded
//! [`PlanShare`](crate::PlanShare) can be gated by a "seen twice" doorkeeper: a key
//! is admitted only on its *second* sighting, so one-shot shapes never
//! displace resident hot plans.
//!
//! The doorkeeper here is the tagged variant of the classic two-hash
//! Bloom filter gate: instead of setting anonymous bits, each of the
//! two seeded probe positions stores the key's full 64-bit tag. Because
//! the tag mix is a bijection on `u64`, a tag match *is* a key match —
//! the gate never reports a false "seen twice" (the property the
//! admission proptests pin down). Slot eviction when both probe
//! positions are taken only ever causes false *negatives* ("not seen
//! yet"), which is the conservative direction: a hot key may pay one
//! extra miss, but the cache is never polluted by a key that was not
//! genuinely seen before.

use crate::hash::mix64;
use ctb_savestate::{savestate_enum, Reader, Savestate, SavestateError, Writer};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// How [`crate::PlanShare`] decides whether a freshly planned key may
/// enter the plan cache.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Every planned key is cached (the default; preserves the exact
    /// `misses == distinct signatures` accounting the determinism
    /// suites pin down).
    #[default]
    AdmitAll,
    /// A key is cached only on its second sighting, tracked by a seeded
    /// two-probe [`BloomGate`] with `1 << slots_log2` tag slots.
    SeenTwice { seed: u64, slots_log2: u32 },
}

savestate_enum!(AdmissionPolicy {
    0 => AdmitAll,
    1 => SeenTwice { seed, slots_log2 },
});

/// Admission counters exposed through `PlanShare::admission_stats` and
/// `ServeStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Insert attempts the gate let into the cache.
    pub admitted: usize,
    /// Insert attempts the gate turned away (first sightings).
    pub denied: usize,
    /// Doorkeeper tag slots overwritten because both probe positions
    /// were occupied by other keys (each one is a potential future
    /// false negative, never a false positive).
    pub evicted_tags: usize,
}

/// Seeded two-probe tagged doorkeeper. See the module docs for the
/// guarantee structure. All operations are lock-free; racing observers
/// of *different* keys can at worst lose a recording (a false
/// negative), never fabricate a sighting.
pub struct BloomGate {
    seed: u64,
    mask: u64,
    slots: Vec<AtomicU64>,
    evicted: AtomicUsize,
}

impl BloomGate {
    /// A gate with `1 << slots_log2` tag slots (clamped to `2^1..=2^28`).
    pub fn new(seed: u64, slots_log2: u32) -> Self {
        let log2 = slots_log2.clamp(1, 28);
        let n = 1usize << log2;
        BloomGate {
            seed,
            mask: (n as u64) - 1,
            slots: (0..n).map(|_| AtomicU64::new(0)).collect(),
            evicted: AtomicUsize::new(0),
        }
    }

    /// Tag for `key_hash`: seeded bijective mix, with 0 reserved as the
    /// empty-slot sentinel.
    #[inline]
    fn tag(&self, key_hash: u64) -> u64 {
        let t = mix64(self.seed ^ key_hash);
        if t == 0 {
            1
        } else {
            t
        }
    }

    /// Record a sighting of `key_hash`. Returns `true` when the gate
    /// already held this key's tag — i.e. this is (at least) the second
    /// sighting and the key should be admitted.
    pub fn observe(&self, key_hash: u64) -> bool {
        let tag = self.tag(key_hash);
        let ix = mix64(tag);
        let i1 = (ix & self.mask) as usize;
        let i2 = ((ix >> 32) & self.mask) as usize;
        let s1 = self.slots[i1].load(Ordering::Relaxed);
        if s1 == tag {
            return true;
        }
        let s2 = self.slots[i2].load(Ordering::Relaxed);
        if s2 == tag {
            return true;
        }
        // First sighting: record the tag, preferring an empty probe
        // position; evict deterministically (by a tag bit) when both
        // are taken.
        if s1 == 0 {
            self.slots[i1].store(tag, Ordering::Relaxed);
        } else if s2 == 0 {
            self.slots[i2].store(tag, Ordering::Relaxed);
        } else {
            let victim = if tag & 1 == 0 { i1 } else { i2 };
            self.slots[victim].store(tag, Ordering::Relaxed);
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        false
    }

    /// Whether the gate currently holds `key_hash`'s tag, without
    /// recording a sighting.
    pub fn contains(&self, key_hash: u64) -> bool {
        let tag = self.tag(key_hash);
        let ix = mix64(tag);
        let i1 = (ix & self.mask) as usize;
        let i2 = ((ix >> 32) & self.mask) as usize;
        self.slots[i1].load(Ordering::Relaxed) == tag
            || self.slots[i2].load(Ordering::Relaxed) == tag
    }

    /// Number of tag slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Slots overwritten while occupied (future false negatives).
    pub fn evicted_tags(&self) -> usize {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Serialize seed, slot array and eviction counter. The slot array
    /// is written in index order, so save → load → save is
    /// byte-identical.
    pub fn save(&self, w: &mut Writer) {
        self.seed.save(w);
        w.len_prefix(self.slots.len());
        for s in &self.slots {
            s.load(Ordering::Relaxed).save(w);
        }
        self.evicted_tags().save(w);
    }

    /// Restore state written by [`BloomGate::save`] into this gate. The
    /// blob must describe a gate of the same geometry (seed and slot
    /// count) — anything else is a typed `Mismatch`.
    pub fn load(&self, r: &mut Reader<'_>) -> Result<(), SavestateError> {
        let seed = u64::load(r)?;
        if seed != self.seed {
            return Err(SavestateError::Mismatch(format!(
                "bloom gate seed {seed:#x} does not match configured {:#x}",
                self.seed
            )));
        }
        let slots = Vec::<u64>::load(r)?;
        if slots.len() != self.slots.len() {
            return Err(SavestateError::Mismatch(format!(
                "bloom gate has {} slots, blob has {}",
                self.slots.len(),
                slots.len()
            )));
        }
        for (dst, v) in self.slots.iter().zip(slots) {
            dst.store(v, Ordering::Relaxed);
        }
        self.evicted.store(usize::load(r)?, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_sighting_is_seen_first_is_not() {
        let g = BloomGate::new(42, 8);
        for key in [0u64, 1, 7, 0xDEAD_BEEF, u64::MAX] {
            assert!(!g.observe(key), "first sighting of {key:#x} must not be 'seen'");
            assert!(g.observe(key), "second sighting of {key:#x} must be 'seen'");
            assert!(g.contains(key));
        }
    }

    #[test]
    fn distinct_keys_never_alias_to_a_false_seen() {
        // 4 slots with 64 distinct keys: massive slot pressure, lots of
        // tag evictions — but a key never reads as seen before its own
        // second sighting (tags are exact, eviction only forgets).
        let g = BloomGate::new(7, 2);
        for key in 0..64u64 {
            assert!(!g.observe(key), "key {key} falsely reported seen");
        }
        assert!(g.evicted_tags() > 0, "pressure this high must evict");
    }

    #[test]
    fn eviction_causes_false_negatives_not_false_positives() {
        let g = BloomGate::new(3, 1); // 2 slots
        assert!(!g.observe(10));
        // Flood the gate so key 10's tag is (very likely) evicted.
        for key in 100..130u64 {
            g.observe(key);
        }
        // Whatever happened, the *next* observe of 10 answers either
        // "seen" (tag survived — a true positive) or "not seen" (tag
        // evicted — a false negative). Both are allowed; a sighting of
        // a never-observed key claiming "seen" is not.
        assert!(!g.observe(9999), "never-observed key cannot be seen");
    }

    #[test]
    fn seeds_change_the_probe_layout() {
        let a = BloomGate::new(1, 4);
        let b = BloomGate::new(2, 4);
        a.observe(5);
        b.observe(5);
        // Same key, different seeds: both gates hold it...
        assert!(a.contains(5));
        assert!(b.contains(5));
        // ...but the raw slot contents differ (seed enters the tag).
        let dump = |g: &BloomGate| {
            g.slots.iter().map(|s| s.load(Ordering::Relaxed)).collect::<Vec<_>>()
        };
        assert_ne!(dump(&a), dump(&b));
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let g = BloomGate::new(99, 6);
        for key in 0..200u64 {
            g.observe(key * 3);
        }
        let mut w = ctb_savestate::Writer::new();
        g.save(&mut w);
        let bytes = w.into_bytes();

        let fresh = BloomGate::new(99, 6);
        let mut r = ctb_savestate::Reader::new(&bytes);
        fresh.load(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(fresh.evicted_tags(), g.evicted_tags());

        let mut w2 = ctb_savestate::Writer::new();
        fresh.save(&mut w2);
        assert_eq!(w2.into_bytes(), bytes, "save→load→save byte-identical");
    }

    #[test]
    fn restore_rejects_wrong_geometry_with_typed_mismatch() {
        let g = BloomGate::new(99, 6);
        let mut w = ctb_savestate::Writer::new();
        g.save(&mut w);
        let bytes = w.into_bytes();

        let wrong_seed = BloomGate::new(98, 6);
        let err = wrong_seed.load(&mut ctb_savestate::Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, ctb_savestate::SavestateError::Mismatch(_)));

        let wrong_size = BloomGate::new(99, 5);
        let err = wrong_size.load(&mut ctb_savestate::Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, ctb_savestate::SavestateError::Mismatch(_)));
    }

    #[test]
    fn slot_log2_is_clamped() {
        assert_eq!(BloomGate::new(0, 0).slot_count(), 2);
        assert_eq!(BloomGate::new(0, 63).slot_count(), 1 << 28);
    }
}
