//! The workspace's stable hashes: the SplitMix64 mixers behind every
//! seeded draw (fault rolls, drift factors, load generation) and the
//! cluster's signature-table hasher, and FNV-1a behind every shape
//! fingerprint (memo keys, planning contexts, residency keys). Each is
//! a pure function of its input, so draws and keys are identical across
//! engines, processes and savestate restores.

use ctb_matrix::GemmShape;

/// SplitMix64's golden-ratio state increment.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output finalizer — a bijective full-avalanche mix, so
/// distinct inputs always produce distinct outputs.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// SplitMix64's output for state `x`: the state advanced by
/// [`GOLDEN_GAMMA`], then [`mix64`].
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(GOLDEN_GAMMA))
}

/// FNV-1a's 64-bit offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a over a byte stream, continuing from `seed`.
pub(crate) fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// [`fnv1a`] over every `(m, n, k)` of `shapes` as little-endian `u64`s,
/// in order, continuing from `seed`.
pub(crate) fn fnv1a_shapes(seed: u64, shapes: &[GemmShape]) -> u64 {
    shapes.iter().fold(seed, |h, s| {
        let h = fnv1a(h, &(s.m as u64).to_le_bytes());
        let h = fnv1a(h, &(s.n as u64).to_le_bytes());
        fnv1a(h, &(s.k as u64).to_le_bytes())
    })
}
