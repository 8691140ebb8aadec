//! Per-architecture affine corrections over the analytical model.
//!
//! The block-level simulator in this crate plays the role of silicon, and
//! the analytical cost model (ctb-core's memoized simulation) plays the
//! role of the paper's Eqs 2–4. Both are fit once against synthetic
//! parameters; real deployments drift — clocks throttle, memory buses
//! degrade, launch overheads grow with driver versions. ctb-calib closes
//! that loop offline by fitting a small least-squares correction per
//! [`ArchSpec`](https://docs.rs) name from recorded predicted-vs-actual
//! pairs; this module is the *runtime* half: the correction itself, kept
//! deliberately tiny so every predictor (event engine, serve sessions)
//! can apply it on the hot path.
//!
//! A correction is affine over the feature vector
//!
//! ```text
//! φ(model_us, f) = [1, model_us, f[0], f[1], f[2], f[3]]
//! ```
//!
//! where `f` is ctb-core's selector feature vector `[m̄, n̄, k̄, B]`
//! (mean batch dimensions plus batch size). The identity correction —
//! and, equivalently, a [`CorrectionSet`] with no entry for an arch —
//! returns `model_us` bit-for-bit unchanged, which is what keeps every
//! zero-error / replay / savestate-parity invariant intact until a
//! calibrated profile is explicitly installed.

use ctb_savestate::{Reader, Savestate, SavestateError, Writer};

/// Number of terms in the correction feature vector φ.
pub const PHI_LEN: usize = 6;

/// Build φ from a raw model prediction and the 4-dim selector features.
/// Missing features are treated as zero so a short vector cannot panic.
pub fn phi(model_us: f64, features: &[f64]) -> [f64; PHI_LEN] {
    let f = |i: usize| features.get(i).copied().unwrap_or(0.0);
    [1.0, model_us, f(0), f(1), f(2), f(3)]
}

/// An affine correction `corrected = max(φ · coeffs, floor)` for one
/// architecture. [`CostCorrection::identity`] passes the model through
/// unchanged (coeffs `[0, 1, 0, 0, 0, 0]`).
#[derive(Debug, Clone, PartialEq)]
pub struct CostCorrection {
    pub coeffs: [f64; PHI_LEN],
}

ctb_savestate::savestate_struct!(CostCorrection { coeffs });

/// Corrected predictions are clamped here: a fit extrapolated onto an
/// unseen signature must never produce a zero or negative time (those
/// would corrupt backlog accounting downstream).
pub const MIN_CORRECTED_US: f64 = 1e-3;

impl CostCorrection {
    /// The pass-through correction: `corrected == model_us` exactly.
    pub fn identity() -> Self {
        CostCorrection { coeffs: [0.0, 1.0, 0.0, 0.0, 0.0, 0.0] }
    }

    /// True when applying this correction is a bitwise no-op.
    pub fn is_identity(&self) -> bool {
        self.coeffs == Self::identity().coeffs
    }

    /// Apply the correction to a raw model prediction.
    ///
    /// The identity correction short-circuits so it is bit-exact even
    /// where `0.0 * x + 1.0 * model` could round differently.
    pub fn apply(&self, model_us: f64, features: &[f64]) -> f64 {
        if self.is_identity() {
            return model_us;
        }
        let phi = phi(model_us, features);
        let mut out = 0.0;
        for (c, p) in self.coeffs.iter().zip(phi.iter()) {
            out += c * p;
        }
        out.max(MIN_CORRECTED_US)
    }
}

/// Corrections for a pool of architectures, keyed by `ArchSpec::name`.
///
/// Kept as a name-sorted `Vec` rather than a map: the set is tiny (one
/// entry per device class), lookups are a binary search, and the sorted
/// order gives the serialized profile a canonical byte layout.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CorrectionSet {
    entries: Vec<(String, CostCorrection)>,
}

/// The name-sorted entries, laid out as a `Vec<(String, CostCorrection)>`.
/// Loading re-inserts every entry, so the set stays sorted and
/// duplicate-free whatever order the blob lists them in.
impl Savestate for CorrectionSet {
    fn save(&self, w: &mut Writer) {
        self.entries.save(w);
    }
    fn load(r: &mut Reader<'_>) -> Result<Self, SavestateError> {
        let mut set = CorrectionSet::identity();
        for (arch, c) in Vec::<(String, CostCorrection)>::load(r)? {
            set.insert(&arch, c);
        }
        Ok(set)
    }
}

impl CorrectionSet {
    /// The empty set: every arch passes through uncorrected.
    pub fn identity() -> Self {
        CorrectionSet::default()
    }

    /// Insert (or replace) the correction for `arch`.
    pub fn insert(&mut self, arch: &str, correction: CostCorrection) {
        match self.entries.binary_search_by(|(n, _)| n.as_str().cmp(arch)) {
            Ok(i) => self.entries[i].1 = correction,
            Err(i) => self.entries.insert(i, (arch.to_string(), correction)),
        }
    }

    /// The correction registered for `arch`, if any.
    pub fn get(&self, arch: &str) -> Option<&CostCorrection> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(arch))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Correct a raw model prediction for `arch`. Arches without an
    /// entry — and the empty set in particular — return `model_us`
    /// bit-for-bit unchanged.
    pub fn correct(&self, arch: &str, model_us: f64, features: &[f64]) -> f64 {
        match self.get(arch) {
            Some(c) => c.apply(model_us, features),
            None => model_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_correction_is_bitwise_passthrough() {
        let c = CostCorrection::identity();
        for &us in &[0.0, 1e-9, 3.25, 1.0e12, f64::MIN_POSITIVE] {
            assert_eq!(c.apply(us, &[64.0, 64.0, 128.0, 4.0]).to_bits(), us.to_bits());
        }
    }

    #[test]
    fn empty_set_passes_every_arch_through() {
        let s = CorrectionSet::identity();
        assert!(s.is_empty());
        assert_eq!(s.correct("Tesla V100", 17.5, &[1.0, 2.0, 3.0, 4.0]).to_bits(), 17.5f64.to_bits());
    }

    #[test]
    fn affine_correction_applies_and_clamps() {
        let mut s = CorrectionSet::identity();
        s.insert("X", CostCorrection { coeffs: [2.0, 1.5, 0.0, 0.0, 0.0, 0.0] });
        // 2 + 1.5 * 10 = 17
        assert_eq!(s.correct("X", 10.0, &[]), 17.0);
        // other arches untouched
        assert_eq!(s.correct("Y", 10.0, &[]), 10.0);
        // wildly negative fit clamps to the floor instead of going <= 0
        s.insert("Z", CostCorrection { coeffs: [-100.0, 0.0, 0.0, 0.0, 0.0, 0.0] });
        assert_eq!(s.correct("Z", 10.0, &[]), MIN_CORRECTED_US);
    }

    #[test]
    fn insert_keeps_entries_sorted_and_replaces() {
        let mut s = CorrectionSet::identity();
        s.insert("b", CostCorrection::identity());
        s.insert("a", CostCorrection::identity());
        s.insert("c", CostCorrection::identity());
        let names: Vec<&str> = s.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        s.insert("b", CostCorrection { coeffs: [1.0; PHI_LEN] });
        assert_eq!(s.len(), 3);
        assert_eq!(s.get("b").unwrap().coeffs, [1.0; PHI_LEN]);
    }

    #[test]
    fn phi_tolerates_short_feature_vectors() {
        assert_eq!(phi(2.0, &[]), [1.0, 2.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(phi(2.0, &[3.0, 4.0]), [1.0, 2.0, 3.0, 4.0, 0.0, 0.0]);
    }
}
