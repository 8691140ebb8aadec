//! Online hot-swap seam for calibrated cost models and forests.
//!
//! ctb-calib fits a [`CorrectionSet`] (per-arch analytical-model
//! corrections) and optionally retrains the forest selector from
//! recorded traces. Serving traffic must pick the new profile up
//! *without a restart*: every planner that should react to calibration
//! reads a [`CalibHandle`] owned by its [`PlanShare`](crate::PlanShare).
//!
//! Ownership rules (also documented in DESIGN.md):
//!
//! * The handle owns an `Arc<CalibState>` behind an `RwLock`. Readers
//!   take a [`CalibHandle::snapshot`] — a cheap `Arc` clone — and use
//!   that one immutable state for the whole decision, so a concurrent
//!   [`CalibHandle::install`] can never tear a single prediction.
//! * `install` replaces the whole state and bumps the monotonically
//!   increasing version. Version `0` is the identity state (no
//!   correction entries, no selector): planners treat it as "never
//!   calibrated" and stay bit-for-bit on their uncalibrated paths.
//! * The handle itself is **never serialized**, nor is the share that
//!   owns it. A cluster restore replans the checkpoint's predictions
//!   on a fresh share at version 0; calibration is re-installed by the
//!   operator after restore (the event engine refuses to checkpoint
//!   mid-calibration for exactly this reason).
//! * Old states die when the last in-flight reader drops its snapshot
//!   — swap-under-load frees nothing that is still being read.

use ctb_sim::CorrectionSet;
use parking_lot::RwLock;
use std::sync::Arc;

use crate::selector::OnlineSelector;

/// One immutable calibration epoch: a correction set for the analytical
/// model plus an optional replacement forest selector.
#[derive(Debug)]
pub struct CalibState {
    /// Monotone epoch counter; `0` is the pristine identity state.
    pub version: u64,
    /// Per-arch model corrections (empty = pass-through).
    pub correction: Arc<CorrectionSet>,
    /// Retrained selector for [`BatchingPolicy::BestOfBoth`](crate::BatchingPolicy::BestOfBoth)
    /// sessions; `None` keeps their exhaustive three-candidate choice.
    pub selector: Option<Arc<OnlineSelector>>,
}

impl CalibState {
    fn identity() -> Self {
        CalibState { version: 0, correction: Arc::new(CorrectionSet::identity()), selector: None }
    }
}

/// The `Arc`-swappable calibration handle threaded through
/// [`PlanShare`](crate::PlanShare).
#[derive(Debug)]
pub struct CalibHandle {
    state: RwLock<Arc<CalibState>>,
}

impl Default for CalibHandle {
    fn default() -> Self {
        Self::new()
    }
}

impl CalibHandle {
    /// A handle at the identity state (version 0).
    pub fn new() -> Self {
        CalibHandle { state: RwLock::new(Arc::new(CalibState::identity())) }
    }

    /// The current epoch, as one immutable snapshot. Hold this for the
    /// duration of a decision; do not re-read per field.
    pub fn snapshot(&self) -> Arc<CalibState> {
        Arc::clone(&self.state.read())
    }

    /// Current epoch counter (0 until the first [`install`](Self::install)).
    pub fn version(&self) -> u64 {
        self.state.read().version
    }

    /// Atomically replace the installed profile; returns the new
    /// version. In-flight readers keep their old snapshot.
    pub fn install(
        &self,
        correction: Arc<CorrectionSet>,
        selector: Option<Arc<OnlineSelector>>,
    ) -> u64 {
        let mut guard = self.state.write();
        let version = guard.version + 1;
        *guard = Arc::new(CalibState { version, correction, selector });
        version
    }

    /// Convenience: correct one raw model prediction under the current
    /// epoch. Identity state returns `model_us` bit-for-bit unchanged.
    pub fn correct(&self, arch: &str, model_us: f64, features: &[f64]) -> f64 {
        self.snapshot().correction.correct(arch, model_us, features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_sim::CostCorrection;

    #[test]
    fn identity_handle_is_passthrough_at_version_zero() {
        let h = CalibHandle::new();
        assert_eq!(h.version(), 0);
        assert!(h.snapshot().selector.is_none());
        assert_eq!(
            h.correct("Tesla V100", 42.5, &[1.0, 2.0, 3.0, 4.0]).to_bits(),
            42.5f64.to_bits()
        );
    }

    #[test]
    fn install_bumps_version_and_swaps_state() {
        let h = CalibHandle::new();
        let mut set = CorrectionSet::identity();
        set.insert("X", CostCorrection { coeffs: [1.0, 2.0, 0.0, 0.0, 0.0, 0.0] });
        let v1 = h.install(Arc::new(set), None);
        assert_eq!(v1, 1);
        assert_eq!(h.version(), 1);
        assert_eq!(h.correct("X", 10.0, &[]), 21.0);
        let v2 = h.install(Arc::new(CorrectionSet::identity()), None);
        assert_eq!(v2, 2);
        assert_eq!(h.correct("X", 10.0, &[]), 10.0);
    }

    #[test]
    fn in_flight_snapshot_survives_an_install() {
        let h = CalibHandle::new();
        let old = h.snapshot();
        h.install(Arc::new(CorrectionSet::identity()), None);
        assert_eq!(old.version, 0);
        assert_eq!(h.version(), 1);
    }
}
