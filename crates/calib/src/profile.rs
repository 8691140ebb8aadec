//! The versioned, installable calibration artifact.
//!
//! A [`CalibProfile`] bundles what one offline calibration pass
//! produced — the per-arch [`CorrectionSet`] and, when the retrainer
//! ran, the retrained selector forest — plus provenance counters. It
//! serializes through ctb-savestate's codec (`CTBS` magic + format
//! version, then a profile tag and [`PROFILE_VERSION`]):
//!
//! * decoding never panics — malformed bytes surface as typed
//!   [`SavestateError`]s, and a profile written by a *newer* build is
//!   rejected with `UnsupportedVersion` instead of misread;
//! * the byte layout is canonical — corrections are name-sorted and the
//!   forest text codec is deterministic, so save → load → save is
//!   byte-identical (pinned by `round_trip_is_byte_stable`).
//!
//! Installing a profile ([`CalibProfile::install`]) swaps it into a
//! share's [`CalibHandle`] atomically; in-flight planners finish on
//! their snapshot, new decisions see the new epoch.

use ctb_core::hotswap::CalibHandle;
use ctb_core::selector::OnlineSelector;
use ctb_forest::RandomForest;
use ctb_savestate::{savestate_struct, Reader, Savestate, SavestateError, Writer};
use ctb_sim::CorrectionSet;
use std::sync::Arc;

/// Section tag distinguishing a profile blob from other `CTBS` blobs.
const PROFILE_TAG: &str = "ctb-calib/profile";

/// Version of the profile payload layout. Bump on any change; readers
/// reject newer payloads with a typed error.
pub const PROFILE_VERSION: u32 = 1;

/// Provenance of one calibration pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileMeta {
    /// Recorded decisions the corrections were fit against.
    pub source_decisions: u64,
    /// Trace-labeled cases the selector was retrained on (0 when the
    /// profile carries no forest).
    pub trained_cases: u64,
    /// Seed of the drift pool the recording ran under (0 outside
    /// synthetic-drift studies).
    pub drift_seed: u64,
}

savestate_struct!(ProfileMeta { source_decisions, trained_cases, drift_seed });

/// Corrections + optional retrained selector forest, as shipped to a
/// running fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibProfile {
    pub corrections: CorrectionSet,
    /// Retrained §5 selector; `None` leaves installed sessions on their
    /// best-of-both fallback.
    pub selector_forest: Option<RandomForest>,
    pub meta: ProfileMeta,
}

savestate_struct!(CalibProfile { meta, corrections, selector_forest });

impl CalibProfile {
    /// Serialize to the canonical byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_header();
        PROFILE_TAG.save(&mut w);
        PROFILE_VERSION.save(&mut w);
        self.save(&mut w);
        w.into_bytes()
    }

    /// Decode a profile; every failure is a typed [`SavestateError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<CalibProfile, SavestateError> {
        let (mut r, _container_version) = Reader::with_header(bytes)?;
        let tag = String::load(&mut r)?;
        if tag != PROFILE_TAG {
            return Err(SavestateError::Mismatch(format!(
                "blob tagged '{tag}', expected a '{PROFILE_TAG}' blob"
            )));
        }
        let version = u32::load(&mut r)?;
        if version > PROFILE_VERSION {
            return Err(SavestateError::UnsupportedVersion {
                found: version,
                supported: PROFILE_VERSION,
            });
        }
        let profile = CalibProfile::load(&mut r)?;
        r.expect_end()?;
        Ok(profile)
    }

    /// Atomically install this profile into `handle`; returns the new
    /// calibration version. In-flight readers keep their snapshot.
    pub fn install(&self, handle: &CalibHandle) -> u64 {
        handle.install(
            Arc::new(self.corrections.clone()),
            self.selector_forest
                .clone()
                .map(|f| Arc::new(OnlineSelector::from_forest(f))),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_gpu_specs::{ArchSpec, Thresholds};
    use ctb_matrix::gen;
    use ctb_sim::CostCorrection;

    fn sample_profile(with_forest: bool) -> CalibProfile {
        let mut corrections = CorrectionSet::identity();
        corrections.insert("Tesla V100", CostCorrection { coeffs: [0.5, 1.2, 0.0, 0.01, 0.0, -0.25] });
        corrections.insert("A100", CostCorrection { coeffs: [1.0, 0.9, 0.001, 0.0, 0.0, 0.0] });
        let selector_forest = with_forest.then(|| {
            let arch = ArchSpec::volta_v100();
            let th = Thresholds::for_arch(&arch);
            OnlineSelector::train(&arch, &th, &gen::random_cases(24, 5)).forest().clone()
        });
        CalibProfile {
            corrections,
            selector_forest,
            meta: ProfileMeta { source_decisions: 1234, trained_cases: 24, drift_seed: 7 },
        }
    }

    #[test]
    fn round_trip_is_byte_stable() {
        for with_forest in [false, true] {
            let p = sample_profile(with_forest);
            let bytes = p.to_bytes();
            let back = CalibProfile::from_bytes(&bytes).expect("decodes");
            assert_eq!(back, p);
            assert_eq!(back.to_bytes(), bytes, "save -> load -> save is byte-identical");
        }
    }

    #[test]
    fn truncation_is_a_typed_corrupt_error() {
        let bytes = sample_profile(true).to_bytes();
        for cut in 0..bytes.len() {
            match CalibProfile::from_bytes(&bytes[..cut]) {
                Err(SavestateError::Corrupt(_)) => {}
                other => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn newer_profile_version_is_rejected() {
        let mut w = Writer::with_header();
        "ctb-calib/profile".save(&mut w);
        (PROFILE_VERSION + 1).save(&mut w);
        match CalibProfile::from_bytes(&w.into_bytes()) {
            Err(SavestateError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, PROFILE_VERSION + 1);
                assert_eq!(supported, PROFILE_VERSION);
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn foreign_tag_is_a_mismatch() {
        let mut w = Writer::with_header();
        "ctb-cluster/checkpoint".save(&mut w);
        match CalibProfile::from_bytes(&w.into_bytes()) {
            Err(SavestateError::Mismatch(_)) => {}
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn install_bumps_the_handle_and_carries_the_selector() {
        let p = sample_profile(true);
        let handle = CalibHandle::new();
        assert_eq!(p.install(&handle), 1);
        let snap = handle.snapshot();
        assert_eq!(snap.version, 1);
        assert!(snap.selector.is_some());
        assert!((handle.correct("A100", 100.0, &[0.0; 4]) - 91.0).abs() < 1e-9);
        // A correction-only profile replaces the selector with None.
        assert_eq!(sample_profile(false).install(&handle), 2);
        assert!(handle.snapshot().selector.is_none());
    }
}
