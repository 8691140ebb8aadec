//! The online half of the closed loop, proven end to end:
//!
//! * **Swap under load** — a `serve` Server built over a default
//!   (best-of-both) session keeps absorbing concurrent traffic while
//!   calibration profiles are installed mid-flight. Zero requests are dropped and
//!   every payload stays bitwise-identical to the exact reference (and
//!   therefore to a run that never swapped).
//! * **Mid-run install in the event engine** — a default cluster
//!   picks up a freshly installed profile between steps without
//!   disturbing correctness witnesses.
//! * **Record → fit → replay** — the offline pass measurably shrinks
//!   placement error on a deterministic replay of the recorded
//!   workload.

use ctb_calib::{fit_decisions, CalibProfile, GroundTruth, ProfileMeta, TraceDataset};
use ctb_cluster::{EventCluster, EventConfig, LoadGen, ReqOutcome};
use ctb_core::selector::OnlineSelector;
use ctb_core::{Framework, PlanShare, Session};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::{assert_bitwise_eq, GemmBatch, GemmShape};
use ctb_serve::{GemmRequest, ServeConfig, Server, Ticket};
use ctb_sim::{CorrectionSet, CostCorrection};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A server whose best-of-both session picks up installed profiles.
fn swappable_server(cfg: ServeConfig) -> Server {
    let fw = Framework::new(ArchSpec::volta_v100());
    let session = Arc::new(Session::with_share(fw, Arc::new(PlanShare::new())));
    Server::with_session(session, cfg)
}

/// A profile that genuinely changes planning: scaled V100 correction
/// plus the pretrained selector forest, versioned by `epoch` so every
/// install is a distinct calibration epoch.
fn profile(epoch: u64) -> CalibProfile {
    let mut corrections = CorrectionSet::identity();
    let mut coeffs = [0.0; ctb_sim::PHI_LEN];
    coeffs[1] = 1.05 + 0.01 * epoch as f64;
    corrections.insert("Tesla V100", CostCorrection { coeffs });
    CalibProfile {
        corrections,
        selector_forest: Some(OnlineSelector::pretrained_v100().forest().clone()),
        meta: ProfileMeta { source_decisions: epoch, trained_cases: 0, drift_seed: 0 },
    }
}

/// Drive `producers` × `per_producer` concurrent requests through
/// `server`, checking every response bitwise against the exact
/// reference. Returns the number of requests submitted.
fn storm(server: &Server, producers: usize, per_producer: usize) -> usize {
    let shapes: Vec<GemmShape> = (0..per_producer)
        .map(|i| {
            GemmShape::new(16 + 8 * (i % 5), 16 + 8 * ((i + 2) % 5), 32 + 16 * (i % 3))
        })
        .collect();
    std::thread::scope(|scope| {
        for p in 0..producers {
            let shapes = shapes.clone();
            scope.spawn(move || {
                let batch = GemmBatch::random(&shapes, 1.0, 0.0, 41 + p as u64);
                let expected = batch.reference_result_exact();
                let tickets: Vec<Ticket> = (0..shapes.len())
                    .map(|i| {
                        server
                            .submit(GemmRequest {
                                a: batch.a[i].clone(),
                                b: batch.b[i].clone(),
                                c: batch.c[i].clone(),
                                alpha: batch.alpha,
                                beta: batch.beta,
                                deadline: None,
                            })
                            .expect("admitted")
                    })
                    .collect();
                for (i, t) in tickets.into_iter().enumerate() {
                    let got = t.wait().expect("completed");
                    assert_bitwise_eq(
                        std::slice::from_ref(&expected[i]),
                        std::slice::from_ref(&got.c),
                        "served under swap",
                    );
                }
            });
        }
    });
    producers * per_producer
}

#[test]
fn swap_under_load_drops_nothing_and_stays_bitwise_exact() {
    // Baseline: same storm, no swaps — establishes the reference
    // outcome the swapping run must match.
    let baseline = swappable_server(ServeConfig::default());
    let submitted = storm(&baseline, 4, 12);
    let base_stats = baseline.shutdown();
    assert_eq!(base_stats.completed, submitted);
    assert_eq!(base_stats.abandoned + base_stats.rejected + base_stats.expired, 0);

    // Swapping run: a calibrator thread keeps installing new profiles
    // while the same storm is in flight.
    let server = swappable_server(ServeConfig::default());
    let handle = Arc::clone(server.session().share());
    let done = Arc::new(AtomicBool::new(false));
    let swapper = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut epoch = 0u64;
            while !done.load(Ordering::Relaxed) {
                epoch += 1;
                profile(epoch).install(handle.calib());
                std::thread::sleep(Duration::from_millis(1));
            }
            epoch
        })
    };
    let submitted_swap = storm(&server, 4, 12);
    done.store(true, Ordering::Relaxed);
    let swaps = swapper.join().expect("swapper thread");
    let share = Arc::clone(server.session().share());
    let stats = server.shutdown();

    // Zero drop: everything submitted completed, in both runs — and the
    // bitwise assertions inside `storm` already proved every payload
    // identical to the exact reference, hence identical across runs.
    assert_eq!(submitted_swap, submitted);
    assert_eq!(stats.completed, submitted, "swap run dropped requests");
    assert_eq!(stats.abandoned + stats.rejected + stats.expired, 0);
    assert!(swaps >= 1, "at least one profile installed while loaded");
    assert_eq!(share.calib().version(), swaps);
}

#[test]
fn event_engine_picks_up_mid_run_install_without_disturbing_witnesses() {
    let pool = ArchSpec::pool_presets(4);
    let cfg = EventConfig { witness_every: 8, ..EventConfig::default() };
    let mut cluster = EventCluster::new(pool.clone(), cfg);
    cluster.set_ground_truth(GroundTruth::drift(&pool, 7));
    cluster.record_decisions(true);
    cluster.load(LoadGen::table2(3, 4_000.0, 160));

    cluster.run_steps(200);
    let share = Arc::clone(cluster.share());
    assert_eq!(share.calib().version(), 0);
    let v = profile(1).install(share.calib());
    assert_eq!(v, 1);
    let report = cluster.run();

    assert_eq!(report.requests, 160);
    assert_eq!(report.witness_mismatches, 0, "swap broke a correctness witness");
    assert!(report.outcomes.iter().all(|o| matches!(o, ReqOutcome::Done { .. })));
    assert!(!report.decisions.is_empty());
    // Decisions recorded after the install carry corrected predictions:
    // at least one prediction no longer equals the raw model output.
    assert!(
        report.decisions.iter().any(|d| d.predicted_us != d.model_us),
        "no decision reflects the installed correction"
    );
}

/// One recorded run of the drifted workload; `install` optionally
/// applies a profile before any traffic arrives (the replay arm).
fn drifted_run(profile: Option<&CalibProfile>) -> ctb_cluster::EngineReport {
    let pool = ArchSpec::pool_presets(4);
    let cfg = EventConfig { witness_every: 16, ..EventConfig::default() };
    let mut cluster = EventCluster::new(pool.clone(), cfg);
    cluster.set_ground_truth(GroundTruth::drift(&pool, 11));
    cluster.record_decisions(true);
    if let Some(p) = profile {
        p.install(cluster.share().calib());
    }
    cluster.load(LoadGen::table2(5, 4_000.0, 240));
    cluster.run()
}

#[test]
fn record_fit_replay_strictly_reduces_placement_error() {
    let recording = drifted_run(None);
    let dataset = TraceDataset::from_recording(&recording, None).expect("ingests");
    let before = dataset.mean_abs_err_us();
    assert!(before > 0.0, "drifted pool must show placement error");

    let fit = fit_decisions(&dataset.decisions);
    let p = CalibProfile {
        corrections: fit.correction_set(),
        selector_forest: None,
        meta: ProfileMeta {
            source_decisions: dataset.decisions.len() as u64,
            trained_cases: 0,
            drift_seed: 11,
        },
    };
    // The profile survives its wire format on the way to the fleet.
    let p = CalibProfile::from_bytes(&p.to_bytes()).expect("round-trips");

    let replay = drifted_run(Some(&p));
    let after = TraceDataset::from_recording(&replay, None).expect("ingests").mean_abs_err_us();
    assert!(
        after < before,
        "calibration must strictly reduce mean placement error (before {before:.3}µs, after {after:.3}µs)"
    );
}
