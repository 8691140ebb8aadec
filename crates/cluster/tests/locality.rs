//! Differential locality suite: locality-aware ranking vs the blind
//! baseline, same seeded workload, same pool, same bookkeeping.
//!
//! The aware and blind arms differ in exactly one place — whether the
//! placer's score includes the interposer-crossing penalty — so every
//! observable difference between the two runs is attributable to the
//! ranking change:
//!
//! - **payloads**: every request is a witness; both arms must be
//!   bitwise-exact against the reference oracle (`witness_mismatches ==
//!   0`), so routing with the penalty can never change a single output
//!   bit,
//! - **traffic**: on a multi-chiplet pool the aware arm must take
//!   *strictly fewer* remote-operand placements (residency misses) and
//!   charge *strictly fewer* remote bytes,
//! - **degenerate pin**: on a monolithic (single-chiplet) pool the
//!   penalty is identically zero, so the aware arm must reproduce the
//!   blind arm's placements decision-for-decision — today's behavior,
//!   bit for bit,
//! - **trace**: the aware arm's instrumented trace passes the same
//!   [`TraceAudit`] + stats reconciliation the chaos suites use.

use ctb_cluster::{
    ClusterStats, EventCluster, EventConfig, GroundTruth, LocalityPolicy, ReqOutcome, SimTime,
    StealPolicy,
};
use ctb_gpu_specs::{ArchSpec, ChipletTopology};
use ctb_matrix::GemmShape;
use ctb_obs::TraceAudit;
use std::sync::Arc;

/// A pool of identical multi-chiplet devices whose interposer cost is
/// heavy enough to matter against queueing deltas: stickiness is a
/// *ranking* decision here, not a rounding accident. Identical specs
/// also mean identical predictions, so the blind arm's argmin is driven
/// purely by backlog + id — the regime where it migrates signatures the
/// most.
fn sticky_pool(n: usize) -> Vec<ArchSpec> {
    (0..n)
        .map(|_| {
            let mut a = ArchSpec::mcm_gpu_4die();
            // Same silicon, meaner package: a 400 µs interposer crossing
            // (about one batch's service time) so remote placement is a
            // first-class cost, not a tie-break.
            a.topology = ChipletTopology::split(4, 3_000.0, 0.6, 400.0);
            a
        })
        .collect()
}

/// Monolithic pool for the degenerate-topology pin.
fn unified_pool() -> Vec<ArchSpec> {
    ArchSpec::pool_presets(3)
}

/// The workload: three distinct batch signatures in a deliberately
/// misaligned pattern (not a clean round-robin), so a backlog-only
/// ranking keeps bouncing signatures across devices while a
/// locality-aware one can pin each signature to its operand home.
fn mix_shapes(i: usize) -> Arc<[GemmShape]> {
    let mix: [&[GemmShape]; 3] = [
        &[GemmShape::new(96, 96, 384); 2],
        &[GemmShape::new(48, 64, 96), GemmShape::new(16, 32, 640)],
        &[GemmShape::new(128, 32, 32); 4],
    ];
    // Low bits of a weyl sequence: an aperiodic-looking but fully
    // deterministic draw over the three classes.
    mix[(i * 7 + i / 3) % 3].into()
}

const REQUESTS: usize = 60;
/// Arrival gap well under the per-batch service time (hundreds of
/// microseconds), so queues build and the backlog-only ranking keeps
/// chasing the momentarily-least-loaded device across the pool.
const GAP_NS: u64 = 5_000;

/// Run one arm on the event engine over `pool` with the given policy,
/// returning its outcomes and reconciled stats. Fault-free, fully
/// instrumented, every request witnessed.
fn run_arm(pool: Vec<ArchSpec>, locality: LocalityPolicy) -> (Vec<ReqOutcome>, ClusterStats) {
    let cfg = EventConfig {
        // Stealing is exercised by the routing and chaos suites; here
        // it would only blur which arm moved the operands and why.
        steal: StealPolicy { enabled: false, ..StealPolicy::default() },
        locality,
        ..EventConfig::default()
    };
    let n = pool.len();
    let truth = GroundTruth::drift(&pool, 0x10CA_11FE);
    let (mut eng, obs) = EventCluster::with_instrumentation(pool, cfg, vec![None; n]);
    eng.set_ground_truth(truth);
    for i in 0..REQUESTS {
        eng.submit_at(SimTime(1 + i as u64 * GAP_NS), mix_shapes(i), i as u64);
    }
    let report = eng.run();
    assert_eq!(report.requests, REQUESTS);
    assert_eq!(report.witnesses, REQUESTS, "every request is witnessed");
    assert_eq!(report.witness_mismatches, 0, "witnesses are bitwise-exact");
    audit(&obs, &report.stats);
    (report.outcomes, report.stats)
}

/// The chaos-suite audit: structural trace invariants plus `==`
/// reconciliation of every counter the trace can rebuild.
fn audit(obs: &ctb_obs::Obs, stats: &ClusterStats) {
    let counts = TraceAudit::new(obs.events()).check().expect("trace invariants hold");
    assert_eq!(counts.terminals(), counts.admits, "one terminal per admit");
    assert_eq!(counts.batch_done, stats.completed, "batch-done vs completed");
    assert_eq!(counts.routed, stats.routed, "routed events vs routed");
    assert_eq!(counts.steals, stats.steals, "steal events vs steals");
    assert_eq!(counts.reroutes, stats.reroutes, "reroute events vs reroutes");
    assert_eq!(counts.residency_hits, stats.residency_hits, "residency-hit events");
    assert_eq!(counts.residency_misses, stats.residency_misses, "residency-miss events");
}

fn placements(outcomes: &[ReqOutcome]) -> Vec<(u64, usize)> {
    outcomes
        .iter()
        .map(|o| match o {
            ReqOutcome::Done { id, device, .. } => (*id, *device),
            other => panic!("fault-free workload only completes, got {other:?}"),
        })
        .collect()
}

#[test]
fn aware_reduces_remote_traffic_on_chiplet_pool() {
    assert!(LocalityPolicy::default().enabled, "default policy ranks with the penalty");
    assert!(!LocalityPolicy::blind().enabled, "blind arm must not");
    let (_, aware) = run_arm(sticky_pool(3), LocalityPolicy::default());
    let (_, blind) = run_arm(sticky_pool(3), LocalityPolicy::blind());

    assert_eq!(aware.completed, REQUESTS, "aware arm completes everything");
    assert_eq!(blind.completed, REQUESTS, "blind arm completes everything");

    // Both arms pay identical bookkeeping; only the ranking differs.
    // Every landing is classified, so hits + misses covers the routed
    // (and stolen) landings exactly.
    assert_eq!(aware.residency_hits + aware.residency_misses, aware.routed + aware.steals);
    assert_eq!(blind.residency_hits + blind.residency_misses, blind.routed + blind.steals);

    // The tentpole gate, strict on both axes: fewer remote placements
    // and less interposer traffic.
    eprintln!(
        "locality differential: misses {} vs {}, remote bytes {} vs {}",
        aware.residency_misses,
        blind.residency_misses,
        aware.remote_operand_bytes,
        blind.remote_operand_bytes,
    );
    assert!(
        aware.residency_misses < blind.residency_misses,
        "aware arm must take strictly fewer remote placements: {} vs {}",
        aware.residency_misses,
        blind.residency_misses,
    );
    assert!(
        aware.remote_operand_bytes < blind.remote_operand_bytes,
        "aware arm must charge strictly fewer remote bytes: {} vs {}",
        aware.remote_operand_bytes,
        blind.remote_operand_bytes,
    );
    assert!(blind.remote_operand_bytes > 0, "the workload actually crosses the interposer");
}

#[test]
fn single_chiplet_pool_pins_aware_to_blind_decisions() {
    // Monolithic topology: the penalty is identically 0.0, and score =
    // completion + 0.0 is bitwise the completion. The aware arm must
    // therefore reproduce the blind arm — placement for placement,
    // counter for counter. This is the "no regression on today's
    // pools" pin.
    let (aware_out, aware) = run_arm(unified_pool(), LocalityPolicy::default());
    let (blind_out, blind) = run_arm(unified_pool(), LocalityPolicy::blind());

    assert_eq!(placements(&aware_out), placements(&blind_out), "placements diverged");
    assert_eq!(aware.routed, blind.routed);
    assert_eq!(aware.reroutes, blind.reroutes);
    assert_eq!(aware.residency_hits, blind.residency_hits);
    assert_eq!(aware.residency_misses, blind.residency_misses);
    assert_eq!(aware.makespan_sim_us, blind.makespan_sim_us, "timing is bitwise-identical");

    // Monolithic devices never charge interposer traffic, under either
    // policy — the remote share of a unified topology is zero.
    assert_eq!(aware.remote_operand_bytes, 0);
    assert_eq!(blind.remote_operand_bytes, 0);
}
