//! Cluster-layer demo: a heterogeneous pool of simulated GPUs serves a
//! mixed-shape burst, with the paper's analytical cost model deciding
//! which device each coordinated batch runs on. Once the burst is
//! placed the fastest device is killed; its queued batches re-route and
//! every result still comes back bitwise-identical to the exact oracle.
//!
//! ```text
//! cargo run --example cluster_demo --release
//! ```

use ctb::prelude::*;
use std::sync::Arc;

fn main() {
    const BATCHES: usize = 24;

    // A V100 + Titan Xp + GTX 1080 Ti pool (fastest-first presets).
    let pool = ArchSpec::pool_presets(3);
    let names: Vec<_> = pool.iter().map(|a| a.name).collect();
    // Every batch is a witness (the default `witness_every: 1`): it
    // executes for real and is checked bitwise against its exact oracle.
    let mut engine = EventCluster::new(
        pool,
        EventConfig {
            queue_capacity: BATCHES,
            steal: StealPolicy { enabled: false, ..StealPolicy::default() },
            ..EventConfig::default()
        },
    );

    // A burst of variable-size coordinated batches, all arriving at t = 0.
    let mix: [&[GemmShape]; 3] = [
        &[GemmShape::new(48, 48, 256); 3],
        &[GemmShape::new(32, 64, 128); 4],
        &[GemmShape::new(24, 24, 96); 6],
    ];
    for i in 0..BATCHES {
        engine.submit_at(SimTime::ZERO, Arc::from(mix[i % mix.len()]), i as u64);
    }

    // Kill the V100 while its queue is loaded: queued work must move.
    engine.kill_at(SimTime(1), 0);

    let report = engine.run();
    assert_eq!(report.stats.completed, BATCHES, "zero drops across the kill");
    assert_eq!(report.witness_mismatches, 0, "clustered result vs oracle");

    let stats = report.stats;
    println!("== ctb-cluster demo: sim-cost routing + kill-one-device failover ==\n");
    println!("pool: {}", names.join(", "));
    println!(
        "completed {}/{} batches, {} bitwise-verified; {} re-routed off the dead V100",
        stats.completed, stats.submitted, report.witnesses, stats.reroutes
    );
    for d in &stats.devices {
        println!(
            "  device {} {:<13} placed {:>2} | completed {:>2} | busy {:>8.1} sim us | alive: {}",
            d.id, d.name, d.placements, d.completed, d.busy_sim_us, d.alive
        );
    }
    println!(
        "simulated makespan {:.1} us over {:.1} us of total work; placement error {:.3} us",
        stats.makespan_sim_us, stats.total_sim_us, stats.mean_abs_placement_err_us
    );
}
