//! Portability sweep (the paper's §7.4): run the same batched-GEMM
//! workload on every modelled GPU generation and compare against MAGMA
//! vbatch, plus the online random-forest selector in action.
//!
//! ```text
//! cargo run --example arch_sweep --release
//! ```

use ctb::core::selector::features;
use ctb::core::OnlineSelector;
use ctb::matrix::gen::random_cases;
use ctb::prelude::*;
use ctb::sim::simulate;

fn main() {
    println!("== architecture sweep: coordinated framework vs MAGMA vbatch ==\n");
    let cases = random_cases(20, 7);

    println!(
        "{:<14} {:>5} {:>10} {:>12} {:>9}",
        "device", "SMs", "peak GF/s", "TLP thresh", "speedup"
    );
    let mut devices = ArchSpec::all_presets();
    devices.extend(ArchSpec::extension_presets()); // post-paper: T4, A100
    for arch in devices {
        let fw = Framework::new(arch.clone());
        let mut speedups = Vec::new();
        for shapes in &cases {
            let ours = fw.plan(shapes).expect("plannable").predicted_us;
            let magma = simulate(&arch, &magma_vbatch(&arch, shapes).seq).total_us;
            speedups.push(magma / ours);
        }
        let geo = speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64;
        println!(
            "{:<14} {:>5} {:>10.0} {:>12} {:>8.2}x",
            arch.name,
            arch.sms,
            arch.peak_gflops(),
            fw.thresholds().tlp_threshold,
            geo.exp()
        );
    }

    // The online selector: train once (on the simulator — the paper
    // trained 2h on hardware), then pick a batching heuristic per batch
    // in a handful of comparisons.
    println!("\n== online batching-heuristic selection (random forest) ==\n");
    let arch = ArchSpec::volta_v100();
    let thresholds = Thresholds::for_arch(&arch);
    let selector = OnlineSelector::train(&arch, &thresholds, &random_cases(120, 3));
    for shapes in cases.iter().take(6) {
        let f = features(shapes);
        let choice = selector.select_shapes(shapes);
        println!(
            "batch B={:<3} avg(M,N,K)=({:>5.0},{:>5.0},{:>6.0})  ->  {choice}",
            f[3], f[0], f[1], f[2]
        );
    }
    println!(
        "\naverage decision path depth: {:.1} comparisons per tree (paper: 7-8)",
        selector.forest().avg_path_depth(&[128.0, 128.0, 64.0, 16.0])
    );
}
