//! Named claims from the paper, checked end-to-end against this
//! reproduction. Each test cites the section it reproduces.

use ctb::convnet::googlenet_v1;
use ctb::convnet::pipeline::googlenet_times;
use ctb::prelude::*;
use ctb::sim::simulate;
use ctb::tiling::{model, select_tiling, StrategyKind};

/// §4.2.3: the worked example's intermediate and final TLP values.
#[test]
fn worked_example_tlp_values() {
    let shapes =
        [GemmShape::new(16, 32, 128), GemmShape::new(64, 64, 64), GemmShape::new(256, 256, 64)];
    let th = Thresholds::paper_v100();
    let sol = select_tiling(&shapes, &th);
    assert_eq!(sol.tlp, 17_920);
    let small = ctb::tiling::strategy::batched(StrategyKind::Small, sol.thread_count);
    assert_eq!(model::tlp(&shapes, &[small, small, small]), 70_144);
}

/// §1: a 5120³ GEMM runs near peak while 16×784×192 runs far below it.
#[test]
fn motivation_efficiency_gap() {
    let arch = ArchSpec::volta_v100();
    let big = GemmShape::new(5120, 5120, 5120);
    let small = GemmShape::new(16, 784, 192);
    let eff = |s: GemmShape| {
        let r = simulate(&arch, &default_serial(&arch, &[s]).seq);
        r.gflops(s.flops()) / arch.peak_gflops()
    };
    let (e_big, e_small) = (eff(big), eff(small));
    assert!(e_big > 0.5, "5120^3 at {e_big}");
    assert!(e_small < 0.1, "16x784x192 at {e_small}");
}

/// §7.3: GoogleNet has 57 convolutions and the paper's execution-time
/// ordering (serial > streams > coordinated) holds.
#[test]
fn googlenet_ordering() {
    assert_eq!(googlenet_v1().all_convs().len(), 57);
    let t = googlenet_times(&ArchSpec::volta_v100(), 1);
    assert!(t.cudnn_like_ms > t.cudnn_streams_ms);
    assert!(t.cudnn_streams_ms > t.coordinated_ms);
}

/// Fig 3(a): the vbatch bubble structure for the figure's three GEMMs.
#[test]
fn vbatch_bubbles_match_figure_3a() {
    let shapes =
        vec![GemmShape::new(16, 32, 128), GemmShape::new(64, 48, 64), GemmShape::new(64, 64, 128)];
    let run = magma_vbatch(&ArchSpec::volta_v100(), &shapes);
    let kernels = run.seq.kernels();
    assert_eq!(kernels.len(), 1, "vbatch is one kernel");
    assert_eq!(kernels[0].blocks.len(), 48, "3 GEMMs x 4x4 slice");
    assert_eq!(kernels[0].bubble_blocks(), 18, "(16-2) + (16-12) bubbles");
}

/// §7: the framework's V100 constants are the paper's (TLP threshold
/// 65536, θ = 256).
#[test]
fn v100_constants() {
    let t = Thresholds::for_arch(&ArchSpec::volta_v100());
    assert_eq!(t.tlp_threshold, 65_536);
    assert_eq!(t.theta, 256);
}

/// §7.4: the speedup over MAGMA holds on every evaluated architecture
/// for a representative random workload set.
#[test]
fn portability_speedups() {
    for arch in ArchSpec::fig11_presets() {
        let fw = Framework::new(arch.clone());
        let mut wins = 0usize;
        let cases = ctb::matrix::gen::random_cases(12, 77);
        for shapes in &cases {
            let ours = fw.plan(shapes).unwrap().predicted_us;
            let magma = simulate(&arch, &magma_vbatch(&arch, shapes).seq).total_us;
            wins += usize::from(magma > ours);
        }
        assert!(
            wins * 3 >= cases.len() * 2,
            "{}: won only {wins}/{} cases",
            arch.name,
            cases.len()
        );
    }
}

/// Fig 8/9 crossover, small side: on many-small-GEMM workloads — the
/// regime of Fig 1 and the figures' lower-left cells — the coordinated
/// single-kernel plan beats per-kernel default launches by an order of
/// magnitude (launch overhead plus idle SMs dominate the baseline), and
/// also beats MAGMA vbatch.
#[test]
fn coordinated_beats_per_kernel_default_on_many_small_gemms() {
    let arch = ArchSpec::volta_v100();
    let fw = Framework::new(arch.clone());
    for (b, mn, k) in [(32, 64, 64), (16, 32, 32), (64, 16, 128), (8, 64, 16), (16, 128, 32)] {
        let shapes = ctb::matrix::gen::uniform_case(b, mn, mn, k);
        let ours = fw.plan(&shapes).unwrap().predicted_us;
        let per_kernel = simulate(&arch, &default_serial(&arch, &shapes).seq).total_us;
        let magma = simulate(&arch, &magma_vbatch(&arch, &shapes).seq).total_us;
        assert!(
            per_kernel / ours > 5.0,
            "B={b} MN={mn} K={k}: expected >5x over per-kernel default, got {:.2}x",
            per_kernel / ours
        );
        assert!(
            magma / ours > 1.0,
            "B={b} MN={mn} K={k}: must also beat vbatch ({ours:.2} vs {magma:.2})"
        );
    }
}

/// Fig 8/9 crossover, large side: on large-uniform workloads — the
/// figures' upper-right cells, where a single GEMM already fills the
/// device — coordination cannot help much, and the paper's claim is
/// only that it does not hurt: the coordinated plan stays within a
/// small margin of the per-kernel default (the reproduction's worst
/// cell is ~10.5% at B=1 1024^3; 15% is the asserted ceiling) while
/// still clearly beating MAGMA vbatch.
#[test]
fn coordinated_never_loses_badly_on_large_uniform_gemms() {
    let arch = ArchSpec::volta_v100();
    let fw = Framework::new(arch.clone());
    let mut ratios = Vec::new();
    for (b, mn, k) in
        [(1, 1024, 1024), (2, 512, 512), (4, 512, 256), (1, 2048, 512), (4, 1024, 1024)]
    {
        let shapes = ctb::matrix::gen::uniform_case(b, mn, mn, k);
        let ours = fw.plan(&shapes).unwrap().predicted_us;
        let per_kernel = simulate(&arch, &default_serial(&arch, &shapes).seq).total_us;
        let magma = simulate(&arch, &magma_vbatch(&arch, &shapes).seq).total_us;
        let ratio = ours / per_kernel;
        assert!(
            ratio <= 1.15,
            "B={b} MN={mn} K={k}: coordinated lost {:.1}% to per-kernel default",
            (ratio - 1.0) * 100.0
        );
        assert!(ours < magma, "B={b} MN={mn} K={k}: must beat vbatch ({ours:.2} vs {magma:.2})");
        ratios.push(ratio);
    }
    // Aggregate over the large-uniform set the framework is at parity
    // or better, matching the flat right-hand side of Fig 9.
    let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
    assert!(geomean <= 1.0, "large-uniform geomean {geomean:.3} worse than parity");
}

/// The crossover itself: the coordinated framework's advantage over
/// per-kernel launches shrinks monotonically in workload grain — the
/// many-small cell's speedup dwarfs the large-uniform cell's, which is
/// the shape of Fig 8/9's histograms.
#[test]
fn speedup_over_default_decays_from_small_to_large() {
    let arch = ArchSpec::volta_v100();
    let fw = Framework::new(arch.clone());
    let speedup = |b: usize, mn: usize, k: usize| {
        let shapes = ctb::matrix::gen::uniform_case(b, mn, mn, k);
        let ours = fw.plan(&shapes).unwrap().predicted_us;
        simulate(&arch, &default_serial(&arch, &shapes).seq).total_us / ours
    };
    let small = speedup(32, 64, 64);
    let mid = speedup(8, 256, 256);
    let large = speedup(1, 1024, 1024);
    assert!(
        small > mid && mid > large,
        "speedup must decay with grain: small {small:.2}x, mid {mid:.2}x, large {large:.2}x"
    );
    assert!(small > 10.0, "many-small speedup {small:.2}x below Fig 9's regime");
    assert!(large < 1.5, "large-uniform speedup {large:.2}x should be near parity");
}

/// §5: the random-forest selection overhead is a handful of comparisons.
#[test]
fn selector_overhead_is_small() {
    let arch = ArchSpec::volta_v100();
    let th = Thresholds::for_arch(&arch);
    let selector =
        ctb::core::OnlineSelector::train(&arch, &th, &ctb::matrix::gen::random_cases(60, 5));
    let depth = selector.forest().avg_path_depth(&[128.0, 128.0, 64.0, 8.0]);
    assert!(depth <= 8.0, "paper quotes 7-8 comparisons; got {depth}");
}
