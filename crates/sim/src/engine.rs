//! The timing engine: per-block analytical model + event-driven slot
//! scheduler.
//!
//! See the crate docs and `DESIGN.md` §3 for the model. In short, for a
//! kernel with average `A` resident *active* warps per SM, a warp's
//! main-loop iteration of per-warp issue cost `c` completes one *round*
//! every `max(A·c, L/D)` cycles (`L` = global latency, `D` = pipeline
//! depth from double buffering); a block's wall time is its dispatch +
//! one pipeline fill + the rounds of all its tiles; blocks are placed on
//! `SMs × occupancy` residency slots by a greedy earliest-free-slot
//! scheduler, and a slot executes its blocks serially (a new block
//! launches only when its predecessor retires — as on hardware).

use crate::cost::{KernelDesc, LaunchSequence, TilePass};
use crate::report::{BoundBreakdown, KernelReport, SimReport};
use crate::streams::simulate_streams;
use ctb_gpu_specs::{occupancy, ArchSpec, Occupancy};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-warp-instruction execution costs in SM cycles, derived from the
/// architecture. `global` embeds the per-SM DRAM bandwidth share, so it
/// depends on how many SMs the kernel keeps busy.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    /// Cycles per warp FMA instruction (32 lanes / SM FP32 lanes).
    pub fma: f64,
    /// Cycles per warp shared-memory load (one 128 B access per cycle).
    pub shared: f64,
    /// Cycles per warp global load/store: 128 B over the per-busy-SM
    /// bandwidth share, floored at one issue cycle.
    pub global: f64,
    /// Cycles per auxiliary (integer/address) warp instruction.
    pub aux: f64,
    /// Software-pipeline depth (double buffering, Fig 2).
    pub pipeline_depth: f64,
    /// Exposed intra-warp dependency stall per iteration, in cycles: a
    /// warp running alone cannot advance faster than `c + intra_stall`
    /// per iteration because its shared-load → FMA chains stall the
    /// pipeline (≈ two shared-memory round trips).
    pub intra_warp_stall: f64,
    /// Cycles to switch between tiles of the same block (index parsing,
    /// Fig 7 lines 6–16).
    pub tile_switch: f64,
    /// Cycles of a block-wide `__syncthreads` at tile epilogue.
    pub sync: f64,
}

/// Derive the cost rates for a kernel that keeps `busy_sms` SMs busy.
pub fn rates(arch: &ArchSpec, busy_sms: f64) -> Rates {
    let busy = busy_sms.clamp(1.0, arch.sms as f64);
    let bytes_per_cycle_per_busy_sm =
        arch.mem_bandwidth_gbps * 1.0e9 / (busy * arch.clock_ghz * 1.0e9);
    Rates {
        fma: 32.0 / arch.fp32_lanes_per_sm as f64,
        // Shared loads largely dual-issue with the FMA pipe.
        shared: 0.5,
        global: (128.0 / bytes_per_cycle_per_busy_sm).max(1.0),
        aux: 1.0 / arch.issue_width as f64,
        pipeline_depth: 2.0,
        intra_warp_stall: 2.0 * arch.shared_mem_latency as f64,
        tile_switch: 40.0,
        sync: 30.0,
    }
}

/// Per-warp issue/execution cost of one main-loop iteration, in SM
/// cycles (the `c` of the round formula).
pub fn warp_iter_cost(r: &Rates, p: &TilePass) -> f64 {
    p.fma_per_thread * r.fma
        + p.ld_shared_per_thread * r.shared
        + p.ld_global_per_thread * r.global
        + p.aux_per_thread * r.aux
}

/// Iteration-weighted mean per-warp iteration cost across a kernel's
/// blocks: the work the *other* resident warps contribute per round in a
/// kernel that mixes tile strategies (and hence iteration costs).
pub fn kernel_mean_iter_cost(arch: &ArchSpec, r: &Rates, kd: &KernelDesc) -> f64 {
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for b in &kd.blocks {
        let w = b.active_warps(arch.warp_size) as f64;
        for p in kd.block_passes(b) {
            let it = p.iterations as f64;
            num += it * w * warp_iter_cost(r, p);
            den += it * w;
        }
    }
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Which constraint set a main-loop round's duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundBound {
    /// SM issue/bandwidth throughput shared among the resident warps.
    Throughput,
    /// Exposed global-memory latency the other warps could not cover.
    MemoryLatency,
    /// The per-warp intra-iteration dependency floor.
    Dependency,
}

/// Detailed timing of one block: total cycles plus the cycles spent in
/// rounds attributed to each binding constraint and in fixed overheads
/// (dispatch, fill, epilogues, tile switches).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BlockTime {
    pub cycles: f64,
    pub throughput_cycles: f64,
    pub latency_cycles: f64,
    pub dependency_cycles: f64,
    pub overhead_cycles: f64,
}

/// Wall time of one block that runs `passes` (none for a bubble) given
/// the kernel-wide average active warp count `a` per SM, the
/// kernel-mean per-warp iteration cost `c_bar` (what co-resident warps
/// execute per round), and the kernel's prefetch depth.
pub fn block_time_detail(
    arch: &ArchSpec,
    r: &Rates,
    passes: &[TilePass],
    a: f64,
    c_bar: f64,
    prefetch_depth: f64,
    per_tile_fill: bool,
) -> BlockTime {
    let mut bt = BlockTime { cycles: arch.block_dispatch_cycles as f64, ..BlockTime::default() };
    bt.overhead_cycles = bt.cycles;
    if passes.is_empty() {
        return bt;
    }
    let lat = arch.global_mem_latency as f64;
    // One exposed pipeline fill for the whole block: the persistent-tile
    // loop prefetches the next tile's first fragments during the current
    // tile's epilogue, so only the first tile pays it. (The per-tile
    // variant is the cross-tile-prefetch ablation.)
    let fills = if per_tile_fill {
        passes.iter().filter(|p| p.has_global_loads()).count() as f64
    } else {
        f64::from(passes.iter().any(TilePass::has_global_loads))
    };
    bt.cycles += fills * lat;
    bt.overhead_cycles += fills * lat;
    for (i, p) in passes.iter().enumerate() {
        // A round advances every resident warp by one iteration: the SM
        // serialises its own instructions (own cost `c`) with the other
        // A−1 warps' (kernel-average cost `c_bar`). Bounds: issue
        // throughput; per-warp dependency stalls; exposed memory latency
        // (the part of L/depth the other warps' work cannot cover). The
        // longest binds, the later one in that order on a tie.
        let c = warp_iter_cost(r, p);
        let others = (a - 1.0).max(0.0) * c_bar;
        let mut round = (c + others, RoundBound::Throughput);
        let mut consider = |cycles: f64, bound| {
            if cycles.total_cmp(&round.0).is_ge() {
                round = (cycles, bound);
            }
        };
        consider(c + r.intra_warp_stall, RoundBound::Dependency);
        if p.has_global_loads() {
            let exposed = (lat / prefetch_depth - others).max(0.0);
            consider(c + exposed, RoundBound::MemoryLatency);
        }
        let pass_cycles = p.iterations as f64 * round.0;
        bt.cycles += pass_cycles;
        match round.1 {
            RoundBound::Throughput => bt.throughput_cycles += pass_cycles,
            RoundBound::MemoryLatency => bt.latency_cycles += pass_cycles,
            RoundBound::Dependency => bt.dependency_cycles += pass_cycles,
        }
        let epi = p.epilogue_stores * r.global + r.sync;
        bt.cycles += epi;
        bt.overhead_cycles += epi;
        if i + 1 < passes.len() {
            bt.cycles += r.tile_switch;
            bt.overhead_cycles += r.tile_switch;
        }
    }
    bt
}

/// Active warps per SM experienced by a block dispatched while
/// `remaining_useful` useful blocks (including itself) are still in
/// flight — the latency-hiding term. Tail blocks see less contention
/// than full waves; idle threads (MAGMA's uniform blocks running small
/// tiles) occupy residency but contribute nothing here.
fn active_warps_at(
    arch: &ArchSpec,
    occ: &Occupancy,
    mean_warps_per_block: f64,
    remaining_useful: usize,
) -> f64 {
    let concurrency = (remaining_useful as f64 / arch.sms as f64)
        .clamp(1.0, occ.blocks_per_sm.max(1) as f64);
    (mean_warps_per_block * concurrency).max(1.0)
}

/// Wrapper giving `f64` a total order for the scheduler heap.
#[derive(Clone, Copy, PartialEq)]
struct Cycles(f64);

impl Eq for Cycles {}
impl PartialOrd for Cycles {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Cycles {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// What [`schedule`] reports about a kernel besides its blocks.
pub(crate) struct Schedule {
    /// Residency slots: SMs × resident blocks per SM.
    pub slots: usize,
    /// Latest block end, in cycles.
    pub makespan: f64,
    /// Active warps per SM the first block sees, every useful block
    /// still to run.
    pub avg_active_warps: f64,
}

/// The slot scheduler behind [`simulate_kernel`] and
/// [`crate::timeline::capture_timeline`]. Blocks are dispatched in grid
/// order, each to the slot that frees earliest, ties to the lowest slot
/// index: the breadth-first placement real rasterisers use. A slot runs
/// its blocks serially. `visit(block, slot, start, time)` sees every
/// block as it is placed.
///
/// A slot no block has used is free at cycle 0, and such slots are taken
/// in index order, so only used slots need a heap: the earliest of them
/// competes with the lowest never-used slot at `(0, index)`.
pub(crate) fn schedule(
    arch: &ArchSpec,
    kd: &KernelDesc,
    occ: &Occupancy,
    mut visit: impl FnMut(usize, usize, f64, &BlockTime),
) -> Schedule {
    let slots = (arch.sms * occ.blocks_per_sm) as usize;
    let useful = kd.useful_blocks();
    let busy_sms = (useful as f64).min(arch.sms as f64);
    let r = rates(arch, busy_sms);
    // Mean active warps per useful block.
    let mean_warps = if useful == 0 {
        0.0
    } else {
        let total: f64 = kd.blocks.iter().map(|b| b.active_warps(arch.warp_size) as f64).sum();
        total / useful as f64
    };
    let c_bar = kernel_mean_iter_cost(arch, &r, kd);
    let prefetch_depth = if kd.software_pipelined { r.pipeline_depth } else { 1.0 };

    let mut used: BinaryHeap<Reverse<(Cycles, usize)>> =
        BinaryHeap::with_capacity(kd.blocks.len().min(slots));
    let mut next_fresh = 0;
    let mut makespan = 0.0f64;
    let mut remaining_useful = useful;
    for (b, block) in kd.blocks.iter().enumerate() {
        // Contention seen by this block: the useful blocks still in
        // flight when it dispatches (tail blocks run lighter).
        let a = active_warps_at(arch, occ, mean_warps, remaining_useful.max(1));
        let passes = kd.block_passes(block);
        let bt = block_time_detail(arch, &r, passes, a, c_bar, prefetch_depth, kd.per_tile_fill);
        // The earliest used slot, unless the lowest never-used one sorts
        // before it.
        let top = used
            .peek()
            .map(|&Reverse(top)| top)
            .filter(|&top| next_fresh == slots || top < (Cycles(0.0), next_fresh));
        let (Cycles(start), slot) = top.unwrap_or((Cycles(0.0), next_fresh));
        let end = start + bt.cycles;
        if top.is_some() {
            *used.peek_mut().expect("peeked") = Reverse((Cycles(end), slot));
        } else {
            next_fresh += 1;
            used.push(Reverse((Cycles(end), slot)));
        }
        makespan = makespan.max(end);
        visit(b, slot, start, &bt);
        if !block.is_bubble() {
            remaining_useful -= 1;
        }
    }
    Schedule { slots, makespan, avg_active_warps: active_warps_at(arch, occ, mean_warps, useful) }
}

/// Simulate one kernel in isolation; returns its report (duration
/// excludes the launch overhead, which belongs to the launch sequence).
pub fn simulate_kernel(arch: &ArchSpec, kd: &KernelDesc) -> KernelReport {
    let occ = occupancy::occupancy(arch, &kd.footprint);
    assert!(
        occ.blocks_per_sm > 0,
        "kernel {} has an infeasible block footprint {:?}",
        kd.name,
        kd.footprint
    );
    if kd.blocks.is_empty() {
        return KernelReport {
            name: kd.name.clone(),
            cycles: 0.0,
            us: 0.0,
            blocks: 0,
            bubble_blocks: 0,
            occupancy: occ,
            avg_active_warps: 0.0,
            waves: 0.0,
            bound_breakdown: BoundBreakdown::default(),
        };
    }

    let mut totals = BlockTime::default();
    let s = schedule(arch, kd, &occ, |_, _, _, bt| {
        totals.cycles += bt.cycles;
        totals.throughput_cycles += bt.throughput_cycles;
        totals.latency_cycles += bt.latency_cycles;
        totals.dependency_cycles += bt.dependency_cycles;
        totals.overhead_cycles += bt.overhead_cycles;
    });

    let frac = |x: f64| if totals.cycles > 0.0 { x / totals.cycles } else { 0.0 };
    KernelReport {
        name: kd.name.clone(),
        cycles: s.makespan,
        us: arch.cycles_to_us(s.makespan),
        blocks: kd.blocks.len(),
        bubble_blocks: kd.bubble_blocks(),
        occupancy: occ,
        avg_active_warps: s.avg_active_warps,
        waves: kd.blocks.len() as f64 / s.slots as f64,
        bound_breakdown: BoundBreakdown {
            throughput: frac(totals.throughput_cycles),
            memory_latency: frac(totals.latency_cycles),
            dependency: frac(totals.dependency_cycles),
            overhead: frac(totals.overhead_cycles),
        },
    }
}

/// Simulate a full launch sequence and return the end-to-end report.
pub fn simulate(arch: &ArchSpec, seq: &LaunchSequence) -> SimReport {
    match seq {
        LaunchSequence::Single(kd) => {
            let kr = simulate_kernel(arch, kd);
            let total = arch.kernel_launch_overhead_us + kr.us;
            SimReport { total_us: total, kernels: vec![kr] }
        }
        LaunchSequence::Serial(kds) => {
            let kernels: Vec<KernelReport> = kds.iter().map(|k| simulate_kernel(arch, k)).collect();
            let total = kernels
                .iter()
                .map(|k| k.us + arch.kernel_launch_overhead_us)
                .sum();
            SimReport { total_us: total, kernels }
        }
        LaunchSequence::Streams { streams, kernels } => simulate_streams(arch, *streams, kernels),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_gpu_specs::BlockFootprint;

    fn v100() -> ArchSpec {
        ArchSpec::volta_v100()
    }

    fn gemm_pass(iterations: u32) -> TilePass {
        // A "large/256" style tile: 4x4 sub-tile, BK 8.
        TilePass {
            iterations,
            fma_per_thread: 128.0,
            ld_shared_per_thread: 16.0,
            ld_global_per_thread: 1.0,
            aux_per_thread: 4.0,
            epilogue_stores: 4.0,
        }
    }

    /// `blocks` copies of one block with `active_threads` working
    /// threads that runs `passes`.
    fn uniform(
        name: &str,
        footprint: BlockFootprint,
        blocks: usize,
        active_threads: u32,
        passes: &[TilePass],
    ) -> KernelDesc {
        let mut kd = KernelDesc::new(name, footprint);
        for _ in 0..blocks {
            kd.push_block(active_threads, passes.iter().copied());
        }
        kd
    }

    /// `blocks` full 256-thread blocks of `tiles` passes each.
    fn kernel(name: &str, blocks: usize, tiles: usize, iterations: u32) -> KernelDesc {
        let passes = vec![gemm_pass(iterations); tiles];
        uniform(name, BlockFootprint::new(256, 48, 8192), blocks, 256, &passes)
    }

    #[test]
    fn more_iterations_take_longer() {
        let arch = v100();
        let short = simulate_kernel(&arch, &kernel("s", 80, 1, 4));
        let long = simulate_kernel(&arch, &kernel("l", 80, 1, 64));
        assert!(long.cycles > short.cycles * 4.0, "short {} long {}", short.cycles, long.cycles);
    }

    #[test]
    fn parallelism_helps_until_saturation() {
        // Fixed total work: N blocks of 64/N iterations each. More
        // blocks (up to device capacity) must not be slower.
        let arch = v100();
        let few = simulate_kernel(&arch, &kernel("few", 10, 1, 64));
        let many = simulate_kernel(&arch, &kernel("many", 80, 1, 8));
        assert!(
            many.cycles < few.cycles,
            "few(10 blocks x 64 it) {} vs many(80 x 8) {}",
            few.cycles,
            many.cycles
        );
    }

    #[test]
    fn batched_tiles_amortise_fill_and_dispatch() {
        // Same tile work, 2 tiles per block vs 2 blocks: at short K the
        // batched form must win (one fill + one dispatch instead of two).
        let arch = v100();
        let separate = simulate_kernel(&arch, &kernel("sep", 1280, 1, 2));
        let batched = simulate_kernel(&arch, &kernel("bat", 640, 2, 2));
        assert!(
            batched.cycles < separate.cycles,
            "batched {} vs separate {}",
            batched.cycles,
            separate.cycles
        );
    }

    #[test]
    fn bubble_blocks_cost_dispatch_only_but_not_zero() {
        // A bubble-dominated grid (MAGMA vbatch with one giant GEMM and
        // many tiny ones) must cost more than the clean grid, but far
        // less than dispatching the same number of *real* blocks.
        let arch = v100();
        let clean = simulate_kernel(&arch, &kernel("clean", 100, 1, 8));
        let mut bubbly = kernel("bubbly", 100, 1, 8);
        for _ in 0..100_000 {
            bubbly.push_block(0, []);
        }
        let bubbly = simulate_kernel(&arch, &bubbly);
        assert!(bubbly.cycles > clean.cycles, "bubbles must cost something");
        let real = simulate_kernel(&arch, &kernel("real", 100_100, 1, 8));
        assert!(bubbly.cycles < real.cycles / 2.0);
    }

    #[test]
    fn idle_threads_slow_a_kernel_down() {
        // MAGMA's uniform 256-thread blocks executing a small tile keep
        // only 32 threads busy; the same tiles in right-sized 32-thread
        // blocks enjoy more resident active warps and finish sooner.
        let arch = v100();
        let small_tile = TilePass {
            iterations: 8,
            fma_per_thread: 16.0,
            ld_shared_per_thread: 4.0,
            ld_global_per_thread: 0.5,
            aux_per_thread: 4.0,
            epilogue_stores: 4.0,
        };
        let idle = simulate_kernel(
            &arch,
            &uniform("idle", BlockFootprint::new(256, 48, 2048), 1600, 32, &[small_tile]),
        );
        let right_sized = simulate_kernel(
            &arch,
            &uniform("right", BlockFootprint::new(32, 48, 2048), 1600, 32, &[small_tile]),
        );
        assert!(
            idle.cycles > right_sized.cycles * 1.05,
            "idle {} vs right-sized {}",
            idle.cycles,
            right_sized.cycles
        );
        assert!(idle.avg_active_warps < right_sized.avg_active_warps);
    }

    #[test]
    fn serial_launches_pay_overhead_per_kernel() {
        let arch = v100();
        let k = kernel("k", 80, 1, 8);
        let single = simulate(&arch, &LaunchSequence::Single(k.clone()));
        let serial = simulate(&arch, &LaunchSequence::Serial(vec![k.clone(), k.clone()]));
        assert!(serial.total_us > single.total_us * 1.9);
        assert!(serial.total_us >= 2.0 * arch.kernel_launch_overhead_us);
    }

    #[test]
    fn empty_kernel_is_free() {
        let arch = v100();
        let kr = simulate_kernel(&arch, &kernel("empty", 0, 1, 8));
        assert_eq!(kr.cycles, 0.0);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn infeasible_footprint_panics() {
        let arch = v100();
        let kd = uniform("bad", BlockFootprint::new(2048, 16, 0), 1, 256, &[gemm_pass(1)]);
        simulate_kernel(&arch, &kd);
    }

    #[test]
    fn efficiency_is_plausible_for_a_big_uniform_kernel() {
        // 320 large-tile blocks, K = 512 (64 iterations): the device
        // should land in the 40–95% of-peak band — neither absurdly slow
        // nor above peak.
        let arch = v100();
        let kr = simulate_kernel(&arch, &kernel("big", 320, 1, 64));
        // Each block: 64 iterations x 256 threads x 128 FMA = 2.097 MFMA.
        let flops = 320.0 * 64.0 * 256.0 * 128.0 * 2.0;
        let gflops = flops / (kr.us * 1000.0);
        let frac = gflops / arch.peak_gflops();
        assert!((0.40..0.98).contains(&frac), "efficiency {frac}");
    }

    #[test]
    fn bound_breakdown_distinguishes_regimes() {
        // A big well-occupied kernel is throughput-bound; a lone
        // low-work block is latency/dependency-bound; fractions sum to 1.
        let arch = v100();
        let busy = simulate_kernel(&arch, &kernel("busy", 640, 1, 64));
        assert!(
            busy.bound_breakdown.throughput > 0.5,
            "busy kernel breakdown {:?}",
            busy.bound_breakdown
        );
        let lone = simulate_kernel(
            &arch,
            &uniform("lone", BlockFootprint::new(256, 48, 8192), 1, 32, &[gemm_pass(64)]),
        );
        assert!(
            lone.bound_breakdown.memory_latency + lone.bound_breakdown.dependency
                > lone.bound_breakdown.throughput,
            "lone kernel breakdown {:?}",
            lone.bound_breakdown
        );
        for b in [busy.bound_breakdown, lone.bound_breakdown] {
            let sum = b.throughput + b.memory_latency + b.dependency + b.overhead;
            assert!((0.99..=1.01).contains(&sum), "fractions sum to {sum}");
        }
    }

    #[test]
    fn latency_bound_when_single_warp_per_sm() {
        // One block with one active warp and negligible issue work per
        // iteration: the round must be pinned at L/D.
        let arch = v100();
        let p = TilePass {
            iterations: 100,
            fma_per_thread: 1.0,
            ld_shared_per_thread: 0.0,
            ld_global_per_thread: 0.5,
            aux_per_thread: 0.0,
            epilogue_stores: 0.0,
        };
        let kd = uniform("lone", BlockFootprint::new(32, 32, 1024), 1, 32, &[p]);
        let kr = simulate_kernel(&arch, &kd);
        let lat_bound = 100.0 * arch.global_mem_latency as f64 / 2.0;
        assert!(kr.cycles >= lat_bound, "cycles {} < latency bound {}", kr.cycles, lat_bound);
    }

    /// The bound choice before [`block_time_detail`] compared in place:
    /// every candidate round in a `Vec`, the binding one by `max_by`.
    fn reference_block_time(
        arch: &ArchSpec,
        r: &Rates,
        passes: &[TilePass],
        a: f64,
        c_bar: f64,
        prefetch_depth: f64,
        per_tile_fill: bool,
    ) -> BlockTime {
        let mut bt = BlockTime { cycles: arch.block_dispatch_cycles as f64, ..BlockTime::default() };
        bt.overhead_cycles = bt.cycles;
        if passes.is_empty() {
            return bt;
        }
        let lat = arch.global_mem_latency as f64;
        let fills = if per_tile_fill {
            passes.iter().filter(|p| p.has_global_loads()).count() as f64
        } else {
            f64::from(passes.iter().any(TilePass::has_global_loads))
        };
        bt.cycles += fills * lat;
        bt.overhead_cycles += fills * lat;
        for (i, p) in passes.iter().enumerate() {
            let c = warp_iter_cost(r, p);
            let others = (a - 1.0).max(0.0) * c_bar;
            let mut candidates = vec![
                (c + others, RoundBound::Throughput),
                (c + r.intra_warp_stall, RoundBound::Dependency),
            ];
            if p.has_global_loads() {
                let exposed = (lat / prefetch_depth - others).max(0.0);
                candidates.push((c + exposed, RoundBound::MemoryLatency));
            }
            let (round, bound) =
                candidates.into_iter().max_by(|x, y| x.0.total_cmp(&y.0)).expect("candidates");
            let pass_cycles = p.iterations as f64 * round;
            bt.cycles += pass_cycles;
            match bound {
                RoundBound::Throughput => bt.throughput_cycles += pass_cycles,
                RoundBound::MemoryLatency => bt.latency_cycles += pass_cycles,
                RoundBound::Dependency => bt.dependency_cycles += pass_cycles,
            }
            let epi = p.epilogue_stores * r.global + r.sync;
            bt.cycles += epi;
            bt.overhead_cycles += epi;
            if i + 1 < passes.len() {
                bt.cycles += r.tile_switch;
                bt.overhead_cycles += r.tile_switch;
            }
        }
        bt
    }

    /// A block's `(slot, start, end)`.
    type Placed = (usize, f64, f64);

    /// The full-heap scheduler the slot scheduler replaced: every slot
    /// enters the heap at cycle 0 before the first block. Returns each
    /// block's placement, the makespan and the bound breakdown.
    fn reference_schedule(arch: &ArchSpec, kd: &KernelDesc) -> (Vec<Placed>, f64, BoundBreakdown) {
        let occ = occupancy::occupancy(arch, &kd.footprint);
        let useful = kd.useful_blocks();
        let r = rates(arch, (useful as f64).min(arch.sms as f64));
        let warps: f64 = kd.blocks.iter().map(|b| b.active_warps(arch.warp_size) as f64).sum();
        let mean_warps = if useful == 0 { 0.0 } else { warps / useful as f64 };
        let c_bar = kernel_mean_iter_cost(arch, &r, kd);
        let depth = if kd.software_pipelined { r.pipeline_depth } else { 1.0 };
        let slots = (arch.sms * occ.blocks_per_sm) as usize;
        let mut heap: BinaryHeap<Reverse<(Cycles, usize)>> =
            (0..slots).map(|s| Reverse((Cycles(0.0), s))).collect();
        let (mut placed, mut makespan, mut remaining) = (Vec::new(), 0.0f64, useful);
        let mut totals = BlockTime::default();
        for block in &kd.blocks {
            let Reverse((Cycles(free), slot)) = heap.pop().expect("slots > 0");
            let a = active_warps_at(arch, &occ, mean_warps, remaining.max(1));
            let passes = kd.block_passes(block);
            let bt = reference_block_time(arch, &r, passes, a, c_bar, depth, kd.per_tile_fill);
            let end = free + bt.cycles;
            placed.push((slot, free, end));
            makespan = makespan.max(end);
            heap.push(Reverse((Cycles(end), slot)));
            totals.cycles += bt.cycles;
            totals.throughput_cycles += bt.throughput_cycles;
            totals.latency_cycles += bt.latency_cycles;
            totals.dependency_cycles += bt.dependency_cycles;
            totals.overhead_cycles += bt.overhead_cycles;
            if !block.is_bubble() {
                remaining -= 1;
            }
        }
        let frac = |x: f64| if totals.cycles > 0.0 { x / totals.cycles } else { 0.0 };
        let breakdown = BoundBreakdown {
            throughput: frac(totals.throughput_cycles),
            memory_latency: frac(totals.latency_cycles),
            dependency: frac(totals.dependency_cycles),
            overhead: frac(totals.overhead_cycles),
        };
        (placed, makespan, breakdown)
    }

    /// A seeded kernel: up to ~3.5 waves of blocks on `slots` slots, a
    /// quarter of them bubbles, the rest one to four passes (some of
    /// zero iterations, so without global loads), under random
    /// pipelining and fill flags.
    fn random_kernel(seed: u64, slots: usize) -> KernelDesc {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let threads = 32 << next(4);
        let mut kd = KernelDesc::new(format!("random {seed}"), BlockFootprint::new(threads, 48, 8192));
        kd.software_pipelined = next(2) == 0;
        kd.per_tile_fill = next(2) == 0;
        let blocks = next(slots as u64 * 7 / 2) as usize;
        for _ in 0..blocks {
            if next(4) == 0 {
                kd.push_block(0, []);
                continue;
            }
            for _ in 0..1 + next(4) {
                let iterations = next(40) as u32;
                let pass = TilePass { iterations, ..gemm_pass(iterations) };
                kd.passes.push(TilePass { fma_per_thread: (8 << next(5)) as f64, ..pass });
            }
            kd.end_block(32 * (1 + next(u64::from(threads / 32))) as u32);
        }
        kd
    }

    #[test]
    fn slot_scheduler_matches_the_full_heap_reference() {
        let instant = ArchSpec { block_dispatch_cycles: 0, ..v100() };
        let (mut waves, mut ties) = (0, 0);
        for arch in [v100(), ArchSpec::pascal_p100(), instant] {
            // Slots at the largest footprint random kernels draw.
            let slots = (arch.sms * arch.max_threads_per_sm / 256) as usize;
            for seed in 0..40 {
                let kd = random_kernel(seed, slots);
                let (want, makespan, breakdown) = reference_schedule(&arch, &kd);
                let timeline = crate::timeline::capture_timeline(&arch, &kd);
                let got: Vec<Placed> =
                    timeline.events.iter().map(|e| (e.slot, e.start, e.end)).collect();
                let bits = |p: &[Placed]| -> Vec<(usize, u64, u64)> {
                    p.iter().map(|&(s, a, b)| (s, a.to_bits(), b.to_bits())).collect()
                };
                assert_eq!(bits(&got), bits(&want), "{} seed {seed}", arch.name);
                let report = simulate_kernel(&arch, &kd);
                assert_eq!(report.cycles.to_bits(), makespan.to_bits(), "{} seed {seed}", arch.name);
                assert_eq!(timeline.makespan.to_bits(), makespan.to_bits());
                let fractions = |b: BoundBreakdown| {
                    [b.throughput, b.memory_latency, b.dependency, b.overhead].map(f64::to_bits)
                };
                assert_eq!(fractions(report.bound_breakdown), fractions(breakdown));
                waves += usize::from(kd.blocks.len() > timeline.slots);
                // A zero-length block ends at cycle 0 on a used slot, tied
                // with the never-used slots.
                ties += want.windows(2).filter(|w| w[0].2 == 0.0 && w[1].1 == 0.0).count();
            }
        }
        assert!(waves > 0, "no kernel ran more than one wave");
        assert!(ties > 0, "no zero-length block tied with a never-used slot");
    }

    #[test]
    fn a_tied_round_binds_the_later_bound() {
        let arch = v100();
        let r = rates(&arch, arch.sms as f64);
        // No global loads, so only the throughput and dependency bounds
        // compete; with `a = 2` the other warp adds exactly the
        // dependency stall, and the two rounds tie.
        let pass = TilePass { ld_global_per_thread: 0.0, ..gemm_pass(10) };
        let c_bar = r.intra_warp_stall;
        let bt = block_time_detail(&arch, &r, &[pass], 2.0, c_bar, 2.0, false);
        let round = warp_iter_cost(&r, &pass) + r.intra_warp_stall;
        assert_eq!(bt.dependency_cycles.to_bits(), (10.0 * round).to_bits());
        assert_eq!(bt.throughput_cycles, 0.0);
        assert_eq!(bt, reference_block_time(&arch, &r, &[pass], 2.0, c_bar, 2.0, false));
    }
}
