//! Architecture descriptions for the GPUs evaluated in the paper.
//!
//! Every parameter is taken from the public NVIDIA datasheets /
//! whitepapers for the respective device. The timing simulator in
//! `ctb-sim` consumes these numbers; nothing in the framework itself is
//! hard-coded to a device, which is how the paper's §7.4 portability
//! experiment (Fig 11) is reproduced.

/// GPU micro-architecture generation. Maxwell/Pascal/Volta are the
/// paper's platforms; Turing and Ampere are post-paper extension
/// presets; Hopper and Blackwell are the tile-centric / multi-chiplet
/// generations behind the locality presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchFamily {
    Maxwell,
    Pascal,
    Volta,
    Turing,
    Ampere,
    Hopper,
    Blackwell,
}

impl std::fmt::Display for ArchFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchFamily::Maxwell => write!(f, "Maxwell"),
            ArchFamily::Pascal => write!(f, "Pascal"),
            ArchFamily::Volta => write!(f, "Volta"),
            ArchFamily::Turing => write!(f, "Turing"),
            ArchFamily::Ampere => write!(f, "Ampere"),
            ArchFamily::Hopper => write!(f, "Hopper"),
            ArchFamily::Blackwell => write!(f, "Blackwell"),
        }
    }
}

/// Chiplet-level memory topology of one device.
///
/// Monolithic GPUs (everything up to and including Hopper here) expose
/// one flat HBM pool: `unified` — a single chiplet owning the full
/// bandwidth, with no interposer to cross. Multi-chiplet parts
/// (Blackwell-style dual-die, MCM-GPU research designs) split the
/// aggregate bandwidth into a *local* share (an SM reading HBM attached
/// to its own chiplet) and a *remote* share (reads that cross the
/// interposer), and every crossing pays a fixed latency. The invariant
/// `local + remote == ArchSpec::mem_bandwidth_gbps` holds exactly for
/// every preset (the splits are constructed as `total·f` and
/// `total − total·f`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipletTopology {
    /// Number of compute chiplets (dies) behind one device. `1` means a
    /// monolithic part: no interposer, no remote region.
    pub chiplets: u32,
    /// Aggregate bandwidth (GB/s) of chiplet-local HBM accesses.
    pub local_bandwidth_gbps: f64,
    /// Aggregate bandwidth (GB/s) available across the interposer.
    /// `0.0` on monolithic parts.
    pub remote_bandwidth_gbps: f64,
    /// Fixed latency (µs) added to an operand fetch that crosses the
    /// interposer at least once.
    pub interposer_latency_us: f64,
}

ctb_savestate::savestate_struct!(ChipletTopology {
    chiplets,
    local_bandwidth_gbps,
    remote_bandwidth_gbps,
    interposer_latency_us,
});

impl ChipletTopology {
    /// The flat-memory topology of a monolithic GPU: one chiplet, the
    /// whole bandwidth local, nothing remote, no crossing latency.
    pub fn unified(total_bandwidth_gbps: f64) -> Self {
        ChipletTopology {
            chiplets: 1,
            local_bandwidth_gbps: total_bandwidth_gbps,
            remote_bandwidth_gbps: 0.0,
            interposer_latency_us: 0.0,
        }
    }

    /// A multi-chiplet split of `total_bandwidth_gbps`: `local_fraction`
    /// of it is chiplet-local, the exact remainder crosses the
    /// interposer (so the two shares always sum to the total
    /// bit-exactly).
    pub fn split(
        chiplets: u32,
        total_bandwidth_gbps: f64,
        local_fraction: f64,
        interposer_latency_us: f64,
    ) -> Self {
        assert!(chiplets >= 2, "a split topology needs at least two chiplets");
        assert!((0.0..=1.0).contains(&local_fraction), "local fraction must be in [0, 1]");
        let local = total_bandwidth_gbps * local_fraction;
        ChipletTopology {
            chiplets,
            local_bandwidth_gbps: local,
            remote_bandwidth_gbps: total_bandwidth_gbps - local,
            interposer_latency_us,
        }
    }

    /// `true` for monolithic (single-chiplet) parts.
    pub fn is_unified(&self) -> bool {
        self.chiplets <= 1
    }

    /// `local + remote` — must equal the owning spec's
    /// `mem_bandwidth_gbps`.
    pub fn total_bandwidth_gbps(&self) -> f64 {
        self.local_bandwidth_gbps + self.remote_bandwidth_gbps
    }

    /// The fraction of an operand footprint that crosses the interposer
    /// when the operands are *not* already resident on this device:
    /// striped HBM leaves `1/chiplets` of the footprint local to the
    /// consuming chiplet and the rest remote. `0.0` on monolithic parts.
    pub fn remote_fraction(&self) -> f64 {
        if self.chiplets <= 1 {
            0.0
        } else {
            (self.chiplets - 1) as f64 / self.chiplets as f64
        }
    }
}

/// Parameters of one GPU device, as consumed by the timing simulator.
///
/// Latency/overhead values are representative micro-benchmark figures for
/// the generation (e.g. ~400–600 cycle DRAM latency, ~5 µs kernel-launch
/// overhead); the paper's qualitative results depend on their order of
/// magnitude, not their exact value — see `DESIGN.md` §3.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchSpec {
    /// Human-readable device name, e.g. `"Tesla V100"`.
    pub name: &'static str,
    /// Micro-architecture generation.
    pub family: ArchFamily,
    /// Number of streaming multiprocessors.
    pub sms: u32,
    /// FP32 FMA lanes per SM (one FMA per lane per cycle).
    pub fp32_lanes_per_sm: u32,
    /// Core clock in GHz used to convert cycles to wall time.
    pub clock_ghz: f64,
    /// 32-bit registers per SM.
    pub regfile_per_sm: u32,
    /// Maximum registers addressable by one thread.
    pub max_regs_per_thread: u32,
    /// Shared memory per SM in bytes (maximum configurable).
    pub smem_per_sm: u32,
    /// Shared memory addressable by one block in bytes.
    pub max_smem_per_block: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum threads in one block.
    pub max_threads_per_block: u32,
    /// Warp width in threads.
    pub warp_size: u32,
    /// Aggregate DRAM bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Average global-memory (DRAM) load latency in core cycles.
    pub global_mem_latency: u32,
    /// Shared-memory load latency in core cycles.
    pub shared_mem_latency: u32,
    /// Host-side overhead of launching one kernel, in microseconds.
    pub kernel_launch_overhead_us: f64,
    /// Cycles to dispatch one thread block to an SM (rasteriser +
    /// block-level setup; also the cost a *bubble block* pays).
    pub block_dispatch_cycles: u32,
    /// Warp-instruction issue slots per SM per cycle (warp schedulers).
    pub issue_width: u32,
    /// Chiplet-level memory topology. [`ChipletTopology::unified`] for
    /// every monolithic preset (all of Table 1), a real split for the
    /// multi-chiplet presets.
    pub topology: ChipletTopology,
}

impl ArchSpec {
    /// Peak FP32 throughput in GFLOP/s (2 flops per FMA).
    pub fn peak_gflops(&self) -> f64 {
        2.0 * self.sms as f64 * self.fp32_lanes_per_sm as f64 * self.clock_ghz
    }

    /// DRAM bandwidth available to one SM per core cycle, in bytes.
    pub fn bytes_per_cycle_per_sm(&self) -> f64 {
        self.mem_bandwidth_gbps * 1.0e9 / (self.sms as f64 * self.clock_ghz * 1.0e9)
    }

    /// Convert core cycles to microseconds.
    pub fn cycles_to_us(&self, cycles: f64) -> f64 {
        cycles / (self.clock_ghz * 1000.0)
    }

    /// Convert microseconds to core cycles.
    pub fn us_to_cycles(&self, us: f64) -> f64 {
        us * self.clock_ghz * 1000.0
    }

    /// Maximum warps resident on one SM.
    pub fn max_warps_per_sm(&self) -> u32 {
        self.max_threads_per_sm / self.warp_size
    }

    /// Total resident-thread capacity of the device.
    pub fn max_resident_threads(&self) -> u64 {
        self.sms as u64 * self.max_threads_per_sm as u64
    }

    /// Tesla V100 (Volta, SXM2 16 GB): the paper's primary platform.
    pub fn volta_v100() -> Self {
        ArchSpec {
            name: "Tesla V100",
            family: ArchFamily::Volta,
            sms: 80,
            fp32_lanes_per_sm: 64,
            clock_ghz: 1.38,
            regfile_per_sm: 65_536,
            max_regs_per_thread: 255,
            smem_per_sm: 96 * 1024,
            max_smem_per_block: 96 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            warp_size: 32,
            mem_bandwidth_gbps: 900.0,
            global_mem_latency: 400,
            shared_mem_latency: 19,
            kernel_launch_overhead_us: 5.0,
            block_dispatch_cycles: 200,
            issue_width: 4,
            topology: ChipletTopology::unified(900.0),
        }
    }

    /// Tesla P100 (Pascal, SXM2).
    pub fn pascal_p100() -> Self {
        ArchSpec {
            name: "Tesla P100",
            family: ArchFamily::Pascal,
            sms: 56,
            fp32_lanes_per_sm: 64,
            clock_ghz: 1.30,
            regfile_per_sm: 65_536,
            max_regs_per_thread: 255,
            smem_per_sm: 64 * 1024,
            max_smem_per_block: 48 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            warp_size: 32,
            mem_bandwidth_gbps: 732.0,
            global_mem_latency: 450,
            shared_mem_latency: 24,
            kernel_launch_overhead_us: 5.5,
            block_dispatch_cycles: 220,
            issue_width: 4,
            topology: ChipletTopology::unified(732.0),
        }
    }

    /// GeForce GTX 1080 Ti (Pascal, GDDR5X).
    pub fn pascal_gtx1080ti() -> Self {
        ArchSpec {
            name: "GTX 1080 Ti",
            family: ArchFamily::Pascal,
            sms: 28,
            fp32_lanes_per_sm: 128,
            clock_ghz: 1.58,
            regfile_per_sm: 65_536,
            max_regs_per_thread: 255,
            smem_per_sm: 96 * 1024,
            max_smem_per_block: 48 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            warp_size: 32,
            mem_bandwidth_gbps: 484.0,
            global_mem_latency: 470,
            shared_mem_latency: 24,
            kernel_launch_overhead_us: 5.5,
            block_dispatch_cycles: 220,
            issue_width: 4,
            topology: ChipletTopology::unified(484.0),
        }
    }

    /// NVIDIA Titan Xp (Pascal).
    pub fn pascal_titan_xp() -> Self {
        ArchSpec {
            name: "Titan Xp",
            family: ArchFamily::Pascal,
            sms: 30,
            fp32_lanes_per_sm: 128,
            clock_ghz: 1.58,
            regfile_per_sm: 65_536,
            max_regs_per_thread: 255,
            smem_per_sm: 96 * 1024,
            max_smem_per_block: 48 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            warp_size: 32,
            mem_bandwidth_gbps: 548.0,
            global_mem_latency: 470,
            shared_mem_latency: 24,
            kernel_launch_overhead_us: 5.5,
            block_dispatch_cycles: 220,
            issue_width: 4,
            topology: ChipletTopology::unified(548.0),
        }
    }

    /// Tesla M60 (Maxwell; parameters for one of the two on-board GPUs).
    pub fn maxwell_m60() -> Self {
        ArchSpec {
            name: "Tesla M60",
            family: ArchFamily::Maxwell,
            sms: 16,
            fp32_lanes_per_sm: 128,
            clock_ghz: 1.18,
            regfile_per_sm: 65_536,
            max_regs_per_thread: 255,
            smem_per_sm: 96 * 1024,
            max_smem_per_block: 48 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            warp_size: 32,
            mem_bandwidth_gbps: 160.0,
            global_mem_latency: 500,
            shared_mem_latency: 28,
            kernel_launch_overhead_us: 6.0,
            block_dispatch_cycles: 240,
            issue_width: 4,
            topology: ChipletTopology::unified(160.0),
        }
    }

    /// GeForce GTX Titan X (Maxwell).
    pub fn maxwell_titan_x() -> Self {
        ArchSpec {
            name: "GTX Titan X",
            family: ArchFamily::Maxwell,
            sms: 24,
            fp32_lanes_per_sm: 128,
            clock_ghz: 1.00,
            regfile_per_sm: 65_536,
            max_regs_per_thread: 255,
            smem_per_sm: 96 * 1024,
            max_smem_per_block: 48 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            warp_size: 32,
            mem_bandwidth_gbps: 336.0,
            global_mem_latency: 500,
            shared_mem_latency: 28,
            kernel_launch_overhead_us: 6.0,
            block_dispatch_cycles: 240,
            issue_width: 4,
            topology: ChipletTopology::unified(336.0),
        }
    }

    /// Tesla T4 (Turing) — a post-paper extension preset, not part of
    /// the paper's evaluation set.
    pub fn turing_t4() -> Self {
        ArchSpec {
            name: "Tesla T4",
            family: ArchFamily::Turing,
            sms: 40,
            fp32_lanes_per_sm: 64,
            clock_ghz: 1.35,
            regfile_per_sm: 65_536,
            max_regs_per_thread: 255,
            smem_per_sm: 64 * 1024,
            max_smem_per_block: 64 * 1024,
            max_threads_per_sm: 1024,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            warp_size: 32,
            mem_bandwidth_gbps: 320.0,
            global_mem_latency: 430,
            shared_mem_latency: 20,
            kernel_launch_overhead_us: 5.0,
            block_dispatch_cycles: 200,
            issue_width: 4,
            topology: ChipletTopology::unified(320.0),
        }
    }

    /// A100 (Ampere, SXM 40 GB) — a post-paper extension preset.
    pub fn ampere_a100() -> Self {
        ArchSpec {
            name: "A100",
            family: ArchFamily::Ampere,
            sms: 108,
            fp32_lanes_per_sm: 64,
            clock_ghz: 1.41,
            regfile_per_sm: 65_536,
            max_regs_per_thread: 255,
            smem_per_sm: 164 * 1024,
            max_smem_per_block: 160 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            warp_size: 32,
            mem_bandwidth_gbps: 1555.0,
            global_mem_latency: 390,
            shared_mem_latency: 18,
            kernel_launch_overhead_us: 4.0,
            block_dispatch_cycles: 180,
            issue_width: 4,
            topology: ChipletTopology::unified(1555.0),
        }
    }

    /// H100 (Hopper, SXM) — the tile-centric generation preset. Still
    /// monolithic (one chiplet, flat HBM3), so its topology is unified;
    /// it anchors the fast end of the chiplet pool.
    pub fn hopper_h100() -> Self {
        ArchSpec {
            name: "H100",
            family: ArchFamily::Hopper,
            sms: 132,
            fp32_lanes_per_sm: 128,
            clock_ghz: 1.83,
            regfile_per_sm: 65_536,
            max_regs_per_thread: 255,
            smem_per_sm: 228 * 1024,
            max_smem_per_block: 227 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            warp_size: 32,
            mem_bandwidth_gbps: 3350.0,
            global_mem_latency: 380,
            shared_mem_latency: 17,
            kernel_launch_overhead_us: 3.5,
            block_dispatch_cycles: 170,
            issue_width: 4,
            topology: ChipletTopology::unified(3350.0),
        }
    }

    /// B200 (Blackwell, SXM) — dual-die: two compute chiplets behind
    /// one device, 75 % of the aggregate bandwidth chiplet-local, the
    /// rest crossing the die-to-die interposer at a ~2.5 µs operand
    /// re-staging cost.
    pub fn blackwell_b200() -> Self {
        ArchSpec {
            name: "B200",
            family: ArchFamily::Blackwell,
            sms: 192,
            fp32_lanes_per_sm: 128,
            clock_ghz: 1.80,
            regfile_per_sm: 65_536,
            max_regs_per_thread: 255,
            smem_per_sm: 228 * 1024,
            max_smem_per_block: 227 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            warp_size: 32,
            mem_bandwidth_gbps: 8000.0,
            global_mem_latency: 370,
            shared_mem_latency: 17,
            kernel_launch_overhead_us: 3.5,
            block_dispatch_cycles: 170,
            issue_width: 4,
            topology: ChipletTopology::split(2, 8000.0, 0.75, 2.5),
        }
    }

    /// A 4-die MCM-GPU research design in the spirit of the
    /// multi-chiplet GEMM locality literature: four modest chiplets on
    /// one interposer, only 60 % of the bandwidth local, and a fatter
    /// crossing cost — the preset that makes locality-blind placement
    /// visibly expensive.
    pub fn mcm_gpu_4die() -> Self {
        ArchSpec {
            name: "MCM-GPU 4-die",
            family: ArchFamily::Blackwell,
            sms: 128,
            fp32_lanes_per_sm: 64,
            clock_ghz: 1.40,
            regfile_per_sm: 65_536,
            max_regs_per_thread: 255,
            smem_per_sm: 128 * 1024,
            max_smem_per_block: 96 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            warp_size: 32,
            mem_bandwidth_gbps: 3000.0,
            global_mem_latency: 420,
            shared_mem_latency: 20,
            kernel_launch_overhead_us: 4.5,
            block_dispatch_cycles: 200,
            issue_width: 4,
            topology: ChipletTopology::split(4, 3000.0, 0.6, 4.0),
        }
    }

    /// Post-paper extension presets (Turing, Ampere) — usable with the
    /// full framework but excluded from the paper-reproduction figures.
    pub fn extension_presets() -> Vec<ArchSpec> {
        vec![ArchSpec::turing_t4(), ArchSpec::ampere_a100()]
    }

    /// All device presets, V100 first (the paper's main platform).
    pub fn all_presets() -> Vec<ArchSpec> {
        vec![
            ArchSpec::volta_v100(),
            ArchSpec::pascal_p100(),
            ArchSpec::pascal_gtx1080ti(),
            ArchSpec::pascal_titan_xp(),
            ArchSpec::maxwell_m60(),
            ArchSpec::maxwell_titan_x(),
        ]
    }

    /// The five portability targets of Fig 11 (everything except V100).
    pub fn fig11_presets() -> Vec<ArchSpec> {
        ArchSpec::all_presets()
            .into_iter()
            .filter(|a| a.name != "Tesla V100")
            .collect()
    }

    /// A heterogeneous device pool of `n` paper GPUs, fastest first by
    /// peak FP32 throughput: V100, Titan Xp, GTX 1080 Ti, P100,
    /// GTX Titan X, M60 — cycling through that order when `n > 6`.
    /// This is the canonical pool for multi-device experiments: pool
    /// index 0 is always the strongest device, so "best single device"
    /// baselines and "kill the fastest device" resilience runs are
    /// well-defined.
    pub fn pool_presets(n: usize) -> Vec<ArchSpec> {
        let mut order = ArchSpec::all_presets();
        order.sort_by(|a, b| b.peak_gflops().total_cmp(&a.peak_gflops()));
        (0..n).map(|i| order[i % order.len()].clone()).collect()
    }

    /// The tile-centric / multi-chiplet presets (Hopper and newer),
    /// kept apart from the Table 1 set so the paper-reproduction pools
    /// and goldens never change underneath the figures.
    pub fn chiplet_presets() -> Vec<ArchSpec> {
        vec![ArchSpec::hopper_h100(), ArchSpec::blackwell_b200(), ArchSpec::mcm_gpu_4die()]
    }

    /// A heterogeneous pool of `n` modern devices, fastest first by
    /// peak FP32 throughput (B200, H100, MCM-GPU 4-die), cycling when
    /// `n > 3` — the chiplet-era analogue of [`ArchSpec::pool_presets`]
    /// and the canonical pool for locality experiments: it always mixes
    /// monolithic and multi-chiplet devices.
    pub fn chiplet_pool_presets(n: usize) -> Vec<ArchSpec> {
        let mut order = ArchSpec::chiplet_presets();
        order.sort_by(|a, b| b.peak_gflops().total_cmp(&a.peak_gflops()));
        (0..n).map(|i| order[i % order.len()].clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_peak_is_about_14_tflops() {
        // The paper quotes ~15 TFlops peak and 14 TFlops measured for
        // cuBLAS at 5120^3; our spec puts the analytical peak in range.
        let v100 = ArchSpec::volta_v100();
        let peak = v100.peak_gflops();
        assert!((14_000.0..15_500.0).contains(&peak), "peak = {peak}");
    }

    #[test]
    fn cycle_time_round_trips() {
        let a = ArchSpec::volta_v100();
        let us = a.cycles_to_us(1_380_000.0);
        assert!((us - 1000.0).abs() < 1e-9);
        assert!((a.us_to_cycles(us) - 1_380_000.0).abs() < 1e-6);
    }

    #[test]
    fn presets_have_distinct_names_and_sane_values() {
        let all = ArchSpec::all_presets();
        assert_eq!(all.len(), 6);
        let mut names: Vec<_> = all.iter().map(|a| a.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6, "duplicate preset names");
        for a in &all {
            assert!(a.sms > 0 && a.clock_ghz > 0.5);
            assert!(a.max_threads_per_sm % a.warp_size == 0);
            assert!(a.max_warps_per_sm() >= 32);
            assert!(a.bytes_per_cycle_per_sm() > 0.5);
        }
    }

    #[test]
    fn extension_presets_are_sane_and_plannable() {
        for a in ArchSpec::extension_presets() {
            assert!(a.sms > 0 && a.clock_ghz > 0.5);
            assert!(a.max_warps_per_sm() >= 32);
            assert!(matches!(a.family, ArchFamily::Turing | ArchFamily::Ampere));
        }
        // Extension presets never leak into the paper's figure set.
        let fig11: Vec<_> = ArchSpec::fig11_presets().iter().map(|a| a.name).collect();
        assert!(!fig11.contains(&"Tesla T4"));
        assert!(!fig11.contains(&"A100"));
    }

    #[test]
    fn fig11_excludes_v100() {
        let f = ArchSpec::fig11_presets();
        assert_eq!(f.len(), 5);
        assert!(f.iter().all(|a| a.name != "Tesla V100"));
    }

    #[test]
    fn v100_resident_thread_capacity() {
        // 80 SMs x 2048 threads: the denominator behind the paper's
        // TLP threshold discussion (65536 = 40% of capacity).
        let v100 = ArchSpec::volta_v100();
        assert_eq!(v100.max_resident_threads(), 163_840);
    }

    #[test]
    fn all_presets_match_table1_published_specs() {
        // Golden pin of the paper's Table 1 (SM count, boost clock GHz,
        // memory bandwidth GB/s) for the six evaluation GPUs, so
        // device-pool construction can never silently drift from the
        // published hardware the results were measured on.
        let golden: &[(&str, u32, f64, f64)] = &[
            ("Tesla V100", 80, 1.38, 900.0),
            ("Tesla P100", 56, 1.30, 732.0),
            ("GTX 1080 Ti", 28, 1.58, 484.0),
            ("Titan Xp", 30, 1.58, 548.0),
            ("Tesla M60", 16, 1.18, 160.0),
            ("GTX Titan X", 24, 1.00, 336.0),
        ];
        let all = ArchSpec::all_presets();
        assert_eq!(all.len(), golden.len());
        for (name, sms, clock, bw) in golden {
            let a = all
                .iter()
                .find(|a| a.name == *name)
                .unwrap_or_else(|| panic!("preset {name} missing from all_presets()"));
            assert_eq!(a.sms, *sms, "{name}: SM count drifted from Table 1");
            assert_eq!(a.clock_ghz, *clock, "{name}: clock drifted from Table 1");
            assert_eq!(a.mem_bandwidth_gbps, *bw, "{name}: bandwidth drifted from Table 1");
        }
    }

    #[test]
    fn pool_presets_are_fastest_first_and_cycle() {
        let pool = ArchSpec::pool_presets(8);
        assert_eq!(pool.len(), 8);
        let names: Vec<_> = pool.iter().map(|a| a.name).collect();
        assert_eq!(
            &names[..6],
            &["Tesla V100", "Titan Xp", "GTX 1080 Ti", "Tesla P100", "GTX Titan X", "Tesla M60"],
            "pool order must be descending peak GFLOPS"
        );
        // n > 6 cycles back through the order, fastest first again.
        assert_eq!(names[6], "Tesla V100");
        assert_eq!(names[7], "Titan Xp");
        for w in pool[..6].windows(2) {
            assert!(w[0].peak_gflops() >= w[1].peak_gflops());
        }
        assert!(ArchSpec::pool_presets(0).is_empty());
    }

    #[test]
    fn pool_presets_16_matches_golden_cycle() {
        // Golden expansion for the discrete-event sweep's smallest pool
        // size: two full passes through the six presets plus the first
        // four again, deterministically. A 10k-device pool is this same
        // cycle 1666 times over — if n=16 holds, any n holds.
        let golden = [
            "Tesla V100",
            "Titan Xp",
            "GTX 1080 Ti",
            "Tesla P100",
            "GTX Titan X",
            "Tesla M60",
            "Tesla V100",
            "Titan Xp",
            "GTX 1080 Ti",
            "Tesla P100",
            "GTX Titan X",
            "Tesla M60",
            "Tesla V100",
            "Titan Xp",
            "GTX 1080 Ti",
            "Tesla P100",
        ];
        let pool = ArchSpec::pool_presets(16);
        let names: Vec<_> = pool.iter().map(|a| a.name).collect();
        assert_eq!(names, golden, "n=16 pool drifted from the golden preset cycle");
        // Cycled entries are full clones of their preset, not variants.
        for (i, a) in pool.iter().enumerate() {
            assert_eq!(a.sms, pool[i % 6].sms);
            assert_eq!(a.clock_ghz, pool[i % 6].clock_ghz);
        }
    }

    #[test]
    fn every_preset_topology_bandwidth_split_sums_to_spec_total() {
        // The locality model's core invariant: local + remote bandwidth
        // equals the spec's aggregate bandwidth *exactly* (the splits
        // are constructed as total·f and total − total·f, so this holds
        // bit-for-bit, not just within an epsilon).
        let mut everything = ArchSpec::all_presets();
        everything.extend(ArchSpec::extension_presets());
        everything.extend(ArchSpec::chiplet_presets());
        assert_eq!(everything.len(), 11);
        for a in &everything {
            assert_eq!(
                a.topology.total_bandwidth_gbps(),
                a.mem_bandwidth_gbps,
                "{}: topology bandwidth split does not sum to the spec total",
                a.name
            );
            assert!(a.topology.chiplets >= 1);
            assert!(a.topology.local_bandwidth_gbps > 0.0);
            assert!(a.topology.remote_bandwidth_gbps >= 0.0);
            assert!(a.topology.interposer_latency_us >= 0.0);
        }
    }

    #[test]
    fn table1_and_extension_presets_are_unified() {
        // Everything up to Ampere is monolithic: one chiplet, zero
        // remote bandwidth, zero crossing latency, zero remote
        // fraction. This is what pins single-chiplet pools to today's
        // placement decisions bitwise.
        let mut flat = ArchSpec::all_presets();
        flat.extend(ArchSpec::extension_presets());
        flat.push(ArchSpec::hopper_h100());
        for a in &flat {
            assert!(a.topology.is_unified(), "{} should be monolithic", a.name);
            assert_eq!(a.topology.chiplets, 1);
            assert_eq!(a.topology.remote_bandwidth_gbps, 0.0);
            assert_eq!(a.topology.interposer_latency_us, 0.0);
            assert_eq!(a.topology.remote_fraction(), 0.0);
        }
    }

    #[test]
    fn multi_chiplet_presets_have_real_splits() {
        for a in [ArchSpec::blackwell_b200(), ArchSpec::mcm_gpu_4die()] {
            assert!(!a.topology.is_unified(), "{} should be multi-chiplet", a.name);
            assert!(a.topology.chiplets >= 2);
            assert!(a.topology.remote_bandwidth_gbps > 0.0);
            assert!(a.topology.interposer_latency_us > 0.0);
            assert!(a.topology.remote_fraction() > 0.0 && a.topology.remote_fraction() < 1.0);
        }
    }

    #[test]
    fn chiplet_pool_presets_are_fastest_first_and_cycle() {
        // Golden cycle for the locality pool: B200, H100, MCM-GPU 4-die
        // by descending peak GFLOPS, repeating — and every pool of n ≥ 2
        // contains at least one multi-chiplet device, so locality
        // experiments on this pool are never vacuous.
        let pool = ArchSpec::chiplet_pool_presets(7);
        let names: Vec<_> = pool.iter().map(|a| a.name).collect();
        assert_eq!(
            names,
            ["B200", "H100", "MCM-GPU 4-die", "B200", "H100", "MCM-GPU 4-die", "B200"],
            "chiplet pool drifted from the golden fastest-first cycle"
        );
        for w in pool[..3].windows(2) {
            assert!(w[0].peak_gflops() >= w[1].peak_gflops());
        }
        assert!(pool.iter().any(|a| !a.topology.is_unified()));
        assert!(pool.iter().any(|a| a.topology.is_unified()));
        assert!(ArchSpec::chiplet_pool_presets(0).is_empty());
    }

    #[test]
    fn split_topology_construction_is_exact() {
        let t = ChipletTopology::split(4, 3000.0, 0.6, 4.0);
        assert_eq!(t.local_bandwidth_gbps + t.remote_bandwidth_gbps, 3000.0);
        assert_eq!(t.chiplets, 4);
        assert_eq!(t.remote_fraction(), 0.75);
        let u = ChipletTopology::unified(900.0);
        assert_eq!(u.total_bandwidth_gbps(), 900.0);
        assert!(u.is_unified());
    }
}
