//! Tiling strategies: Table 1 (single GEMM) and Table 2 (batched GEMM).
//!
//! A strategy fixes the C-tile size `BY × BX`, the K-chunk `BK` processed
//! per main-loop iteration (Fig 2), the thread count `T` of the block,
//! and the per-thread sub-tile `sub_y × sub_x` (Fig 5). The invariant
//! `BY·BX = T·sub_y·sub_x` holds for every entry — each thread owns
//! exactly one sub-tile of C.

use ctb_gpu_specs::BlockFootprint;

/// The six strategy families of Tables 1 and 2, from small to huge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StrategyKind {
    Small,
    Medium,
    Large,
    Tall,
    Wide,
    Huge,
}

impl StrategyKind {
    /// All kinds, smallest first (the priority-queue order of §4.2.3).
    pub const ALL: [StrategyKind; 6] = [
        StrategyKind::Small,
        StrategyKind::Medium,
        StrategyKind::Large,
        StrategyKind::Tall,
        StrategyKind::Wide,
        StrategyKind::Huge,
    ];

    /// Index in [`Self::ALL`].
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&k| k == self).expect("kind in ALL")
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StrategyKind::Small => "small",
            StrategyKind::Medium => "medium",
            StrategyKind::Large => "large",
            StrategyKind::Tall => "tall",
            StrategyKind::Wide => "wide",
            StrategyKind::Huge => "huge",
        };
        write!(f, "{s}")
    }
}

/// The unified thread-block sizes of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ThreadCount {
    T128,
    T256,
}

impl ThreadCount {
    pub fn threads(self) -> u32 {
        match self {
            ThreadCount::T128 => 128,
            ThreadCount::T256 => 256,
        }
    }
}

/// One tiling strategy: the unit the tiling engine selects per GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TilingStrategy {
    pub kind: StrategyKind,
    /// C-tile rows (`BY`).
    pub by: usize,
    /// C-tile columns (`BX`).
    pub bx: usize,
    /// K-chunk per main-loop iteration (`BK`, fixed to 8 in the paper).
    pub bk: usize,
    /// Threads per block.
    pub threads: u32,
    /// Per-thread sub-tile rows.
    pub sub_y: usize,
    /// Per-thread sub-tile columns.
    pub sub_x: usize,
}

impl TilingStrategy {
    const fn new(
        kind: StrategyKind,
        by: usize,
        bx: usize,
        threads: u32,
        sub_y: usize,
        sub_x: usize,
    ) -> Self {
        TilingStrategy { kind, by, bx, bk: 8, threads, sub_y, sub_x }
    }

    /// Number of C tiles for an `m × n` output under this strategy
    /// (partial boundary tiles count — `ceil` division).
    pub fn tiles(&self, m: usize, n: usize) -> usize {
        m.div_ceil(self.by) * n.div_ceil(self.bx)
    }

    /// Estimated registers per thread: the C sub-tile accumulators, the
    /// double-buffered A/B register fragments (Fig 2 lines 2–4) and a
    /// fixed allowance for addresses, loop counters and the software
    /// pipeline (~32 registers in real tuned SGEMM kernels).
    pub fn regs_per_thread(&self) -> u32 {
        (self.sub_y * self.sub_x + 2 * (self.sub_y + self.sub_x) + 32) as u32
    }

    /// Shared memory per block in bytes: double-buffered A and B tiles
    /// (Fig 2 lines 6–7), 4 bytes per f32.
    pub fn smem_bytes(&self) -> u32 {
        (2 * (self.by * self.bk + self.bk * self.bx) * 4) as u32
    }

    /// Resource footprint for the occupancy calculator.
    pub fn footprint(&self) -> BlockFootprint {
        BlockFootprint::new(self.threads, self.regs_per_thread(), self.smem_bytes())
    }

    /// Paper encoding of Table 2 strategies as 0‥=11 ("Tiling strategy"
    /// auxiliary array, Fig 6): 0–5 are the 128-thread versions
    /// small→huge, 6–11 the 256-thread versions.
    pub fn id(&self) -> u8 {
        let base = self.kind.index() as u8;
        match self.threads {
            128 => base,
            256 => base + 6,
            _ => panic!("id() is only defined for Table 2 strategies"),
        }
    }

    /// Inverse of [`Self::id`].
    pub fn from_id(id: u8) -> TilingStrategy {
        assert!(id < 12, "strategy id out of range");
        let tc = if id < 6 { ThreadCount::T128 } else { ThreadCount::T256 };
        batched(StrategyKind::ALL[(id % 6) as usize], tc)
    }

    /// True when a tile of this strategy fits the availability rule of
    /// §4.2.3 step 1: `BY ≤ M` and `BX ≤ N`.
    pub fn fits(&self, m: usize, n: usize) -> bool {
        self.by <= m && self.bx <= n
    }
}

impl std::fmt::Display for TilingStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}x{}x{}/T{}]", self.kind, self.by, self.bx, self.bk, self.threads)
    }
}

/// Table 1: tiling strategies for the single-GEMM scenario. Each entry
/// carries its own block size — the source of the idle-thread problem
/// when mixed in a batched kernel (Fig 3b).
pub const SINGLE_GEMM_STRATEGIES: [TilingStrategy; 6] = [
    TilingStrategy::new(StrategyKind::Small, 16, 16, 32, 4, 2),
    TilingStrategy::new(StrategyKind::Medium, 32, 32, 64, 4, 4),
    TilingStrategy::new(StrategyKind::Large, 64, 64, 64, 8, 8),
    TilingStrategy::new(StrategyKind::Tall, 128, 64, 128, 8, 8),
    TilingStrategy::new(StrategyKind::Wide, 64, 128, 128, 8, 8),
    TilingStrategy::new(StrategyKind::Huge, 128, 128, 256, 8, 8),
];

/// Table 2, 128-thread versions: unified thread structure for batched
/// GEMM.
pub const BATCHED_STRATEGIES_128: [TilingStrategy; 6] = [
    TilingStrategy::new(StrategyKind::Small, 16, 16, 128, 2, 1),
    TilingStrategy::new(StrategyKind::Medium, 32, 32, 128, 4, 2),
    TilingStrategy::new(StrategyKind::Large, 64, 64, 128, 8, 4),
    TilingStrategy::new(StrategyKind::Tall, 128, 64, 128, 8, 8),
    TilingStrategy::new(StrategyKind::Wide, 64, 128, 128, 8, 8),
    TilingStrategy::new(StrategyKind::Huge, 128, 128, 128, 16, 8),
];

/// Table 2, 256-thread versions.
pub const BATCHED_STRATEGIES_256: [TilingStrategy; 6] = [
    TilingStrategy::new(StrategyKind::Small, 16, 16, 256, 1, 1),
    TilingStrategy::new(StrategyKind::Medium, 32, 32, 256, 2, 2),
    TilingStrategy::new(StrategyKind::Large, 64, 64, 256, 4, 4),
    TilingStrategy::new(StrategyKind::Tall, 128, 64, 256, 8, 4),
    TilingStrategy::new(StrategyKind::Wide, 64, 128, 256, 8, 4),
    TilingStrategy::new(StrategyKind::Huge, 128, 128, 256, 8, 8),
];

/// All 12 Table 2 strategies in `id()` order.
pub fn batched_strategies() -> [TilingStrategy; 12] {
    let mut out = [BATCHED_STRATEGIES_128[0]; 12];
    out[..6].copy_from_slice(&BATCHED_STRATEGIES_128);
    out[6..].copy_from_slice(&BATCHED_STRATEGIES_256);
    out
}

/// The Table 2 strategy of the given kind and thread count.
pub fn batched(kind: StrategyKind, tc: ThreadCount) -> TilingStrategy {
    let table = match tc {
        ThreadCount::T128 => &BATCHED_STRATEGIES_128,
        ThreadCount::T256 => &BATCHED_STRATEGIES_256,
    };
    table[kind.index()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_thread_table_1_wait_one_tile_per_thread_invariant() {
        // BY·BX = T·sub_y·sub_x for every entry of every table.
        for s in SINGLE_GEMM_STRATEGIES
            .iter()
            .chain(&BATCHED_STRATEGIES_128)
            .chain(&BATCHED_STRATEGIES_256)
        {
            assert_eq!(
                s.by * s.bx,
                s.threads as usize * s.sub_y * s.sub_x,
                "invariant broken for {s}"
            );
            assert_eq!(s.bk, 8, "paper fixes BK = 8");
        }
    }

    #[test]
    fn table1_matches_paper() {
        // Spot-check Table 1 rows: (BY, BX, threads, sub-tile).
        let rows: Vec<_> = SINGLE_GEMM_STRATEGIES
            .iter()
            .map(|s| (s.by, s.bx, s.threads, s.sub_y, s.sub_x))
            .collect();
        assert_eq!(
            rows,
            vec![
                (16, 16, 32, 4, 2),
                (32, 32, 64, 4, 4),
                (64, 64, 64, 8, 8),
                (128, 64, 128, 8, 8),
                (64, 128, 128, 8, 8),
                (128, 128, 256, 8, 8),
            ]
        );
    }

    #[test]
    fn table2_matches_paper() {
        let rows128: Vec<_> =
            BATCHED_STRATEGIES_128.iter().map(|s| (s.by, s.bx, s.sub_y, s.sub_x)).collect();
        assert_eq!(
            rows128,
            vec![(16, 16, 2, 1), (32, 32, 4, 2), (64, 64, 8, 4), (128, 64, 8, 8), (64, 128, 8, 8), (128, 128, 16, 8)]
        );
        let rows256: Vec<_> =
            BATCHED_STRATEGIES_256.iter().map(|s| (s.by, s.bx, s.sub_y, s.sub_x)).collect();
        assert_eq!(
            rows256,
            vec![(16, 16, 1, 1), (32, 32, 2, 2), (64, 64, 4, 4), (128, 64, 8, 4), (64, 128, 8, 4), (128, 128, 8, 8)]
        );
        assert!(BATCHED_STRATEGIES_128.iter().all(|s| s.threads == 128));
        assert!(BATCHED_STRATEGIES_256.iter().all(|s| s.threads == 256));
    }

    #[test]
    fn id_round_trips_all_twelve() {
        for (i, s) in batched_strategies().iter().enumerate() {
            assert_eq!(s.id() as usize, i);
            assert_eq!(TilingStrategy::from_id(s.id()), *s);
        }
    }

    #[test]
    fn tiles_uses_ceiling_division() {
        let small = batched(StrategyKind::Small, ThreadCount::T256);
        assert_eq!(small.tiles(16, 32), 2);
        assert_eq!(small.tiles(17, 32), 4);
        assert_eq!(small.tiles(1, 1), 1);
    }

    #[test]
    fn fits_rule() {
        let medium = batched(StrategyKind::Medium, ThreadCount::T256);
        assert!(medium.fits(32, 32));
        assert!(!medium.fits(16, 32));
        assert!(!medium.fits(32, 16));
    }

    #[test]
    fn footprints_are_resident_on_v100() {
        use ctb_gpu_specs::{occupancy, ArchSpec};
        let arch = ArchSpec::volta_v100();
        for s in batched_strategies() {
            let occ = occupancy::occupancy(&arch, &s.footprint());
            assert!(occ.blocks_per_sm >= 1, "{s} cannot run: {occ:?}");
        }
    }

    #[test]
    fn smem_is_double_buffered_tiles() {
        let large = batched(StrategyKind::Large, ThreadCount::T256);
        // 2 * (64*8 + 8*64) * 4 bytes = 8 KiB.
        assert_eq!(large.smem_bytes(), 8192);
    }
}
