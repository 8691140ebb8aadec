//! The batching heuristics of §5: threshold batching (TLP priority) and
//! binary batching (ILP priority).

use crate::plan::BatchPlan;
use crate::tile::TileTask;
use ctb_gpu_specs::Thresholds;

/// Which batching policy assigns tiles to thread blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BatchingHeuristic {
    /// One tile per block — the classic design; used to evaluate the
    /// tiling engine alone (Fig 8) and as MAGMA's implicit policy.
    OneTilePerBlock,
    /// §5 "Threshold Batching": guarantee TLP first, then deepen blocks
    /// along K up to θ while TLP headroom remains.
    Threshold,
    /// §5 "Binary Batching": pair at most two tiles per block,
    /// min-K with max-K, minimising `|K_i + K_j − θ|` (Eq 5).
    Binary,
}

impl std::fmt::Display for BatchingHeuristic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchingHeuristic::OneTilePerBlock => write!(f, "one-tile-per-block"),
            BatchingHeuristic::Threshold => write!(f, "threshold"),
            BatchingHeuristic::Binary => write!(f, "binary"),
        }
    }
}

/// Assign tiles to thread blocks under the chosen heuristic, writing
/// the plan's arrays directly.
///
/// `threads` is the unified block size from the tiling solution; it
/// enters the TLP computation of threshold batching.
pub fn assign_blocks(
    tiles: &[TileTask],
    heuristic: BatchingHeuristic,
    thresholds: &Thresholds,
    threads: u32,
) -> BatchPlan {
    match heuristic {
        BatchingHeuristic::OneTilePerBlock => one_tile_per_block(tiles, threads),
        BatchingHeuristic::Threshold => threshold_batching(tiles, thresholds, threads),
        BatchingHeuristic::Binary => binary_batching(tiles, threads),
    }
}

/// Every tile in a block of its own.
fn one_tile_per_block(tiles: &[TileTask], threads: u32) -> BatchPlan {
    let mut plan = BatchPlan::with_capacity(threads, tiles.len(), tiles.len());
    for t in tiles {
        plan.push_tile(t);
        plan.end_block();
    }
    plan
}

/// Threshold batching (§5): guarantee TLP first, then deepen blocks.
///
/// The paper re-checks the prospective TLP, i.e. (remaining unassigned
/// tiles plus blocks already formed) × T, against *half* the tiling
/// engine's TLP threshold before each new block, and with headroom fills
/// the block until its accumulated K exceeds θ. A literal greedy reading
/// front-loads depth into a few straggler blocks; we keep the same two
/// constraints (final TLP stays at or above half the threshold, per-block
/// K depth bounded by θ) but bound every block's tile count by the
/// even-distribution cap, so the depth the TLP budget allows is spread
/// uniformly (see DESIGN.md §6).
fn threshold_batching(tiles: &[TileTask], thresholds: &Thresholds, threads: u32) -> BatchPlan {
    let half = thresholds.tlp_threshold / 2;
    let total_tlp = tiles.len() as u64 * threads as u64;
    if total_tlp <= half {
        // No TLP headroom: one tile per block maximises parallelism.
        return one_tile_per_block(tiles, threads);
    }
    // Fewest blocks that keep TLP at or above half the threshold, and
    // the per-block tile cap that spreads the depth evenly.
    let blocks_floor = (half / threads as u64).max(1) as usize;
    let depth_cap = tiles.len().div_ceil(blocks_floor).max(1);
    let theta = thresholds.theta as usize;
    // Whether each tile opens a new block: the block before it has
    // reached the cap or exceeded θ. Walked once to count the blocks
    // and once to write them.
    let opens = || {
        let (mut len, mut depth) = (0usize, 0usize);
        tiles.iter().map(move |t| {
            let open = len > 0 && (depth > theta || len >= depth_cap);
            if open {
                (len, depth) = (0, 0);
            }
            len += 1;
            depth += t.k;
            open
        })
    };
    let blocks = 1 + opens().filter(|&open| open).count();
    let mut plan = BatchPlan::with_capacity(threads, blocks, tiles.len());
    for (t, open) in tiles.iter().zip(opens()) {
        if open {
            plan.end_block();
        }
        plan.push_tile(t);
    }
    plan.end_block();
    plan
}

/// Binary batching (§5): sort tiles by ascending K and pair the smallest
/// with the largest (two pointers). At most two tiles per block; an odd
/// tile stays alone. This greedily minimises `Σ |K_i + K_j − θ|` for the
/// paper's Eq 5 under the pair-the-extremes policy the paper states.
fn binary_batching(tiles: &[TileTask], threads: u32) -> BatchPlan {
    // Tile indices by ascending K, ties in tile order.
    let mut sorted: Vec<usize> = (0..tiles.len()).collect();
    sorted.sort_unstable_by_key(|&i| (tiles[i].k, i));
    let mut plan = BatchPlan::with_capacity(threads, tiles.len().div_ceil(2), tiles.len());
    let (mut lo, mut hi) = (0usize, sorted.len());
    while lo < hi {
        plan.push_tile(&tiles[sorted[lo]]);
        if lo + 1 < hi {
            plan.push_tile(&tiles[sorted[hi - 1]]);
        }
        plan.end_block();
        lo += 1;
        hi -= 1;
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_tiling::strategy::{batched, StrategyKind, ThreadCount};

    fn tile(gemm: usize, idx: usize, k: usize) -> TileTask {
        TileTask {
            gemm,
            y: idx,
            x: 0,
            k,
            strategy: batched(StrategyKind::Small, ThreadCount::T256),
        }
    }

    fn tiles_with_k(count: usize, k: usize) -> Vec<TileTask> {
        (0..count).map(|i| tile(0, i, k)).collect()
    }

    fn v100() -> Thresholds {
        Thresholds::paper_v100()
    }

    /// Every assigned `(gemm, y, x)`, sorted.
    fn flatten(plan: &BatchPlan) -> Vec<(usize, usize, usize)> {
        let mut all: Vec<_> = (0..plan.num_tiles())
            .map(|t| (plan.gemm[t], plan.y_coord[t], plan.x_coord[t]))
            .collect();
        all.sort_unstable();
        all
    }

    /// Tiles per block.
    fn block_lens(plan: &BatchPlan) -> Vec<usize> {
        plan.tile.windows(2).map(|w| w[1] - w[0]).collect()
    }

    #[test]
    fn one_tile_per_block_is_identity() {
        let tiles = tiles_with_k(10, 64);
        let plan = assign_blocks(&tiles, BatchingHeuristic::OneTilePerBlock, &v100(), 256);
        assert_eq!(block_lens(&plan), vec![1; 10]);
    }

    #[test]
    fn threshold_batches_deeply_when_tlp_is_plentiful() {
        // 512 tiles x 256 threads = 131072 TLP >> 32768: blocks are
        // filled until K depth exceeds theta = 256.
        let tiles = tiles_with_k(512, 64);
        let plan = assign_blocks(&tiles, BatchingHeuristic::Threshold, &v100(), 256);
        assert_eq!(flatten(&plan).len(), 512, "every tile assigned once");
        // The even-distribution cap spreads depth uniformly: 128 blocks
        // of 4 tiles, keeping TLP exactly at half the threshold.
        assert_eq!(block_lens(&plan), vec![4; 128]);
        // θ would have allowed 5 tiles (64*5 = 320 > 256); the TLP
        // budget binds first here.
        let tlp = plan.tlp();
        assert!(tlp >= v100().tlp_threshold / 2);
    }

    #[test]
    fn threshold_keeps_one_to_one_when_tlp_is_scarce() {
        // 16 tiles: prospective TLP = 4096 < 32768 from the start.
        let tiles = tiles_with_k(16, 32);
        let plan = assign_blocks(&tiles, BatchingHeuristic::Threshold, &v100(), 256);
        assert_eq!(block_lens(&plan), vec![1; 16]);
    }

    #[test]
    fn threshold_respects_theta_for_large_k() {
        // Tiles with K = 512 > theta: one tile already exceeds theta, so
        // blocks never take a second tile.
        let tiles = tiles_with_k(400, 512);
        let plan = assign_blocks(&tiles, BatchingHeuristic::Threshold, &v100(), 256);
        assert_eq!(plan.max_tiles_per_block(), 1, "K >= theta must not batch");
    }

    #[test]
    fn binary_pairs_min_with_max() {
        let ks = [16usize, 32, 64, 128, 256, 512];
        let tiles: Vec<TileTask> = ks.iter().enumerate().map(|(i, &k)| tile(0, i, k)).collect();
        let plan = assign_blocks(&tiles, BatchingHeuristic::Binary, &v100(), 256);
        assert_eq!(plan.num_blocks(), 3);
        // Tile `i` sits at row `i`.
        let mut pair_ks: Vec<Vec<usize>> = plan
            .tile
            .windows(2)
            .map(|w| (w[0]..w[1]).map(|t| ks[plan.y_coord[t]]).collect())
            .collect();
        for p in &mut pair_ks {
            p.sort_unstable();
        }
        pair_ks.sort();
        assert_eq!(pair_ks, vec![vec![16, 512], vec![32, 256], vec![64, 128]]);
    }

    #[test]
    fn binary_leaves_odd_tile_alone() {
        let tiles = tiles_with_k(7, 64);
        let plan = assign_blocks(&tiles, BatchingHeuristic::Binary, &v100(), 256);
        assert_eq!(block_lens(&plan), vec![2, 2, 2, 1]);
        assert_eq!(flatten(&plan).len(), 7);
    }

    #[test]
    fn every_heuristic_preserves_the_tile_set() {
        let tiles: Vec<TileTask> = (0..257).map(|i| tile(i % 3, i / 3, 16 << (i % 5))).collect();
        for h in [
            BatchingHeuristic::OneTilePerBlock,
            BatchingHeuristic::Threshold,
            BatchingHeuristic::Binary,
        ] {
            let plan = assign_blocks(&tiles, h, &v100(), 256);
            let mut expect: Vec<_> = tiles.iter().map(|t| (t.gemm, t.y, t.x)).collect();
            expect.sort_unstable();
            assert_eq!(flatten(&plan), expect, "heuristic {h} lost tiles");
            assert!(block_lens(&plan).iter().all(|&n| n > 0), "no empty blocks");
        }
    }

    #[test]
    fn empty_tile_list_yields_no_blocks() {
        for h in [
            BatchingHeuristic::OneTilePerBlock,
            BatchingHeuristic::Threshold,
            BatchingHeuristic::Binary,
        ] {
            let plan = assign_blocks(&[], h, &v100(), 256);
            assert_eq!((plan.num_blocks(), plan.num_tiles()), (0, 0));
        }
    }
}
