//! The batching-scheme representation of §6 (Fig 6): five auxiliary
//! arrays that can describe any assignment of tiles to thread blocks.

use crate::tile::TileTask;
use ctb_matrix::GemmShape;
use ctb_tiling::{TilingSolution, TilingStrategy};

/// The five auxiliary arrays of Fig 6 plus the unified block size: a
/// prefix array over the blocks and four flat arrays over the tiles, so
/// a scheme of any shape takes five allocations.
///
/// * `tile[b] .. tile[b+1]` is the range of tile indices owned by thread
///   block `b` (`tile.len() == blocks + 1`);
/// * `gemm[t]`, `tiling[t]`, `y_coord[t]`, `x_coord[t]` describe tile
///   `t`: its source GEMM, the Table 2 strategy id (0‥=11), and its tile
///   coordinates within the GEMM's grid.
///
/// The batching heuristics write these arrays block by block;
/// [`BatchPlan::from_blocks`] flattens a scheme built by hand.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPlan {
    /// Per-block prefix offsets into the tile arrays.
    pub tile: Vec<usize>,
    /// Per-tile source GEMM index.
    pub gemm: Vec<usize>,
    /// Per-tile Table 2 strategy id.
    pub tiling: Vec<u8>,
    /// Per-tile Y coordinate (tile row).
    pub y_coord: Vec<usize>,
    /// Per-tile X coordinate (tile column).
    pub x_coord: Vec<usize>,
    /// Threads per block (the unified thread structure).
    pub threads: u32,
}

impl BatchPlan {
    /// A plan with no blocks yet and room for exactly `blocks` blocks of
    /// `tiles` tiles in all.
    pub(crate) fn with_capacity(threads: u32, blocks: usize, tiles: usize) -> Self {
        let mut tile = Vec::with_capacity(blocks + 1);
        tile.push(0);
        BatchPlan {
            tile,
            gemm: Vec::with_capacity(tiles),
            tiling: Vec::with_capacity(tiles),
            y_coord: Vec::with_capacity(tiles),
            x_coord: Vec::with_capacity(tiles),
            threads,
        }
    }

    /// Append `t` to the block under construction.
    pub(crate) fn push_tile(&mut self, t: &TileTask) {
        self.gemm.push(t.gemm);
        self.tiling.push(t.strategy.id());
        self.y_coord.push(t.y);
        self.x_coord.push(t.x);
    }

    /// Close the block under construction: it owns the tiles pushed
    /// since the previous block closed.
    pub(crate) fn end_block(&mut self) {
        self.tile.push(self.gemm.len());
    }

    /// Flatten a per-block tile assignment into the five arrays.
    pub fn from_blocks(blocks: &[Vec<TileTask>], threads: u32) -> Self {
        let total = blocks.iter().map(Vec::len).sum();
        let mut plan = BatchPlan::with_capacity(threads, blocks.len(), total);
        for block in blocks {
            for t in block {
                plan.push_tile(t);
            }
            plan.end_block();
        }
        plan
    }

    /// Number of thread blocks.
    pub fn num_blocks(&self) -> usize {
        self.tile.len() - 1
    }

    /// Number of tiles.
    pub fn num_tiles(&self) -> usize {
        self.gemm.len()
    }

    /// Tile `t`, reconstructed from the arrays (Fig 7 lines 4–5); block
    /// `b` owns tiles `tile[b]..tile[b + 1]`.
    pub fn tile_task(&self, t: usize, shapes: &[GemmShape]) -> TileTask {
        TileTask {
            gemm: self.gemm[t],
            y: self.y_coord[t],
            x: self.x_coord[t],
            k: shapes[self.gemm[t]].k,
            strategy: TilingStrategy::from_id(self.tiling[t]),
        }
    }

    /// Aggregate TLP of the plan: blocks × threads.
    pub fn tlp(&self) -> u64 {
        self.num_blocks() as u64 * self.threads as u64
    }

    /// Accumulated K depth of block `b` (the θ quantity of §5).
    pub fn block_k_depth(&self, b: usize, shapes: &[GemmShape]) -> usize {
        (self.tile[b]..self.tile[b + 1]).map(|t| shapes[self.gemm[t]].k).sum()
    }

    /// Largest number of tiles assigned to any block.
    pub fn max_tiles_per_block(&self) -> usize {
        (0..self.num_blocks()).map(|b| self.tile[b + 1] - self.tile[b]).max().unwrap_or(0)
    }

    /// Check plan invariants against the problem and tiling solution:
    ///
    /// 1. monotone prefix array covering all tiles;
    /// 2. every (gemm, y, x) tile of the solution appears exactly once;
    /// 3. strategy ids match the solution's per-GEMM strategies;
    /// 4. coordinates lie inside each GEMM's tile grid.
    pub fn validate(&self, shapes: &[GemmShape], solution: &TilingSolution) -> Result<(), String> {
        if self.tile.first() != Some(&0) || self.tile.last() != Some(&self.num_tiles()) {
            return Err("prefix array must span [0, tiles]".into());
        }
        if self.tile.windows(2).any(|w| w[1] < w[0]) {
            return Err("prefix array must be monotone".into());
        }
        let lens = [self.gemm.len(), self.tiling.len(), self.y_coord.len(), self.x_coord.len()];
        if lens.iter().any(|&l| l != self.num_tiles()) {
            return Err("per-tile arrays must have equal length".into());
        }

        // One bit per tile of the solution, GEMM after GEMM: GEMM g's
        // tile (y, x) is bit `first[g] + y * gx + x`.
        let mut first = Vec::with_capacity(shapes.len() + 1);
        first.push(0);
        for (s, st) in shapes.iter().zip(&solution.per_gemm) {
            first.push(first[first.len() - 1] + st.tiles(s.m, s.n));
        }
        let expected = first[first.len() - 1];
        let mut seen = vec![false; expected];
        for t in 0..self.num_tiles() {
            let g = self.gemm[t];
            if g >= shapes.len() {
                return Err(format!("tile {t}: GEMM index {g} out of range"));
            }
            let st = &solution.per_gemm[g];
            if self.tiling[t] != st.id() {
                return Err(format!(
                    "tile {t}: strategy id {} != solution {}",
                    self.tiling[t],
                    st.id()
                ));
            }
            let (gy, gx) = (shapes[g].m.div_ceil(st.by), shapes[g].n.div_ceil(st.bx));
            if self.y_coord[t] >= gy || self.x_coord[t] >= gx {
                return Err(format!("tile {t}: coordinate out of grid"));
            }
            if std::mem::replace(&mut seen[first[g] + self.y_coord[t] * gx + self.x_coord[t]], true)
            {
                return Err(format!("tile {t}: duplicate tile"));
            }
        }
        if self.num_tiles() != expected {
            return Err(format!(
                "plan has {} tiles, solution implies {expected}",
                self.num_tiles()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::tiles_for;
    use ctb_gpu_specs::Thresholds;
    use ctb_tiling::select_tiling;

    fn example() -> (Vec<GemmShape>, TilingSolution, Vec<TileTask>) {
        let shapes = vec![
            GemmShape::new(16, 32, 128),
            GemmShape::new(64, 64, 64),
            GemmShape::new(256, 256, 64),
        ];
        let sol = select_tiling(&shapes, &Thresholds::paper_v100());
        let tiles = tiles_for(&shapes, &sol);
        (shapes, sol, tiles)
    }

    #[test]
    fn round_trip_through_the_five_arrays() {
        let (shapes, sol, tiles) = example();
        // Two tiles per block.
        let blocks: Vec<Vec<TileTask>> = tiles.chunks(2).map(|c| c.to_vec()).collect();
        let plan = BatchPlan::from_blocks(&blocks, sol.thread_count.threads());
        plan.validate(&shapes, &sol).expect("valid");
        assert_eq!(plan.num_tiles(), tiles.len());
        assert_eq!(plan.num_blocks(), blocks.len());
        for (b, expect) in blocks.iter().enumerate() {
            let got: Vec<TileTask> =
                (plan.tile[b]..plan.tile[b + 1]).map(|t| plan.tile_task(t, &shapes)).collect();
            assert_eq!(&got, expect);
        }
    }

    #[test]
    fn figure6_shape_example() {
        // Fig 6: two 128x128 tiles for GEMM 0 and eight 128x64 tiles for
        // GEMM 1, six blocks (third block holds tiles [2, 4)).
        use ctb_tiling::strategy::{batched, StrategyKind, ThreadCount};
        let huge = batched(StrategyKind::Huge, ThreadCount::T256);
        let tall = batched(StrategyKind::Tall, ThreadCount::T256);
        let t = |gemm, y, x, st| TileTask { gemm, y, x, k: 64, strategy: st };
        let blocks = vec![
            vec![t(0, 0, 0, huge)],
            vec![t(0, 0, 1, huge)],
            vec![t(1, 0, 0, tall), t(1, 0, 1, tall)],
            vec![t(1, 0, 2, tall), t(1, 0, 3, tall)],
            vec![t(1, 1, 0, tall), t(1, 1, 1, tall)],
            vec![t(1, 1, 2, tall), t(1, 1, 3, tall)],
        ];
        let plan = BatchPlan::from_blocks(&blocks, 256);
        assert_eq!(plan.num_blocks(), 6);
        assert_eq!(plan.tile, vec![0, 1, 2, 4, 6, 8, 10]);
        // Third block (index 2) owns tiles [2, 4) from GEMM 1.
        assert_eq!(plan.tile[2 + 1] - plan.tile[2], 2);
        assert_eq!(plan.gemm[2], 1);
        assert_eq!(plan.gemm[3], 1);
        assert_eq!((plan.y_coord[2], plan.x_coord[2]), (0, 0));
        assert_eq!((plan.y_coord[3], plan.x_coord[3]), (0, 1));
    }

    #[test]
    fn validation_catches_duplicates_and_gaps() {
        let (shapes, sol, tiles) = example();
        // Duplicate a tile.
        let mut blocks: Vec<Vec<TileTask>> = tiles.iter().map(|t| vec![*t]).collect();
        blocks.push(vec![tiles[0]]);
        let plan = BatchPlan::from_blocks(&blocks, 256);
        assert!(plan.validate(&shapes, &sol).unwrap_err().contains("duplicate"));

        // Drop a tile.
        let blocks: Vec<Vec<TileTask>> = tiles[1..].iter().map(|t| vec![*t]).collect();
        let plan = BatchPlan::from_blocks(&blocks, 256);
        assert!(plan.validate(&shapes, &sol).is_err());
    }

    #[test]
    fn k_depth_accumulates() {
        let (shapes, sol, tiles) = example();
        let g0: Vec<TileTask> = tiles.iter().copied().filter(|t| t.gemm == 0).collect();
        let plan = BatchPlan::from_blocks(&[g0], sol.thread_count.threads());
        // Both K=128 tiles in one block.
        assert_eq!(plan.block_k_depth(0, &shapes), 256);
        assert_eq!(plan.max_tiles_per_block(), 2);
    }
}
