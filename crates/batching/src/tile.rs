//! Tile tasks: the unit the batching engine assigns to thread blocks.

use ctb_matrix::GemmShape;
use ctb_tiling::{TilingSolution, TilingStrategy};

/// One C tile of one GEMM, as produced by the tiling engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileTask {
    /// Index of the GEMM this tile belongs to.
    pub gemm: usize,
    /// Tile row index within the GEMM's tile grid.
    pub y: usize,
    /// Tile column index within the GEMM's tile grid.
    pub x: usize,
    /// The GEMM's K dimension — the tile's workload depth, which drives
    /// the batching heuristics.
    pub k: usize,
    /// Strategy selected for this tile's GEMM by the tiling engine.
    pub strategy: TilingStrategy,
}

impl TileTask {
    /// Output rows covered by this tile for a GEMM with `m` rows
    /// (boundary tiles are clipped).
    pub fn rows(&self, m: usize) -> usize {
        let y0 = self.y * self.strategy.by;
        (m - y0).min(self.strategy.by)
    }

    /// Output columns covered for a GEMM with `n` columns.
    pub fn cols(&self, n: usize) -> usize {
        let x0 = self.x * self.strategy.bx;
        (n - x0).min(self.strategy.bx)
    }
}

/// Enumerate every tile of every GEMM under the tiling solution, in
/// GEMM-major, row-major order.
pub fn tiles_for(shapes: &[GemmShape], solution: &TilingSolution) -> Vec<TileTask> {
    assert_eq!(shapes.len(), solution.per_gemm.len(), "one strategy per GEMM");
    let mut tiles = Vec::new();
    for (g, (shape, st)) in shapes.iter().zip(&solution.per_gemm).enumerate() {
        let gy = shape.m.div_ceil(st.by);
        let gx = shape.n.div_ceil(st.bx);
        for y in 0..gy {
            for x in 0..gx {
                tiles.push(TileTask { gemm: g, y, x, k: shape.k, strategy: *st });
            }
        }
    }
    tiles
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctb_gpu_specs::Thresholds;
    use ctb_tiling::select_tiling;

    #[test]
    fn tiles_cover_worked_example() {
        let shapes =
            [GemmShape::new(16, 32, 128), GemmShape::new(64, 64, 64), GemmShape::new(256, 256, 64)];
        let sol = select_tiling(&shapes, &Thresholds::paper_v100());
        let tiles = tiles_for(&shapes, &sol);
        // (small, medium, medium): 1x2 + 2x2 + 8x8 tiles.
        assert_eq!(tiles.len(), 2 + 4 + 64);
        assert_eq!(tiles.iter().filter(|t| t.gemm == 0).count(), 2);
        assert_eq!(tiles.iter().filter(|t| t.gemm == 2).count(), 64);
        // K recorded per tile.
        assert!(tiles.iter().filter(|t| t.gemm == 0).all(|t| t.k == 128));
        assert!(tiles.iter().filter(|t| t.gemm > 0).all(|t| t.k == 64));
    }

    #[test]
    fn boundary_tiles_are_clipped() {
        let shapes = [GemmShape::new(20, 40, 8)];
        let sol = select_tiling(&shapes, &Thresholds::paper_v100());
        let tiles = tiles_for(&shapes, &sol);
        let st = sol.per_gemm[0];
        assert_eq!(st.by, 16);
        // Grid is ceil(20/16) x ceil(40/16) = 2 x 3.
        assert_eq!(tiles.len(), 6);
        let last = tiles.last().unwrap();
        assert_eq!((last.y, last.x), (1, 2));
        assert_eq!(last.rows(20), 4);
        assert_eq!(last.cols(40), 8);
        let first = &tiles[0];
        assert_eq!(first.rows(20), 16);
        assert_eq!(first.cols(40), 16);
    }
}
