//! Tile-ordering policies.
//!
//! The paper leaves the order in which the batching engine consumes
//! tiles unspecified. The order matters: threshold batching groups
//! *consecutive* tiles into a block, so GEMM-major order packs a block
//! with tiles of one GEMM while interleaved order mixes GEMMs (and their
//! K depths) within a block. The ablation bench (`reproduce ablate`)
//! quantifies the difference.

use crate::tile::TileTask;

/// Order in which tiles are fed to the batching heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TileOrder {
    /// The tiling engine's natural order: all tiles of GEMM 0, then
    /// GEMM 1, … (row-major within each GEMM).
    #[default]
    GemmMajor,
    /// Round-robin across GEMMs: first tile of each GEMM, then second of
    /// each, … — spreads a batch's GEMMs across thread blocks.
    Interleaved,
    /// Deepest tiles first (descending K): fronts the heaviest work so
    /// the slot scheduler can backfill behind it (LPT-style).
    KDescending,
}

impl std::fmt::Display for TileOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TileOrder::GemmMajor => write!(f, "gemm-major"),
            TileOrder::Interleaved => write!(f, "interleaved"),
            TileOrder::KDescending => write!(f, "k-descending"),
        }
    }
}

/// Reorder `tiles` (GEMM-major as produced by
/// [`crate::tile::tiles_for`]) according to `order`. Stable: ties keep
/// the GEMM-major relative order.
pub fn order_tiles(tiles: &[TileTask], order: TileOrder) -> Vec<TileTask> {
    let mut out = tiles.to_vec();
    match order {
        TileOrder::GemmMajor => {}
        TileOrder::Interleaved => {
            // Rank within the tile's GEMM, then GEMM index.
            let mut rank = std::collections::HashMap::new();
            let keys: Vec<(usize, usize)> = out
                .iter()
                .map(|t| {
                    let r = rank.entry(t.gemm).or_insert(0usize);
                    let key = (*r, t.gemm);
                    *r += 1;
                    key
                })
                .collect();
            let mut idx: Vec<usize> = (0..out.len()).collect();
            idx.sort_by_key(|&i| keys[i]);
            out = idx.into_iter().map(|i| tiles[i]).collect();
        }
        TileOrder::KDescending => {
            out.sort_by_key(|t| std::cmp::Reverse(t.k));
        }
    }
    out
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

    fn tiles() -> Vec<TileTask> {
        // GEMM 0: 3 tiles (K=64); GEMM 1: 2 tiles (K=256).
        vec![tile(0, 0, 64), tile(0, 1, 64), tile(0, 2, 64), tile(1, 0, 256), tile(1, 1, 256)]
    }

    #[test]
    fn gemm_major_is_identity() {
        let t = tiles();
        assert_eq!(order_tiles(&t, TileOrder::GemmMajor), t);
    }

    #[test]
    fn interleaved_round_robins_gemms() {
        let got = order_tiles(&tiles(), TileOrder::Interleaved);
        let seq: Vec<(usize, usize)> = got.iter().map(|t| (t.gemm, t.y)).collect();
        assert_eq!(seq, vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)]);
    }

    #[test]
    fn k_descending_fronts_deep_tiles() {
        let got = order_tiles(&tiles(), TileOrder::KDescending);
        let ks: Vec<usize> = got.iter().map(|t| t.k).collect();
        assert_eq!(ks, vec![256, 256, 64, 64, 64]);
        // Stability: within equal K, GEMM-major order preserved.
        assert_eq!((got[2].gemm, got[2].y), (0, 0));
    }

    #[test]
    fn reordering_preserves_the_tile_multiset() {
        let t = tiles();
        for order in [TileOrder::GemmMajor, TileOrder::Interleaved, TileOrder::KDescending] {
            let mut a = order_tiles(&t, order);
            let mut b = t.clone();
            a.sort_by_key(|x| (x.gemm, x.y, x.x));
            b.sort_by_key(|x| (x.gemm, x.y, x.x));
            assert_eq!(a, b, "{order} lost tiles");
        }
    }
}
