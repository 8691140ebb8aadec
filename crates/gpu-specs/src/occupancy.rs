//! SM occupancy calculator.
//!
//! Given a thread-block resource footprint (threads, registers per
//! thread, shared memory per block) this computes how many blocks can be
//! co-resident on one SM — the same arithmetic as NVIDIA's occupancy
//! calculator. Occupancy feeds the latency-hiding term of the timing
//! model: more resident warps hide more global-memory latency, which is
//! the paper's TLP argument in mechanical form.

use crate::arch::ArchSpec;

/// Resource footprint of one thread block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockFootprint {
    /// Threads launched per block (counting idle threads).
    pub threads: u32,
    /// Registers allocated per thread.
    pub regs_per_thread: u32,
    /// Shared memory per block in bytes.
    pub smem_bytes: u32,
}

impl BlockFootprint {
    pub fn new(threads: u32, regs_per_thread: u32, smem_bytes: u32) -> Self {
        BlockFootprint { threads, regs_per_thread, smem_bytes }
    }

    /// Warps per block, rounded up.
    pub fn warps(&self, warp_size: u32) -> u32 {
        self.threads.div_ceil(warp_size)
    }
}

/// Result of the occupancy computation for one kernel on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Blocks resident per SM.
    pub blocks_per_sm: u32,
    /// Warps resident per SM (`blocks_per_sm * warps_per_block`).
    pub warps_per_sm: u32,
    /// Fraction of the SM's warp slots that are occupied, in `[0, 1]`.
    pub occupancy: f64,
    /// Which resource bounds residency.
    pub limiter: Limiter,
}

/// The resource that limits residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Limiter {
    Threads,
    Registers,
    SharedMemory,
    BlockSlots,
    /// The block cannot run at all (footprint exceeds a per-block limit).
    Infeasible,
}

/// Compute the occupancy of blocks with footprint `fp` on `arch`.
///
/// Returns `Occupancy { blocks_per_sm: 0, limiter: Infeasible, .. }` when
/// the footprint exceeds a hard per-block limit (threads per block,
/// registers per thread, shared memory per block) — callers treat that as
/// a planning error.
pub fn occupancy(arch: &ArchSpec, fp: &BlockFootprint) -> Occupancy {
    let infeasible = fp.threads == 0
        || fp.threads > arch.max_threads_per_block
        || fp.regs_per_thread > arch.max_regs_per_thread
        || fp.smem_bytes > arch.max_smem_per_block;
    if infeasible {
        return Occupancy {
            blocks_per_sm: 0,
            warps_per_sm: 0,
            occupancy: 0.0,
            limiter: Limiter::Infeasible,
        };
    }

    let by_threads = arch.max_threads_per_sm / fp.threads;
    // Register allocation granularity is per-warp on real devices; the
    // warp-rounded thread count is the conservative approximation.
    let regs_per_block = fp.warps(arch.warp_size) * arch.warp_size * fp.regs_per_thread.max(1);
    let by_regs = arch.regfile_per_sm / regs_per_block.max(1);
    let by_smem = arch.smem_per_sm.checked_div(fp.smem_bytes).unwrap_or(u32::MAX);
    let by_slots = arch.max_blocks_per_sm;

    let (blocks, limiter) = [
        (by_threads, Limiter::Threads),
        (by_regs, Limiter::Registers),
        (by_smem, Limiter::SharedMemory),
        (by_slots, Limiter::BlockSlots),
    ]
    .into_iter()
    .min_by_key(|(b, _)| *b)
    .expect("non-empty");

    let warps = blocks * fp.warps(arch.warp_size);
    Occupancy {
        blocks_per_sm: blocks,
        warps_per_sm: warps,
        occupancy: warps as f64 / arch.max_warps_per_sm() as f64,
        limiter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v100() -> ArchSpec {
        ArchSpec::volta_v100()
    }

    #[test]
    fn small_blocks_hit_block_slot_limit() {
        // 32-thread blocks with tiny footprints: 32 blocks/SM cap.
        let occ = occupancy(&v100(), &BlockFootprint::new(32, 16, 256));
        assert_eq!(occ.blocks_per_sm, 32);
        assert_eq!(occ.limiter, Limiter::BlockSlots);
    }

    #[test]
    fn thread_limited() {
        let occ = occupancy(&v100(), &BlockFootprint::new(1024, 16, 0));
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.limiter, Limiter::Threads);
        assert!((occ.occupancy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn register_limited() {
        // 256 threads x 128 regs = 32768 regs/block -> 2 blocks/SM.
        let occ = occupancy(&v100(), &BlockFootprint::new(256, 128, 0));
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.limiter, Limiter::Registers);
    }

    #[test]
    fn smem_limited() {
        // 40 KiB smem per block on a 96 KiB SM -> 2 blocks.
        let occ = occupancy(&v100(), &BlockFootprint::new(128, 16, 40 * 1024));
        assert_eq!(occ.blocks_per_sm, 2);
        assert_eq!(occ.limiter, Limiter::SharedMemory);
    }

    #[test]
    fn infeasible_block() {
        let occ = occupancy(&v100(), &BlockFootprint::new(2048, 16, 0));
        assert_eq!(occ.blocks_per_sm, 0);
        assert_eq!(occ.limiter, Limiter::Infeasible);
        let occ = occupancy(&v100(), &BlockFootprint::new(0, 16, 0));
        assert_eq!(occ.limiter, Limiter::Infeasible);
    }

    #[test]
    fn paper_large_tile_footprint_is_resident() {
        // Table 2 "large" with 256 threads: smem = 2*(64*8 + 8*64)*4 = 8 KiB.
        let occ = occupancy(&v100(), &BlockFootprint::new(256, 64, 8 * 1024));
        assert!(occ.blocks_per_sm >= 4, "occ = {occ:?}");
    }

    #[test]
    fn occupancy_fraction_never_exceeds_one() {
        let arch = v100();
        for threads in [32u32, 64, 128, 256, 512, 1024] {
            for regs in [16u32, 32, 64, 128, 255] {
                for smem in [0u32, 1024, 8192, 49152] {
                    let occ = occupancy(&arch, &BlockFootprint::new(threads, regs, smem));
                    assert!(occ.occupancy <= 1.0 + 1e-12);
                    assert!(occ.warps_per_sm <= arch.max_warps_per_sm());
                }
            }
        }
    }
}
