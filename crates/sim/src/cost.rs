//! The cost IR consumed by the simulator: tile passes, block records,
//! kernel descriptions and launch sequences.

use ctb_gpu_specs::BlockFootprint;
use std::ops::Range;

/// One tile's main loop (Fig 2), reduced to per-iteration instruction
/// counts *per thread*. Per-warp counts are identical because every
/// thread of a warp executes the same instruction stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TilePass {
    /// Main-loop iterations: `ceil(K / BK)`.
    pub iterations: u32,
    /// FMA instructions per thread per iteration (Eq 3).
    pub fma_per_thread: f64,
    /// Shared-memory load instructions per thread per iteration
    /// (register-fragment loads, Fig 2 lines 15–16; 128-bit vectorised).
    pub ld_shared_per_thread: f64,
    /// Global-memory load instructions per thread per iteration (Eq 2).
    pub ld_global_per_thread: f64,
    /// Auxiliary integer/address instructions per thread per iteration.
    pub aux_per_thread: f64,
    /// Global store instructions per thread in the epilogue (C
    /// write-back, Fig 2 line 26; 128-bit vectorised).
    pub epilogue_stores: f64,
}

impl TilePass {
    /// True when the main loop touches global memory (it always does for
    /// a real GEMM tile; zero-iteration passes don't).
    pub fn has_global_loads(&self) -> bool {
        self.iterations > 0 && self.ld_global_per_thread > 0.0
    }

    /// Total per-thread instructions over the whole pass (diagnostics).
    pub fn instructions_per_thread(&self) -> f64 {
        self.iterations as f64
            * (self.fma_per_thread
                + self.ld_shared_per_thread
                + self.ld_global_per_thread
                + self.aux_per_thread)
            + self.epilogue_stores
    }
}

/// One thread block's record in a [`KernelDesc`]: the threads that
/// work and the range of its tile passes in [`KernelDesc::passes`],
/// which it executes one after the other in the persistent-threads
/// style of the paper's Fig 7.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockWork {
    /// Threads that actually have a sub-tile to compute. Equal to the
    /// kernel's block size in the paper's unified thread structure;
    /// smaller for MAGMA-style uniform blocks executing small tiles
    /// (idle threads, Fig 3b); zero for bubble blocks (Fig 3a).
    pub active_threads: u32,
    /// This block's passes: `KernelDesc::passes[start..end]`.
    pub passes: Range<u32>,
}

impl BlockWork {
    /// A bubble block (dispatched, does nothing, retires) has no passes.
    pub fn is_bubble(&self) -> bool {
        self.passes.is_empty()
    }

    /// Warps with work, given the warp width.
    pub fn active_warps(&self, warp_size: u32) -> u32 {
        self.active_threads.div_ceil(warp_size)
    }
}

/// One CUDA-kernel equivalent: a uniform block footprint (the CUDA
/// programming model requires one block size per kernel) plus the
/// per-block work, in the prefix layout of the paper's Fig 6: one flat
/// array of tile passes, and per block its active threads and its range
/// in that array. Blocks are appended in grid order, each closed by
/// [`KernelDesc::end_block`] after its passes are pushed (or by
/// [`KernelDesc::push_block`]), so each block's range starts where the
/// previous one ends.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Diagnostic label, e.g. `"magma_vbatch"` or `"gemm 2 of 5"`.
    pub name: String,
    /// The resource footprint shared by every block.
    pub footprint: BlockFootprint,
    /// One entry per thread block in the grid, in dispatch order.
    pub blocks: Vec<BlockWork>,
    /// Every block's tile passes, block after block.
    pub passes: Vec<TilePass>,
    /// Whether the kernel uses the software-pipelined double buffering
    /// of Fig 2 (prefetch depth 2). The paper's kernels and the tuned
    /// single-GEMM library kernels do; MAGMA `vbatch` "only provides
    /// support for batched GEMM by expanding gridDim.z without the
    /// fine-grained tiling and batching optimizations" (§7), so its
    /// kernel runs at prefetch depth 1.
    pub software_pipelined: bool,
    /// Ablation hook: charge the pipeline-fill latency per *tile*
    /// instead of per block, disabling the cross-tile prefetch that
    /// makes multi-tile blocks attractive (DESIGN.md §3). Off by
    /// default.
    pub per_tile_fill: bool,
}

impl KernelDesc {
    /// A kernel with no blocks yet.
    pub fn new(name: impl Into<String>, footprint: BlockFootprint) -> Self {
        KernelDesc {
            name: name.into(),
            footprint,
            blocks: Vec::new(),
            passes: Vec::new(),
            software_pipelined: true,
            per_tile_fill: false,
        }
    }

    /// Make room for `blocks` more blocks running `passes` more passes.
    pub fn reserve(&mut self, blocks: usize, passes: usize) {
        self.blocks.reserve_exact(blocks);
        self.passes.reserve_exact(passes);
    }

    /// Close the block under construction: it runs the passes pushed
    /// onto `passes` since the previous block closed (none makes it a
    /// bubble) with `active_threads` working threads.
    pub fn end_block(&mut self, active_threads: u32) {
        let start = self.blocks.last().map_or(0, |b| b.passes.end);
        let end = u32::try_from(self.passes.len()).expect("fewer than 2^32 passes per kernel");
        self.blocks.push(BlockWork { active_threads, passes: start..end });
    }

    /// Append a block that runs `passes` with `active_threads` working
    /// threads; no passes make it a bubble.
    pub fn push_block(&mut self, active_threads: u32, passes: impl IntoIterator<Item = TilePass>) {
        self.passes.extend(passes);
        self.end_block(active_threads);
    }

    /// The passes `block` executes, in order.
    pub fn block_passes(&self, block: &BlockWork) -> &[TilePass] {
        &self.passes[block.passes.start as usize..block.passes.end as usize]
    }

    /// Mark the kernel as lacking software pipelining (prefetch depth 1).
    pub fn unpipelined(mut self) -> Self {
        self.software_pipelined = false;
        self
    }

    /// Ablation: disable cross-tile prefetching (fill paid per tile).
    pub fn without_cross_tile_prefetch(mut self) -> Self {
        self.per_tile_fill = true;
        self
    }

    /// Number of non-bubble blocks.
    pub fn useful_blocks(&self) -> usize {
        self.blocks.iter().filter(|b| !b.is_bubble()).count()
    }

    /// Number of bubble blocks.
    pub fn bubble_blocks(&self) -> usize {
        self.blocks.len() - self.useful_blocks()
    }
}

/// How a batched-GEMM execution reaches the device.
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchSequence {
    /// Default execution: kernels run one-by-one, each paying the launch
    /// overhead (§3 "default execution mode").
    Serial(Vec<KernelDesc>),
    /// Concurrent kernel execution on `streams` CUDA streams,
    /// round-robin assignment (§3's first optimisation direction).
    Streams { streams: usize, kernels: Vec<KernelDesc> },
    /// A single kernel for the whole batch (the paper's and MAGMA's
    /// approach).
    Single(KernelDesc),
}

impl LaunchSequence {
    /// All kernels in launch order.
    pub fn kernels(&self) -> Vec<&KernelDesc> {
        match self {
            LaunchSequence::Serial(ks) => ks.iter().collect(),
            LaunchSequence::Streams { kernels, .. } => kernels.iter().collect(),
            LaunchSequence::Single(k) => vec![k],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(it: u32) -> TilePass {
        TilePass {
            iterations: it,
            fma_per_thread: 32.0,
            ld_shared_per_thread: 8.0,
            ld_global_per_thread: 1.0,
            aux_per_thread: 4.0,
            epilogue_stores: 4.0,
        }
    }

    #[test]
    fn bubble_blocks_counted() {
        let fp = BlockFootprint::new(256, 32, 4096);
        let mut kd = KernelDesc::new("k", fp);
        kd.push_block(0, []);
        kd.push_block(256, [pass(4), pass(2)]);
        assert_eq!(kd.useful_blocks(), 1);
        assert_eq!(kd.bubble_blocks(), 1);
        assert_eq!(kd.blocks[0].passes, 0..0);
        assert_eq!(kd.blocks[1].passes, 0..2);
        assert_eq!(kd.block_passes(&kd.blocks[1]), &[pass(4), pass(2)]);
    }

    #[test]
    fn active_warps_round_up() {
        let b = BlockWork { active_threads: 33, passes: 0..1 };
        assert_eq!(b.active_warps(32), 2);
        assert_eq!(BlockWork { active_threads: 0, passes: 1..1 }.active_warps(32), 0);
    }

    #[test]
    fn pass_instruction_count() {
        let p = pass(2);
        assert!((p.instructions_per_thread() - (2.0 * 45.0 + 4.0)).abs() < 1e-12);
        assert!(p.has_global_loads());
        let empty = TilePass { iterations: 0, ..p };
        assert!(!empty.has_global_loads());
    }

    #[test]
    fn launch_sequence_enumerates_kernels() {
        let fp = BlockFootprint::new(128, 32, 1024);
        let k = |n: &str| KernelDesc::new(n, fp);
        let seq = LaunchSequence::Serial(vec![k("a"), k("b")]);
        assert_eq!(seq.kernels().len(), 2);
        let seq = LaunchSequence::Single(k("c"));
        assert_eq!(seq.kernels()[0].name, "c");
    }
}
