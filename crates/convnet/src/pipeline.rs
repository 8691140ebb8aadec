//! End-to-end GoogleNet inference timing (§7.3) and the per-layer
//! speedups of Fig 10.
//!
//! Three executions are compared, mirroring the paper's 3.18 ms /
//! 2.41 ms / 2.01 ms experiment:
//!
//! * **cuDNN-like** — every convolution runs as its own optimally tiled
//!   GEMM kernel, serially;
//! * **+ streams** — the independent branch convolutions of each
//!   inception module run concurrently on streams;
//! * **coordinated** — the four stage-1 branch GEMMs of each module are
//!   batched through the framework (and the two stage-2 GEMMs likewise),
//!   as the paper does.
//!
//! Data dependencies are respected everywhere: stage 2 of a module
//! starts only after stage 1, and modules execute in network order.

use crate::googlenet::{googlenet_v1, GoogleNet};
use crate::squeezenet::squeezenet_v1;
use ctb_baselines::{default_serial, magma_vbatch, simulate_baseline};
use ctb_core::Framework;
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use ctb_sim::simulate;

/// End-to-end inference times in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoogleNetTimes {
    /// Serial per-conv kernels (the cuDNN-like baseline).
    pub cudnn_like_ms: f64,
    /// Baseline plus branch-level stream concurrency.
    pub cudnn_streams_ms: f64,
    /// The paper's framework: batched branch GEMMs.
    pub coordinated_ms: f64,
}

impl GoogleNetTimes {
    /// Speedup of the coordinated execution over the serial baseline.
    pub fn speedup_vs_baseline(&self) -> f64 {
        self.cudnn_like_ms / self.coordinated_ms
    }

    /// Speedup of the coordinated execution over the stream variant.
    pub fn speedup_vs_streams(&self) -> f64 {
        self.cudnn_streams_ms / self.coordinated_ms
    }
}

/// Serial execution time of a set of GEMMs (one kernel each), in µs.
fn serial_us(arch: &ArchSpec, shapes: &[GemmShape]) -> f64 {
    simulate_baseline(arch, &default_serial(arch, shapes)).total_us
}

/// Stream-concurrent execution time of a set of GEMMs, in µs.
fn streams_us(arch: &ArchSpec, shapes: &[GemmShape]) -> f64 {
    let run = ctb_baselines::cke_exec::cke_with_streams(arch, shapes, shapes.len().max(1));
    simulate_baseline(arch, &run).total_us
}

/// Coordinated (framework-batched) execution time of a set of GEMMs.
fn coordinated_us(fw: &Framework, shapes: &[GemmShape]) -> f64 {
    fw.plan(shapes).expect("plannable").predicted_us
}

/// MAGMA vbatch execution time of a set of GEMMs.
fn magma_us(arch: &ArchSpec, shapes: &[GemmShape]) -> f64 {
    let run = magma_vbatch(arch, shapes);
    simulate(arch, &run.seq).total_us
}

/// Compute the three end-to-end inference times for an image batch of
/// `batch` (the paper's case study is FP32 inference).
pub fn googlenet_times(arch: &ArchSpec, batch: usize) -> GoogleNetTimes {
    let net = googlenet_v1();
    let fw = Framework::new(arch.clone());

    let stem: Vec<GemmShape> = net.stem.iter().map(|c| c.gemm_shape(batch)).collect();

    let mut base_us = serial_us(arch, &stem);
    let mut stream_us_total = serial_us(arch, &stem);
    let mut coord_us = serial_us(arch, &stem);

    for m in &net.modules {
        let s1 = m.stage1_shapes(batch);
        let s2 = m.stage2_shapes(batch);
        // Baseline: all six convs serial.
        base_us += serial_us(arch, &s1) + serial_us(arch, &s2);
        // Streams: branch heads concurrent, then the two stage-2 convs.
        stream_us_total += streams_us(arch, &s1) + streams_us(arch, &s2);
        // Coordinated: one batched kernel per stage.
        coord_us += coordinated_us(&fw, &s1) + coordinated_us(&fw, &s2);
    }

    GoogleNetTimes {
        cudnn_like_ms: base_us / 1000.0,
        cudnn_streams_ms: stream_us_total / 1000.0,
        coordinated_ms: coord_us / 1000.0,
    }
}

/// End-to-end SqueezeNet v1.0 inference times (extension experiment):
/// the same three executions as the GoogleNet study, with each fire
/// module's two expand GEMMs batched by the framework.
pub fn squeezenet_times(arch: &ArchSpec, batch: usize) -> GoogleNetTimes {
    let net = squeezenet_v1();
    let fw = Framework::new(arch.clone());

    let solos: Vec<GemmShape> = vec![net.conv1.gemm_shape(batch), net.conv10.gemm_shape(batch)];
    let mut base_us = serial_us(arch, &solos);
    let mut stream_total = serial_us(arch, &solos);
    let mut coord_us = serial_us(arch, &solos);

    for f in &net.fires {
        let squeeze = vec![f.squeeze1x1.gemm_shape(batch)];
        let expand = f.expand_shapes(batch);
        // The squeeze conv is serial in every variant (the expands
        // depend on it).
        let sq = serial_us(arch, &squeeze);
        base_us += sq + serial_us(arch, &expand);
        stream_total += sq + streams_us(arch, &expand);
        coord_us += sq + coordinated_us(&fw, &expand);
    }

    GoogleNetTimes {
        cudnn_like_ms: base_us / 1000.0,
        cudnn_streams_ms: stream_total / 1000.0,
        coordinated_ms: coord_us / 1000.0,
    }
}

/// Fig 10: per-inception-layer speedup of the coordinated framework over
/// MAGMA vbatch on the same batched GEMMs (stage 1 + stage 2).
pub fn inception_layer_speedups(arch: &ArchSpec, batch: usize) -> Vec<(String, f64)> {
    inception_layer_speedups_of(&googlenet_v1(), arch, batch)
}

/// As [`inception_layer_speedups`], for an explicit network.
pub fn inception_layer_speedups_of(
    net: &GoogleNet,
    arch: &ArchSpec,
    batch: usize,
) -> Vec<(String, f64)> {
    let fw = Framework::new(arch.clone());
    net.modules
        .iter()
        .map(|m| {
            let s1 = m.stage1_shapes(batch);
            let s2 = m.stage2_shapes(batch);
            let ours = coordinated_us(&fw, &s1) + coordinated_us(&fw, &s2);
            let magma = magma_us(arch, &s1) + magma_us(arch, &s2);
            (m.name.clone(), magma / ours)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_the_paper() {
        // 3.18 ms (baseline) > 2.41 ms (+streams) > 2.01 ms (ours): we
        // reproduce the ordering and the rough magnitudes.
        let arch = ArchSpec::volta_v100();
        let t = googlenet_times(&arch, 1);
        assert!(
            t.cudnn_like_ms > t.cudnn_streams_ms && t.cudnn_streams_ms > t.coordinated_ms,
            "{t:?}"
        );
        // Low-single-digit milliseconds, like the paper's 2-3 ms.
        assert!((0.3..20.0).contains(&t.cudnn_like_ms), "{t:?}");
        // Paper's overall gain is 3.18/2.01 = 1.58x; accept a broad band.
        let s = t.speedup_vs_baseline();
        assert!((1.1..3.0).contains(&s), "speedup vs baseline {s}");
    }

    #[test]
    fn squeezenet_ordering_matches_the_fan_structure_claim() {
        // The paper's claim that its methodology generalises to
        // SqueezeNet's fan structure: same ordering as GoogleNet.
        let arch = ArchSpec::volta_v100();
        let t = squeezenet_times(&arch, 1);
        assert!(t.cudnn_like_ms >= t.cudnn_streams_ms, "{t:?}");
        assert!(t.cudnn_streams_ms >= t.coordinated_ms * 0.98, "{t:?}");
        assert!((0.05..10.0).contains(&t.cudnn_like_ms), "{t:?}");
    }

    #[test]
    fn every_inception_layer_beats_magma() {
        // Fig 10: speedups between ~1.2x and ~1.4x, all above 1.
        let arch = ArchSpec::volta_v100();
        let speedups = inception_layer_speedups(&arch, 1);
        assert_eq!(speedups.len(), 9);
        for (name, s) in &speedups {
            assert!(*s > 1.0, "{name}: speedup {s}");
            assert!(*s < 4.0, "{name}: speedup {s} implausibly large");
        }
    }
}
