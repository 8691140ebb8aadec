//! Extension experiments: fan-structure batching beyond GoogleNet.
//!
//! §7.3 notes that "the fan-structure is popular in other
//! state-of-the-art CNN models such as Squeeze-Net and ResNet" — these
//! drivers batch those fans through the framework and compare against
//! MAGMA vbatch, plus the training-backward fans of GoogleNet.

use ctb_baselines::magma_vbatch;
use ctb_convnet::backward::{inception_dgrad_batch, inception_wgrad_batch};
use ctb_convnet::{googlenet_v1, resnet50_blocks, squeezenet_v1};
use ctb_core::Framework;
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::GemmShape;
use ctb_sim::simulate;

/// (workload label, speedup of the framework over MAGMA vbatch).
pub type FanRow = (String, f64);

fn speedup(fw: &Framework, arch: &ArchSpec, shapes: &[GemmShape]) -> f64 {
    let ours = fw.plan(shapes).expect("plannable").predicted_us;
    let magma = simulate(arch, &magma_vbatch(arch, shapes).seq).total_us;
    magma / ours
}

/// SqueezeNet fire-module expand fans (two GEMMs each).
pub fn squeezenet_fan_rows(arch: &ArchSpec, batch: usize) -> Vec<FanRow> {
    let fw = Framework::new(arch.clone());
    squeezenet_v1()
        .fires
        .iter()
        .map(|f| (f.name.clone(), speedup(&fw, arch, &f.expand_shapes(batch))))
        .collect()
}

/// ResNet-50 projection fans (first block of each stage: two GEMMs).
pub fn resnet_fan_rows(arch: &ArchSpec, batch: usize) -> Vec<FanRow> {
    let fw = Framework::new(arch.clone());
    resnet50_blocks()
        .iter()
        .filter(|b| b.projection.is_some())
        .map(|b| (b.name.clone(), speedup(&fw, arch, &b.fan_shapes(batch))))
        .collect()
}

/// GoogleNet training-backward fans: the dgrad and wgrad batches of each
/// inception module.
pub fn backward_fan_rows(arch: &ArchSpec, batch: usize) -> Vec<FanRow> {
    let fw = Framework::new(arch.clone());
    let net = googlenet_v1();
    let mut rows = Vec::new();
    for m in &net.modules {
        rows.push((
            format!("{} dgrad", m.name),
            speedup(&fw, arch, &inception_dgrad_batch(m, batch)),
        ));
        rows.push((
            format!("{} wgrad", m.name),
            speedup(&fw, arch, &inception_wgrad_batch(m, batch)),
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geomean;

    #[test]
    fn squeezenet_fans_benefit_from_batching() {
        let rows = squeezenet_fan_rows(&ArchSpec::volta_v100(), 4);
        assert_eq!(rows.len(), 8);
        let mean = geomean(&rows.iter().map(|(_, s)| *s).collect::<Vec<_>>());
        assert!(mean > 1.0, "squeezenet mean fan speedup {mean}");
    }

    #[test]
    fn resnet_fans_benefit_from_batching() {
        let rows = resnet_fan_rows(&ArchSpec::volta_v100(), 4);
        assert_eq!(rows.len(), 4, "one projection fan per stage");
        for (name, s) in &rows {
            assert!(*s > 0.8, "{name}: {s}");
        }
    }

    #[test]
    fn backward_fans_are_plannable_and_mostly_win() {
        let rows = backward_fan_rows(&ArchSpec::volta_v100(), 1);
        assert_eq!(rows.len(), 18);
        let mean = geomean(&rows.iter().map(|(_, s)| *s).collect::<Vec<_>>());
        assert!(mean > 1.0, "backward mean speedup {mean}");
    }
}
