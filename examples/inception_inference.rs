//! The paper's real-world case study (§7.3): batching the four branch
//! GEMMs of every GoogleNet inception module.
//!
//! Runs one inception module functionally end-to-end (im2col convolution
//! lowering included) and then times the full 57-convolution network
//! under the three executions the paper compares.
//!
//! ```text
//! cargo run --example inception_inference --release
//! ```

use ctb::convnet::im2col::conv_via_gemm;
use ctb::convnet::pipeline::googlenet_times;
use ctb::convnet::googlenet_v1;
use ctb::matrix::MatF32;
use ctb::prelude::*;

fn main() {
    let arch = ArchSpec::volta_v100();
    let net = googlenet_v1();
    let module = &net.modules[0]; // inception3a

    println!("== GoogleNet inception module as batched GEMM ==\n");
    println!("module {}: four parallel branch-head convolutions", module.name);

    // Stage 1: the four branch heads read the same input feature map.
    let image_batch = 1;
    let shapes = module.stage1_shapes(image_batch);
    for (conv, shape) in [
        &module.conv1x1,
        &module.reduce3x3,
        &module.reduce5x5,
        &module.pool_proj,
    ]
    .iter()
    .zip(&shapes)
    {
        println!("  {:<28} -> GEMM {shape}", conv.name);
    }

    // Functional path: run one branch through im2col + GEMM and check it
    // against what the batched framework computes for the same GEMM.
    let conv = &module.reduce5x5;
    let weights = MatF32::random(conv.out_c, conv.in_c * conv.kh * conv.kw, 7);
    let input = vec![MatF32::random(conv.in_c, conv.in_h * conv.in_w, 8)];
    let direct = conv_via_gemm(conv, &weights, &input);
    println!(
        "\nfunctional check: {} computes a {}x{} output via im2col+GEMM",
        conv.name,
        direct.rows(),
        direct.cols()
    );

    // Timed path: batch the four GEMMs through the framework vs MAGMA.
    let framework = Framework::new(arch.clone());
    let plan = framework.plan(&shapes).expect("plannable");
    println!(
        "framework plan: strategies {:?}, {} blocks, heuristic {}",
        plan.solution.per_gemm.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        plan.plan.num_blocks(),
        plan.heuristic
    );

    let ours = framework.plan(&shapes).unwrap().predicted_us;
    let magma = {
        let run = magma_vbatch(&arch, &shapes);
        ctb::sim::simulate(&arch, &run.seq).total_us
    };
    println!("\nstage-1 batched GEMMs ({} module):", module.name);
    println!("  MAGMA vbatch : {magma:.1} us");
    println!("  coordinated  : {ours:.1} us  ({:.2}x)", magma / ours);

    // Full network, the paper's three rows.
    println!("\n== full GoogleNet inference (57 convolutions, image batch 1) ==");
    let t = googlenet_times(&arch, 1);
    println!("  cuDNN-like serial      : {:.2} ms", t.cudnn_like_ms);
    println!("  + stream concurrency   : {:.2} ms", t.cudnn_streams_ms);
    println!("  coordinated batching   : {:.2} ms", t.coordinated_ms);
    println!(
        "  speedup vs serial {:.2}x, vs streams {:.2}x",
        t.speedup_vs_baseline(),
        t.speedup_vs_streams()
    );
}
