//! `plan_novel`: the paper's varying-shape scenario. Every timed
//! `Session::plan` sees a never-seen Fig 11 `random_case` signature, so
//! cold planning (tiling, batching, best-of-both candidate simulation)
//! takes nearly all the time and the executor is never called.
//!
//! A round builds a fresh session, plans a separate warm-up set (the
//! set-up), then plans and simulates the 2000 measured cases in blocks
//! of 100, each block followed by a one-thread host reference sample
//! (see [`crate::host`]). A block's time is rescaled by its sample, and
//! the run counts each block's median over the rounds. After the
//! rounds, a quality pass compares the simulated time of the first 500
//! plans with MAGMA `vbatch`, and executes every 50th of them against
//! `reference_result_exact`, so a faster planner that picks worse or
//! wrong plans shows.

use crate::metrics::{Metrics, Outcome};
use crate::stats::{derive, geomean, median, percentile, ratio};
use crate::trace::{self, Tracer};
use crate::Cfg;
use crate::{heap, host};
use ctb_baselines::magma_vbatch;
use ctb_core::{execute_plan, Framework, Session};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::gen::random_case;
use ctb_matrix::{bitwise_mismatch, GemmBatch, GemmShape};
use ctb_sim::{simulate, LaunchSequence};
use std::time::Instant;

const CASES: usize = 2000;
const BLOCK: usize = 100;
const WARMUP: usize = 64;
const QUALITY: usize = 500;
const EXECUTE_EVERY: usize = 50;

/// Everything the rounds of one run accumulate.
struct Run {
    attempted: u64,
    failed: u64,
    /// Simulated µs per case, as bits, from its first round.
    sim_bits: Vec<Option<u64>>,
    /// Time per block of cases and round, seconds at nominal host speed.
    blocks: Vec<Vec<f64>>,
    /// Set-up time per round, seconds at nominal host speed.
    setup_s: Vec<f64>,
}

impl Run {
    fn new(sim_bits: Vec<Option<u64>>) -> Self {
        Run {
            attempted: 0,
            failed: 0,
            sim_bits,
            blocks: vec![Vec::new(); CASES / BLOCK],
            setup_s: Vec::new(),
        }
    }

    /// Time to plan all cases once: the sum of the block medians.
    fn total_s(&self) -> f64 {
        self.blocks.iter().map(|b| median(b)).sum()
    }
}

/// Plan-cache and memo counters of one round's session, measured part.
struct Counters {
    plan: (usize, usize),
    memo: (usize, usize),
}

fn round(
    arch: &ArchSpec,
    warmup: &[Vec<GemmShape>],
    cases: &[Vec<GemmShape>],
    run: &mut Run,
    t: &mut Option<Tracer>,
) -> Counters {
    let plan_and_simulate =
        |session: &Session, shapes: &[GemmShape], t: &mut Option<Tracer>, req| {
            trace::span(t, "session.plan", req, || session.plan(shapes)).map(|plan| {
                trace::span(t, "sim", req, || {
                    simulate(arch, &LaunchSequence::Single(plan.kernel.clone()))
                })
                .total_us
            })
        };

    let start = Instant::now();
    let setup = trace::open(t, "setup", None);
    let session = Session::new(Framework::new(arch.clone()));
    for shapes in warmup {
        run.attempted += 1;
        if plan_and_simulate(&session, shapes, t, None).is_err() {
            run.failed += 1;
        }
    }
    trace::close(t, setup);
    let setup_s = start.elapsed().as_secs_f64();
    run.setup_s.push(host::at_nominal(
        setup_s,
        trace::span(t, trace::REFERENCE, None, || host::reference(1)),
    ));

    let (plan0, memo0) = (session.stats(), session.sim_stats());
    let measure = trace::open(t, "measure", None);
    for (b, block) in cases.chunks(BLOCK).enumerate() {
        let t0 = Instant::now();
        for (j, shapes) in block.iter().enumerate() {
            let i = b * BLOCK + j;
            let case = trace::open(t, "case", Some(i as u64));
            let sim_us = plan_and_simulate(&session, shapes, t, Some(i as u64));
            trace::close(t, case);
            run.attempted += 1;
            match (sim_us, run.sim_bits[i]) {
                (Ok(us), None) => run.sim_bits[i] = Some(us.to_bits()),
                (Ok(us), Some(bits)) if us.to_bits() == bits => {}
                _ => run.failed += 1,
            }
        }
        let dt = t0.elapsed().as_secs_f64();
        let ref_s = trace::span(t, trace::REFERENCE, None, || host::reference(1));
        run.blocks[b].push(host::at_nominal(dt, ref_s));
    }
    trace::close(t, measure);
    let (plan1, memo1) = (session.stats(), session.sim_stats());
    Counters {
        plan: (plan1.hits - plan0.hits, plan1.misses - plan0.misses),
        memo: (memo1.hits - memo0.hits, memo1.misses - memo0.misses),
    }
}

/// Simulated speed-up over MAGMA `vbatch` (geometric mean over the
/// first [`QUALITY`] cases), executing every [`EXECUTE_EVERY`]th case
/// against the bitwise oracle.
fn quality_pass(arch: &ArchSpec, seed: u64, cases: &[Vec<GemmShape>], run: &mut Run) -> f64 {
    let session = Session::new(Framework::new(arch.clone()));
    let mut speedups = Vec::with_capacity(QUALITY);
    for (i, shapes) in cases.iter().take(QUALITY).enumerate() {
        let Some(bits) = run.sim_bits[i] else {
            continue;
        };
        speedups
            .push(simulate(arch, &magma_vbatch(arch, shapes).seq).total_us / f64::from_bits(bits));
        if i % EXECUTE_EVERY == 0 {
            run.attempted += 1;
            let batch = GemmBatch::random(shapes, 1.0, 0.5, derive(seed, 3000 + i as u64));
            let exact = session.plan(shapes).is_ok_and(|plan| {
                bitwise_mismatch(
                    &batch.reference_result_exact(),
                    &execute_plan(&batch, &plan.plan),
                )
                .is_none()
            });
            if !exact {
                run.failed += 1;
            }
        }
    }
    geomean(&speedups)
}

pub fn run(cfg: &Cfg) -> Outcome {
    let arch = ArchSpec::volta_v100();
    let draw = |stream: u64, n: usize| -> Vec<Vec<GemmShape>> {
        (0..n)
            .map(|i| random_case(derive(cfg.seed, stream + i as u64)))
            .collect()
    };
    let warmup = draw(1 << 40, WARMUP);
    let cases = draw(2 << 40, CASES);
    let mut run = Run::new(vec![None; CASES]);

    let deadline = Instant::now() + cfg.seconds;
    let (_, heap_mb) = heap::peak_growth_mb(|| round(&arch, &warmup, &cases, &mut run, &mut None));
    while run.setup_s.len() < 3 || Instant::now() < deadline {
        round(&arch, &warmup, &cases, &mut run, &mut None);
    }
    let total_s = run.total_s();

    let mut m = Metrics::default();
    if !cfg.trace {
        m.set("throughput", CASES as f64 / total_s);
        m.set("setup_s", median(&run.setup_s));
        m.set("peak_heap_mb", heap_mb);
    } else {
        let mut traced = Run::new(run.sim_bits.clone());
        let mut t = Some(Tracer::new(Instant::now(), 0));
        let c = round(&arch, &warmup, &cases, &mut traced, &mut t);
        let spans = t.take().expect("tracer attached").into_spans();
        let measure = spans
            .iter()
            .position(|s| s.name == "measure")
            .expect("measure span");
        let window = trace::window_ns(&spans, measure);
        let by = trace::self_by_name(&spans, measure);
        let share = |name: &str| ratio(by.get(name).map_or(0, |e| e.1) as f64, window);
        let cold = trace::durations_us(&spans, measure, "session.plan");
        let sim = trace::durations_us(&spans, measure, "sim");
        m.set("session.plan_calls", cold.len() as f64);
        m.set(
            "session.hit_rate",
            ratio(c.plan.0 as f64, (c.plan.0 + c.plan.1) as f64),
        );
        m.set("session.plan_cold_us_p50", percentile(&cold, 0.5));
        m.set("session.plan_cold_us_p99", percentile(&cold, 0.99));
        m.set("session.busy_share", share("session.plan"));
        m.set(
            "memo.hit_rate",
            ratio(c.memo.0 as f64, (c.memo.0 + c.memo.1) as f64),
        );
        m.set("memo.misses", c.memo.1 as f64);
        m.set("sim.calls", sim.len() as f64);
        m.set("sim.us_p50", percentile(&sim, 0.5));
        m.set("sim.busy_share", share("sim"));
        m.set(
            "tracing.overhead_pct",
            (traced.total_s() / total_s - 1.0) * 100.0,
        );
        m.set("tracing.coverage", trace::coverage(&spans, measure));
        crate::write_trace(cfg, "plan_novel", &spans);
        run.attempted += traced.attempted;
        run.failed += traced.failed;
    }
    let speedup = quality_pass(&arch, cfg.seed, &cases, &mut run);
    if cfg.trace {
        m.set("sim.speedup_vs_magma", speedup);
    }
    Outcome {
        attempted: run.attempted,
        failed: run.failed,
        metrics: m,
    }
}
