//! `offline_repeat`: the paper's training scenario. A fixed set of
//! batch signatures repeats, so every timed `Session::plan` is a cache
//! hit and the packed executor takes nearly all the time.
//!
//! Each batch is a jittered MAGMA-`vbatch`-style problem (batch 8–32,
//! M = N 64–256, K 128–1024, every dimension scaled by a factor in
//! [0.5, 1.5], see [`jittered`]), two seeded draws around each of six
//! centres. The largest batches hold about 10 MB of operands, well
//! beyond a core's L2. A round builds a fresh session, plans and
//! executes each signature once (the set-up), then repeats plan (hit) →
//! `execute_plan` → `simulate` over the batches until its time slice
//! ends. Every result is compared bit for bit with
//! `reference_result_exact`, and every simulated time must repeat
//! exactly.
//!
//! The executor splits each batch over both cores, so every pass over
//! the batches is followed by a two-thread host reference sample (see
//! [`crate::host`]). Each call's time is rescaled by that sample, each
//! signature takes the median of its rescaled calls, and the throughput
//! is the geometric mean of the signatures' FLOP rates. Which tilings the
//! planner picks for a draw moves that draw's rate by up to 30%; twelve
//! draws and the geometric mean keep one seed's set close to another's.

use crate::metrics::{Metrics, Outcome};
use crate::stats::{derive, geomean, median, percentile, ratio, Rng};
use crate::trace::{self, Tracer};
use crate::Cfg;
use crate::{heap, host};
use ctb_baselines::magma_vbatch;
use ctb_core::{execute_plan, Framework, Session};
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::{bitwise_mismatch, GemmBatch, GemmShape, MatF32};
use ctb_sim::{simulate, LaunchSequence};
use std::time::{Duration, Instant};

/// `(batch, M = N, K)` centres of the signatures.
const CENTRES: [(usize, usize, usize); 6] = [
    (32, 64, 128),
    (16, 128, 256),
    (8, 256, 128),
    (16, 64, 1024),
    (8, 128, 1024),
    (8, 256, 512),
];
/// Seeded draws around each centre.
const DRAWS: usize = 2;
const JITTER: f64 = 0.5;
/// Nominal round count: each round gets a tenth of the run.
const ROUNDS: u32 = 10;
/// The executor splits a batch over two threads.
const THREADS: usize = 2;

struct Sig {
    shapes: Vec<GemmShape>,
    /// Seed of the operands, which each round regenerates.
    data_seed: u64,
    oracle: Vec<MatF32>,
    flops: u64,
    /// A and B read, C read and written, f32: computed, not measured.
    bytes: u64,
    magma_us: f64,
}

impl Sig {
    fn batch(&self) -> GemmBatch {
        GemmBatch::random(&self.shapes, 1.0, 0.5, self.data_seed)
    }
}

/// A variable-size batch of `b` GEMMs around `mn × mn × k`. As in
/// `ctb_matrix::gen::jittered_case`, each dimension is its centre scaled
/// by a factor in `[1 - JITTER, 1 + JITTER]`, but stratified: each
/// dimension takes every factor of an even grid over that range once,
/// in a seeded order. Which GEMM gets which size changes with the seed;
/// the batch's total size barely does, so neither does the heap metric.
fn jittered(b: usize, mn: usize, k: usize, seed: u64) -> Vec<GemmShape> {
    let mut rng = Rng::new(seed);
    let mut dim = |centre: usize| -> Vec<usize> {
        let mut sizes: Vec<usize> = (0..b)
            .map(|i| {
                let f = 1.0 - JITTER + 2.0 * JITTER * (i as f64 + 0.5) / b as f64;
                (centre as f64 * f).round() as usize
            })
            .collect();
        rng.shuffle(&mut sizes);
        sizes
    };
    let (m, n, k) = (dim(mn), dim(mn), dim(k));
    (0..b).map(|i| GemmShape::new(m[i], n[i], k[i])).collect()
}

fn inputs(seed: u64, arch: &ArchSpec) -> Vec<Sig> {
    let draws = CENTRES.iter().flat_map(|c| std::iter::repeat_n(c, DRAWS));
    draws
        .enumerate()
        .map(|(i, &(b, mn, k))| {
            let shapes = jittered(b, mn, k, derive(seed, 10 + i as u64));
            let data_seed = derive(seed, 100 + i as u64);
            let batch = GemmBatch::random(&shapes, 1.0, 0.5, data_seed);
            Sig {
                oracle: batch.reference_result_exact(),
                flops: batch.total_flops(),
                bytes: shapes
                    .iter()
                    .map(|s| 4 * (s.m * s.k + s.k * s.n + 2 * s.m * s.n) as u64)
                    .sum(),
                magma_us: simulate(arch, &magma_vbatch(arch, &shapes).seq).total_us,
                shapes,
                data_seed,
            }
        })
        .collect()
}

/// Everything the rounds of one run accumulate.
struct Run {
    attempted: u64,
    failed: u64,
    /// Simulated µs per signature, as bits, from its first call.
    sim_bits: Vec<Option<u64>>,
    /// Every timed call per signature, seconds at nominal host speed.
    calls: Vec<Vec<f64>>,
    /// Set-up time per round, seconds at nominal host speed.
    setup_s: Vec<f64>,
}

impl Run {
    fn new(sigs: usize) -> Self {
        Run {
            attempted: 0,
            failed: 0,
            sim_bits: vec![None; sigs],
            calls: vec![Vec::new(); sigs],
            setup_s: Vec::new(),
        }
    }

    fn result(&mut self, sig: &Sig, out: Result<Vec<MatF32>, String>) {
        self.attempted += 1;
        if out.map_or(true, |out| bitwise_mismatch(&sig.oracle, &out).is_some()) {
            self.failed += 1;
        }
    }

    fn simulated(&mut self, i: usize, us: f64) {
        match self.sim_bits[i] {
            None => self.sim_bits[i] = Some(us.to_bits()),
            Some(b) if b != us.to_bits() => self.failed += 1,
            Some(_) => {}
        }
    }

    /// FLOP/s at nominal host speed: the geometric mean over signatures
    /// of FLOPs over the median call.
    fn throughput(&self, sigs: &[Sig]) -> f64 {
        geomean(
            &sigs
                .iter()
                .zip(&self.calls)
                .map(|(s, c)| s.flops as f64 / median(c))
                .collect::<Vec<_>>(),
        )
    }
}

/// Plan-cache and memo counters of one round's session.
struct Counters {
    /// Lookups during the timed part: `(hits, misses)`.
    plan: (usize, usize),
    /// Memo lookups over the whole round: `(hits, misses)`.
    memo: (usize, usize),
}

/// One round over `batches`, the signatures' operands freshly generated
/// for it: where the operands land in memory moved one process's
/// executor throughput by up to 9% against another's, and the median
/// over rounds averages that out.
fn round(
    arch: &ArchSpec,
    sigs: &[Sig],
    batches: &[GemmBatch],
    slice: Duration,
    run: &mut Run,
    t: &mut Option<Tracer>,
) -> Counters {
    let start = Instant::now();
    let setup = trace::open(t, "setup", None);
    let session = Session::new(Framework::new(arch.clone()));
    let warm: Vec<_> = batches
        .iter()
        .enumerate()
        .map(|(i, batch)| {
            let req = Some(i as u64);
            trace::span(t, "session.plan", req, || session.plan(&batch.shapes))
                .map(|plan| trace::span(t, "exec", req, || execute_plan(batch, &plan.plan)))
        })
        .collect();
    trace::close(t, setup);
    let setup_s = start.elapsed().as_secs_f64();
    run.setup_s.push(host::at_nominal(
        setup_s,
        trace::span(t, trace::REFERENCE, None, || host::reference(THREADS)),
    ));
    for (sig, out) in sigs.iter().zip(warm) {
        run.result(sig, out);
    }

    let before = session.stats();
    let measure = trace::open(t, "measure", None);
    loop {
        let mut pass = Vec::with_capacity(sigs.len());
        for (i, (sig, batch)) in sigs.iter().zip(batches).enumerate() {
            let req = Some(i as u64);
            let t0 = Instant::now();
            let span = trace::open(t, "batch", req);
            let done =
                trace::span(t, "session.plan", req, || session.plan(&batch.shapes)).map(|plan| {
                    let out = trace::span(t, "exec", req, || execute_plan(batch, &plan.plan));
                    let rep = trace::span(t, "sim", req, || {
                        simulate(arch, &LaunchSequence::Single(plan.kernel.clone()))
                    });
                    (out, rep.total_us)
                });
            trace::close(t, span);
            let dt = t0.elapsed().as_secs_f64();
            match done {
                Ok((out, sim_us)) => {
                    pass.push((i, dt));
                    run.simulated(i, sim_us);
                    run.result(sig, Ok(out));
                }
                Err(e) => run.result(sig, Err(e)),
            }
        }
        let ref_s = trace::span(t, trace::REFERENCE, None, || host::reference(THREADS));
        for (i, dt) in pass {
            run.calls[i].push(host::at_nominal(dt, ref_s));
        }
        if start.elapsed() >= slice {
            break;
        }
    }
    trace::close(t, measure);
    let (after, memo) = (session.stats(), session.sim_stats());
    Counters {
        plan: (after.hits - before.hits, after.misses - before.misses),
        memo: (memo.hits, memo.misses),
    }
}

pub fn run(cfg: &Cfg) -> Outcome {
    let arch = ArchSpec::volta_v100();
    let sigs = inputs(cfg.seed, &arch);
    let batches = || sigs.iter().map(Sig::batch).collect::<Vec<_>>();
    let mut run = Run::new(sigs.len());
    let slice = cfg.seconds / ROUNDS;
    let deadline = Instant::now() + cfg.seconds;
    let first = batches();
    let (_, heap_mb) =
        heap::peak_growth_mb(|| round(&arch, &sigs, &first, slice, &mut run, &mut None));
    drop(first);
    while run.setup_s.len() < 3 || Instant::now() < deadline {
        round(&arch, &sigs, &batches(), slice, &mut run, &mut None);
    }

    let mut m = Metrics::default();
    if !cfg.trace {
        m.set("throughput", run.throughput(&sigs));
        m.set("setup_s", median(&run.setup_s));
        m.set("peak_heap_mb", heap_mb);
    } else {
        // The traced round keeps its own medians, so the overhead
        // compares like with like.
        let mut traced = Run {
            sim_bits: run.sim_bits.clone(),
            ..Run::new(sigs.len())
        };
        let mut t = Some(Tracer::new(Instant::now(), 0));
        let counters = round(&arch, &sigs, &batches(), slice, &mut traced, &mut t);
        let spans = t.take().expect("tracer attached").into_spans();
        layer_metrics(&mut m, &spans, &sigs, &counters);
        m.set(
            "tracing.overhead_pct",
            (run.throughput(&sigs) / traced.throughput(&sigs) - 1.0) * 100.0,
        );
        let speedups: Vec<f64> = sigs
            .iter()
            .zip(&run.sim_bits)
            .filter_map(|(s, b)| b.map(|b| s.magma_us / f64::from_bits(b)))
            .collect();
        m.set("sim.speedup_vs_magma", geomean(&speedups));
        crate::write_trace(cfg, "offline_repeat", &spans);
        run.attempted += traced.attempted;
        run.failed += traced.failed;
    }
    Outcome {
        attempted: run.attempted,
        failed: run.failed,
        metrics: m,
    }
}

/// Per-layer metrics from the traced round's spans.
fn layer_metrics(m: &mut Metrics, spans: &[trace::Span], sigs: &[Sig], c: &Counters) {
    let root = |name: &str| {
        spans
            .iter()
            .position(|s| s.name == name)
            .expect("round spans")
    };
    let (setup, measure) = (root("setup"), root("measure"));
    let window = trace::window_ns(spans, measure);
    let by = trace::self_by_name(spans, measure);
    let share = |name: &str| ratio(by.get(name).map_or(0, |e| e.1) as f64, window);

    let hits = trace::durations_us(spans, measure, "session.plan");
    let cold = trace::durations_us(spans, setup, "session.plan");
    m.set("session.plan_calls", hits.len() as f64);
    m.set(
        "session.hit_rate",
        ratio(c.plan.0 as f64, (c.plan.0 + c.plan.1) as f64),
    );
    m.set("session.plan_hit_us_p50", percentile(&hits, 0.5));
    m.set("session.plan_cold_us_p50", percentile(&cold, 0.5));
    m.set("session.plan_cold_us_p99", percentile(&cold, 0.99));
    m.set("session.busy_share", share("session.plan"));
    m.set(
        "memo.hit_rate",
        ratio(c.memo.0 as f64, (c.memo.0 + c.memo.1) as f64),
    );
    m.set("memo.misses", c.memo.1 as f64);

    let sim = trace::durations_us(spans, measure, "sim");
    m.set("sim.calls", sim.len() as f64);
    m.set("sim.us_p50", percentile(&sim, 0.5));
    m.set("sim.busy_share", share("sim"));

    let exec = trace::durations_us(spans, measure, "exec");
    let (mut flops, mut bytes) = (0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if s.name == "exec" && trace::within(spans, i, measure) {
            let sig = &sigs[s.req.expect("exec spans carry the signature") as usize];
            flops += sig.flops;
            bytes += sig.bytes;
        }
    }
    let exec_s: f64 = exec.iter().sum::<f64>() / 1e6;
    m.set("exec.calls", exec.len() as f64);
    m.set("exec.ms_p50", percentile(&exec, 0.5) / 1e3);
    m.set("exec.ms_p99", percentile(&exec, 0.99) / 1e3);
    m.set("exec.gflops", ratio(flops as f64, exec_s) / 1e9);
    m.set("exec.flops", flops as f64);
    m.set("exec.bytes_computed", bytes as f64);
    m.set("exec.flops_per_byte", ratio(flops as f64, bytes as f64));
    m.set("exec.busy_share", share("exec"));
    m.set("tracing.coverage", trace::coverage(spans, measure));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_stratified_and_seeded() {
        let sizes = |v: &[GemmShape], f: fn(&GemmShape) -> usize| {
            let mut s: Vec<usize> = v.iter().map(f).collect();
            s.sort_unstable();
            s
        };
        let (a, b) = (jittered(8, 256, 512, 1), jittered(8, 256, 512, 2));
        assert_eq!(a, jittered(8, 256, 512, 1), "same seed, same batch");
        assert_ne!(a, b, "the seed reorders the sizes");
        // Every draw holds the same grid of sizes per dimension.
        assert_eq!(
            sizes(&a, |s| s.m),
            vec![144, 176, 208, 240, 272, 304, 336, 368]
        );
        assert_eq!(sizes(&a, |s| s.k), sizes(&b, |s| s.k));
        assert_eq!(sizes(&a, |s| s.n), sizes(&b, |s| s.m));
    }
}
