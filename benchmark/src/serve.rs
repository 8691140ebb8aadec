//! `serve_open`: independent users sending single GEMMs to a
//! `ServeConfig::default()` server through `AsyncFront::try_submit`, as
//! an open loop.
//!
//! Requests draw one of six fixed shapes (all dimensions ≤ 128) and one
//! of a few operand sets per shape; arrivals are exponential at a fixed
//! rate. One generator thread sleeps until each request is due and
//! submits it; the calling thread waits on the tickets in order.
//! Latency runs from the due time to the observed response, so a stall
//! also charges the requests queued behind it. Every response is
//! compared bit for bit with its precomputed `reference_result_exact`
//! oracle.
//!
//! The measured rounds saturate the server: 32k req/s offered, at most
//! [`MAX_OUTSTANDING`] requests in flight so a round drains quickly.
//! There coalescing and the executor set the completion rate. Each round
//! builds its own server, runs on fresh copies of the operands and is
//! bracketed by two-thread host reference samples (see [`crate::host`]);
//! the throughput is the completions of all rounds over their summed
//! time at nominal host speed. The traced run adds one round at 2k req/s
//! (the batching window dominates and batches hold about one request)
//! and one at 6k req/s, whose latencies are per-layer metrics: on a
//! shared 2-vCPU host they move too much from run to run to gate on.

use crate::metrics::{Metrics, Outcome, PHASES};
use crate::stats::{derive, median, percentile, ratio, sorted, Rng};
use crate::trace::{self, Span, Tracer};
use crate::Cfg;
use crate::{heap, host};
use ctb_core::Framework;
use ctb_gpu_specs::ArchSpec;
use ctb_matrix::{bitwise_mismatch, GemmBatch, GemmShape, MatF32};
use ctb_serve::{GemmRequest, GemmResult, ServeConfig, ServeError, ServeStats, Server, Ticket};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const SHAPES: [(usize, usize, usize); 6] = [
    (16, 16, 32),
    (32, 32, 32),
    (32, 64, 64),
    (64, 64, 64),
    (64, 32, 128),
    (128, 128, 64),
];
/// Operand sets per shape; requests share their buffers (`MatF32`
/// clones are reference-count bumps), so the pool stays small.
const VARIANTS: usize = 16;
/// Offered rate per phase, req/s (see [`PHASES`]).
const RATES: [f64; 3] = [2_000.0, 6_000.0, 32_000.0];
/// Length of a traced fixed-rate round, as a share of the run.
const TRACED_SHARE: [f64; 2] = [0.2, 0.15];
/// Length of one saturation round.
const SAT_ROUND: Duration = Duration::from_millis(500);
/// Cap on submitted-but-unobserved requests.
const MAX_OUTSTANDING: usize = 256;
/// Requests in the burst that sizes the heap metric.
const BURST: usize = 512;
/// Bound on every ticket wait and on the final flush.
const WAIT: Duration = Duration::from_secs(10);
/// A fixed-rate round whose generator ran later than this at p99 did
/// not offer the rate it names; the traced run retries it.
const LATE_LIMIT_US: f64 = 500.0;
const THREADS: usize = 2;

struct Item {
    req: GemmRequest,
    oracle: MatF32,
}

fn pool(seed: u64) -> Vec<Vec<Item>> {
    SHAPES
        .iter()
        .enumerate()
        .map(|(s, &(m, n, k))| {
            (0..VARIANTS)
                .map(|v| {
                    let b = GemmBatch::random(
                        &[GemmShape::new(m, n, k)],
                        1.0,
                        0.5,
                        derive(seed, (s * VARIANTS + v) as u64),
                    );
                    let oracle = b.reference_result_exact().remove(0);
                    let req = GemmRequest {
                        a: b.a[0].clone(),
                        b: b.b[0].clone(),
                        c: b.c[0].clone(),
                        alpha: b.alpha,
                        beta: b.beta,
                        deadline: None,
                    };
                    Item { req, oracle }
                })
                .collect()
        })
        .collect()
}

/// The pool with every request's operands copied into fresh buffers.
/// Each round and the burst run on their own copies, so no one
/// placement of the operands in memory decides a whole run.
fn fresh(pool: &[Vec<Item>]) -> Vec<Vec<Item>> {
    let copy = |m: &MatF32| MatF32::from_vec(m.rows(), m.cols(), m.as_slice().to_vec());
    let item = |i: &Item| Item {
        req: GemmRequest {
            a: copy(&i.req.a),
            b: copy(&i.req.b),
            c: copy(&i.req.c),
            ..i.req.clone()
        },
        oracle: i.oracle.clone(),
    };
    pool.iter()
        .map(|variants| variants.iter().map(item).collect())
        .collect()
}

/// One submitted request, handed from the generator to the collector.
struct Sent {
    id: u64,
    item: (usize, usize),
    due: Instant,
    submit_start: Instant,
    ticket: Ticket,
}

/// What the generator thread reports back.
struct GenReport {
    late_us: Vec<f64>,
    submit_us: Vec<f64>,
    backlog_max: usize,
    flushed: bool,
    spans: Vec<Span>,
}

/// What one round measured.
#[derive(Default)]
struct PhaseRound {
    /// Set-up time, seconds at nominal host speed.
    setup_s: f64,
    /// From the first due time to the last response, seconds at nominal
    /// host speed.
    nominal_s: f64,
    lat_us: Vec<f64>,
    late_us: Vec<f64>,
    submit_us: Vec<f64>,
    queue_us: Vec<f64>,
    plan_us: Vec<f64>,
    exec_us: Vec<f64>,
    respond_us: Vec<f64>,
    backlog_max: usize,
    /// Server counters after warm-up and at shutdown.
    base: Option<ServeStats>,
    end: Option<ServeStats>,
    spans: Vec<Span>,
}

impl PhaseRound {
    /// Completions per second at nominal host speed.
    fn completed_rps(&self) -> f64 {
        ratio(self.lat_us.len() as f64, self.nominal_s)
    }
}

#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn response(&mut self, r: &Result<GemmResult, ServeError>, oracle: &MatF32) {
        self.attempted += 1;
        let exact = r.as_ref().is_ok_and(|r| {
            bitwise_mismatch(std::slice::from_ref(oracle), std::slice::from_ref(&r.c)).is_none()
        });
        if !exact {
            self.failed += 1;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn generator(
    server: &Server,
    pool: &[Vec<Item>],
    rate: f64,
    length: Duration,
    seed: u64,
    origin: Instant,
    observed: &AtomicUsize,
    tx: mpsc::Sender<Sent>,
    traced: bool,
) -> GenReport {
    let front = server.front();
    let mut t = traced.then(|| Tracer::new(origin, 1));
    let mut rng = Rng::new(seed);
    let (mut late_us, mut submit_us, mut backlog_max) = (Vec::new(), Vec::new(), 0);
    let mut due_s = 0.0;
    for id in 0u64.. {
        due_s += -rng.unit().ln() / rate;
        if due_s >= length.as_secs_f64() || origin.elapsed() >= length {
            break;
        }
        let due = origin + Duration::from_secs_f64(due_s);
        while id as usize - observed.load(Ordering::Acquire) >= MAX_OUTSTANDING {
            front.flush();
            std::thread::sleep(Duration::from_micros(50));
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let item = (rng.below(SHAPES.len()), rng.below(VARIANTS));
        let submit_start = Instant::now();
        let ticket = trace::span(&mut t, "front.try_submit", Some(id), || {
            front.try_submit(pool[item.0][item.1].req.clone())
        });
        submit_us.push(submit_start.elapsed().as_secs_f64() * 1e6);
        late_us.push(submit_start.saturating_duration_since(due).as_secs_f64() * 1e6);
        if traced {
            backlog_max = backlog_max.max(front.backlog_len());
        }
        let ticket = ticket.expect("benchmark requests are valid");
        if tx
            .send(Sent {
                id,
                item,
                due,
                submit_start,
                ticket,
            })
            .is_err()
        {
            break;
        }
    }
    // Hand every buffered request to the server before the front drops:
    // a dropped front resolves leftovers as rejected.
    let give_up = Instant::now() + WAIT;
    let mut flushed = true;
    while front.flush() > 0 {
        if Instant::now() > give_up {
            flushed = false;
            break;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    GenReport {
        late_us,
        submit_us,
        backlog_max,
        flushed,
        spans: t.map(Tracer::into_spans).unwrap_or_default(),
    }
}

fn phase_round(
    pool: &[Vec<Item>],
    rate: f64,
    length: Duration,
    seed: u64,
    traced: bool,
    checks: &mut Checks,
) -> PhaseRound {
    let pool = &fresh(pool);
    let start = Instant::now();
    let server = Server::new(
        Framework::new(ArchSpec::volta_v100()),
        ServeConfig::default(),
    );
    // Warm-up: every single-request signature once. Each request waits
    // out the batching window in the queue, about half the set-up: a
    // fixed wall-clock wait, not host work, so it is left out of the
    // set-up time rather than rescaled with it.
    let mut queued_s = 0.0;
    {
        let front = server.front();
        for variants in pool {
            let item = &variants[0];
            let r = front
                .try_submit(item.req.clone())
                .and_then(|t| t.wait_for(WAIT));
            if let Ok(res) = &r {
                queued_s += res.timing.queue_us / 1e6;
            }
            checks.response(&r, &item.oracle);
        }
    }
    let setup_s = start.elapsed().as_secs_f64() - queued_s;
    let ref_before = host::reference(THREADS);
    let mut out = PhaseRound {
        setup_s: host::at_nominal(setup_s, ref_before),
        base: Some(server.stats()),
        ..PhaseRound::default()
    };

    let observed = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<Sent>();
    let origin = Instant::now();
    let mut t = traced.then(|| Tracer::new(origin, 0));
    let mut last = origin;
    let gen = std::thread::scope(|s| {
        let gen = s.spawn(|| {
            generator(
                &server, pool, rate, length, seed, origin, &observed, tx, traced,
            )
        });
        for sent in rx {
            let r = trace::span(&mut t, "ticket.wait", Some(sent.id), || {
                sent.ticket.wait_for(WAIT)
            });
            let seen = Instant::now();
            observed.fetch_add(1, Ordering::Release);
            last = seen;
            if let Ok(res) = &r {
                let timing = res.timing;
                let since_submit = seen.duration_since(sent.submit_start).as_secs_f64() * 1e6;
                out.lat_us
                    .push(seen.duration_since(sent.due).as_secs_f64() * 1e6);
                out.queue_us.push(timing.queue_us);
                out.plan_us.push(timing.plan_us);
                out.exec_us.push(timing.exec_us);
                out.respond_us
                    .push((since_submit - timing.total_us()).max(0.0));
            }
            checks.response(&r, &pool[sent.item.0][sent.item.1].oracle);
        }
        gen.join().expect("generator thread")
    });
    let elapsed = last.duration_since(origin).as_secs_f64();
    let ref_s = (ref_before + host::reference(THREADS)) / 2.0;
    if !gen.flushed {
        checks.failed += 1;
    }
    out.nominal_s = host::at_nominal(elapsed, ref_s);
    out.end = Some(server.shutdown());
    out.late_us = sorted(gen.late_us);
    out.submit_us = gen.submit_us;
    out.backlog_max = gen.backlog_max;
    out.spans = trace::merge(vec![
        t.map(Tracer::into_spans).unwrap_or_default(),
        gen.spans,
    ]);
    for v in [
        &mut out.lat_us,
        &mut out.queue_us,
        &mut out.plan_us,
        &mut out.exec_us,
        &mut out.respond_us,
    ] {
        *v = sorted(std::mem::take(v));
    }
    out
}

/// Peak heap growth, MiB, while a fresh server takes a burst of
/// [`BURST`] requests that all stay outstanding until the last is
/// submitted. The burst holds a fixed mix of shapes, so unlike a timed
/// round its peak depends neither on how arrivals and batches happened
/// to interleave nor much on the seed.
fn burst_heap_mb(pool: &[Vec<Item>], seed: u64, checks: &mut Checks) -> f64 {
    // Every shape equally often, in a seeded order.
    let mut rng = Rng::new(seed);
    let mut items: Vec<(usize, usize)> = (0..BURST)
        .map(|i| (i % SHAPES.len(), rng.below(VARIANTS)))
        .collect();
    rng.shuffle(&mut items);
    let pool = &fresh(pool);
    let (results, mb) = heap::peak_growth_mb(|| {
        let server = Server::new(
            Framework::new(ArchSpec::volta_v100()),
            ServeConfig::default(),
        );
        let front = server.front();
        let tickets: Vec<_> = items
            .iter()
            .map(|&(s, v)| front.try_submit(pool[s][v].req.clone()))
            .collect();
        let give_up = Instant::now() + WAIT;
        while front.flush() > 0 && Instant::now() < give_up {
            std::thread::sleep(Duration::from_micros(100));
        }
        let results: Vec<_> = tickets
            .into_iter()
            .map(|t| t.and_then(|t| t.wait_for(WAIT)))
            .collect();
        drop(front);
        server.shutdown();
        results
    });
    for (r, &(s, v)) in results.iter().zip(&items) {
        checks.response(r, &pool[s][v].oracle);
    }
    mb
}

fn phase_metrics(m: &mut Metrics, phase: &str, r: &PhaseRound) {
    let (base, end) = (
        r.base.as_ref().expect("base stats"),
        r.end.as_ref().expect("end stats"),
    );
    let d = |f: fn(&ServeStats) -> usize| (f(end) - f(base)) as f64;
    let completed = d(|s| s.completed);
    let batches = d(|s| s.batches);
    let (ph, pm) = (d(|s| s.plan_cache.hits), d(|s| s.plan_cache.misses));
    let (mh, mm) = (d(|s| s.sim_memo.hits), d(|s| s.sim_memo.misses));
    let p = |v: &[f64], q| percentile(v, q);
    for (name, v) in [
        ("serve.completed_rps", r.completed_rps()),
        ("serve.lat_us_p50", p(&r.lat_us, 0.5)),
        ("serve.lat_us_p95", p(&r.lat_us, 0.95)),
        ("serve.lat_us_p99", p(&r.lat_us, 0.99)),
        ("serve.lat_us_p999", p(&r.lat_us, 0.999)),
        ("serve.lat_samples", r.lat_us.len() as f64),
        ("serve.queue_us_p50", p(&r.queue_us, 0.5)),
        ("serve.queue_us_p95", p(&r.queue_us, 0.95)),
        ("serve.plan_us_p50", p(&r.plan_us, 0.5)),
        ("serve.exec_us_p50", p(&r.exec_us, 0.5)),
        ("serve.exec_us_p95", p(&r.exec_us, 0.95)),
        ("serve.respond_us_p50", p(&r.respond_us, 0.5)),
        ("serve.batch_size_mean", ratio(completed, batches)),
        ("serve.batches", batches),
        ("serve.plan_hit_rate", ratio(ph, ph + pm)),
        ("serve.memo_hit_rate", ratio(mh, mh + mm)),
        ("serve.degraded", d(|s| s.degraded)),
        ("serve.retries", d(|s| s.retries)),
        ("serve.rejected", d(|s| s.rejected)),
        ("serve.expired", d(|s| s.expired)),
        ("gen.late_us_p50", p(&r.late_us, 0.5)),
        ("gen.late_us_p99", p(&r.late_us, 0.99)),
    ] {
        m.set_phase(name, phase, v);
    }
}

pub fn run(cfg: &Cfg) -> Outcome {
    let pool = pool(cfg.seed);
    let mut checks = Checks::default();
    let seed = |phase: usize, round: usize| derive(cfg.seed, (100 * phase + round) as u64);
    let sat = PHASES.len() - 1;

    let deadline = Instant::now() + cfg.seconds;
    // The burst draws from a stream no phase uses.
    let heap_mb = burst_heap_mb(&pool, seed(PHASES.len(), 0), &mut checks);
    let mut rounds = Vec::new();
    while rounds.len() < 5 || Instant::now() < deadline {
        rounds.push(phase_round(
            &pool,
            RATES[sat],
            SAT_ROUND,
            seed(sat, rounds.len()),
            false,
            &mut checks,
        ));
    }
    // Completions over time summed across rounds: steadier from run to
    // run than the median round, whose rate swings with scheduling.
    let completed: usize = rounds.iter().map(|r| r.lat_us.len()).sum();
    let capacity = ratio(completed as f64, rounds.iter().map(|r| r.nominal_s).sum());

    let mut m = Metrics::default();
    if !cfg.trace {
        m.set("throughput", capacity);
        m.set(
            "setup_s",
            median(&rounds.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        );
        m.set("peak_heap_mb", heap_mb);
    } else {
        let traced: Vec<PhaseRound> = (0..PHASES.len())
            .map(|ph| {
                let length = if ph == sat {
                    SAT_ROUND
                } else {
                    cfg.seconds.mul_f64(TRACED_SHARE[ph])
                };
                let mut attempt = 0;
                loop {
                    let r = phase_round(
                        &pool,
                        RATES[ph],
                        length,
                        seed(ph, 1000 + attempt),
                        true,
                        &mut checks,
                    );
                    attempt += 1;
                    if ph == sat || percentile(&r.late_us, 0.99) <= LATE_LIMIT_US || attempt == 3 {
                        break r;
                    }
                }
            })
            .collect();
        for (phase, r) in PHASES.iter().zip(&traced) {
            phase_metrics(&mut m, phase, r);
        }
        let submit = sorted(
            traced
                .iter()
                .flat_map(|r| r.submit_us.iter().copied())
                .collect(),
        );
        m.set("front.submit_us_p50", percentile(&submit, 0.5));
        m.set("front.submit_us_p99", percentile(&submit, 0.99));
        m.set(
            "front.backlog_max",
            traced.iter().map(|r| r.backlog_max).max().unwrap_or(0) as f64,
        );
        m.set(
            "tracing.overhead_pct",
            (ratio(capacity, traced[sat].completed_rps()) - 1.0) * 100.0,
        );
        crate::write_trace(
            cfg,
            "serve_open",
            &trace::merge(traced.into_iter().map(|r| r.spans).collect()),
        );
    }
    Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: m,
    }
}
