//! Regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p ctb-bench --bin reproduce --release -- all
//! cargo run -p ctb-bench --bin reproduce --release -- fig9
//! ```
//!
//! Run `reproduce --help` (or any unknown sub-command) for the full
//! listing. Paper experiments (`tables`, `motivation`, `fig8`, `fig9`,
//! `fig10`, `googlenet`, `fig11`, `tlp`, `ablate`, `fans`, `splitk`)
//! print the paper's row/series layout and mirror CSV under
//! `target/experiments/`; the serving harnesses (`perf`, `serve`,
//! `chaos`, `cluster`, `obs`, `replay`, `storm`, `calibrate`,
//! `locality`) additionally write a tracked `BENCH_<name>.json` at the
//! repository root through [`ctb_bench::publish`], with the key set
//! gated against the committed `BENCH_<name>.json`: a report that adds
//! or drops a key path fails the run.

use ctb_bench::figures::{fig11_portability, fig8_grid, fig9_grid, mean_speedup, CellResult};
use ctb_bench::{ablations, calibrate, fans, googlenet_exp, motivation, tables, write_csv};
use ctb_bench::Json;
use ctb_gpu_specs::{ArchSpec, Thresholds};
use std::str::FromStr;

/// The complete sub-command and flag listing — printed by `--help` and
/// on any unknown sub-command or flag, so every entry point is
/// discoverable from the binary itself.
fn usage() -> &'static str {
    "usage: reproduce [SUBCOMMAND] [FLAGS]   (default: all)

paper experiments (print the paper's layout; CSV under target/experiments/):
  tables              Tables 1-2 and the 4.2.3 worked example
  motivation          single-GEMM efficiency rows (paper 1)
  fig8                tiling engine vs MAGMA vbatch grid
  fig9                coordinated tiling + batching vs MAGMA vbatch grid
  fig10               GoogleNet inception-layer speedups
  googlenet           GoogleNet end-to-end inference (paper 7.3)
  fig11               sensitivity across GPU architectures
  tlp                 offline TLP-threshold calibration sweep (papers 4.2.3 / 7)
  ablate              DESIGN.md design-choice ablations
  fans                SqueezeNet / ResNet / backward fan extensions
  splitk              split-K extension on TLP-starved large-K GEMMs
  plan <MxNxK,...>    explain tiling/batching decisions for a shape list
  custom <file>       run every executor on a workload file (M,N,K per line)
  all                 every paper experiment above (not the harnesses)

serving harnesses (write BENCH_<name>.json at the repo root, or
target/experiments/BENCH_<name>_smoke.json with --smoke; the key set is
gated against the committed BENCH_<name>.json and drift fails the run):
  perf                executor / autotune / fig9-grid timings
  serve               4-producer closed loop through ctb-serve
  chaos               fault-rate sweep over the resilience layer
  cluster             burst scaling + kill run + open-loop event-engine sweep
      --batches N --devices a,b,c --seed S --event-devices a,b,c
      --requests R --smoke
  obs                 instrumented serve loop + trace audit
  replay              record a seeded panic storm, re-run + crash/restore
      --requests N --seed S --panics PER_MILLE --smoke
  storm               distinct-shape storm vs two plan-cache arms
      --smoke
  calibrate           closed loop: record drifted trace -> fit corrections ->
                      retrain selector -> hot-swap replay (gates on strictly
                      lower placement error)
      --devices N --requests N --seed S --drift-seed S
  locality            locality-aware vs locality-blind placement on a drifted
                      multi-chiplet pool (gates on strictly less remote
                      operand traffic)
      --devices N --requests N --seed S --drift-seed S

flags: --help | -h | help    print this listing
"
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map(String::as_str).unwrap_or("all");
    let arch = ArchSpec::volta_v100();
    match what {
        "--help" | "-h" | "help" => print!("{}", usage()),
        "tables" => run_tables(),
        "motivation" => run_motivation(&arch),
        "fig8" => run_grid(&arch, 8),
        "fig9" => run_grid(&arch, 9),
        "fig10" => run_fig10(&arch),
        "googlenet" => run_googlenet(&arch),
        "fig11" => run_fig11(),
        "tlp" => run_tlp_calibrate(),
        "ablate" => run_ablations(&arch),
        "plan" => run_plan_explain(&arch, args.get(1).map(String::as_str)),
        "custom" => run_custom(&arch, args.get(1).map(String::as_str)),
        "fans" => run_fans(&arch),
        "splitk" => run_splitk_demo(&arch),
        "perf" => run_perf(&arch),
        "serve" => run_serve(&arch),
        "chaos" => run_chaos(&arch),
        "cluster" => run_cluster(&args[1..]),
        "obs" => run_obs(&arch),
        "replay" => run_replay(&args[1..]),
        "storm" => run_storm(&arch, &args[1..]),
        "calibrate" => run_calibrate_loop(&args[1..]),
        "locality" => run_locality(&args[1..]),
        "all" => {
            run_tables();
            run_motivation(&arch);
            run_grid(&arch, 8);
            run_grid(&arch, 9);
            run_fig10(&arch);
            run_googlenet(&arch);
            run_fig11();
            run_tlp_calibrate();
            run_ablations(&arch);
            run_fans(&arch);
            run_splitk_demo(&arch);
        }
        other => usage_error(&format!("unknown experiment '{other}'\n\n{}", usage())),
    }
}

/// Print `msg` and exit 2: a malformed command line is a usage error,
/// never a panic.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// `raw` parsed as the value of `flag`, or a usage error.
fn parse_value<T: FromStr>(raw: &str, flag: &str) -> T {
    raw.parse().unwrap_or_else(|_| usage_error(&format!("bad value '{raw}' for {flag}")))
}

/// The value following `flag` on the command line, parsed.
fn flag_value<T: FromStr>(args: &mut std::slice::Iter<'_, String>, flag: &str) -> T {
    let raw = args.next().unwrap_or_else(|| usage_error(&format!("flag {flag} needs a value")));
    parse_value(raw, flag)
}

/// The value following `flag`, which must be at least 1.
fn flag_count(args: &mut std::slice::Iter<'_, String>, flag: &str) -> usize {
    match flag_value(args, flag) {
        0 => usage_error(&format!("bad value '0' for {flag}: needs at least 1")),
        count => count,
    }
}

/// `text` as a GEMM shape: three unsigned integers separated by `x` or
/// `,` (`MxNxK` or `M,N,K`).
fn parse_shape(text: &str) -> Option<ctb_matrix::GemmShape> {
    let dims: Option<Vec<usize>> = text.split([',', 'x']).map(|d| d.trim().parse().ok()).collect();
    match dims?[..] {
        [m, n, k] => Some(ctb_matrix::GemmShape::new(m, n, k)),
        _ => None,
    }
}

/// The comma-separated list following `flag`, each item parsed.
fn flag_list<T: FromStr>(args: &mut std::slice::Iter<'_, String>, flag: &str) -> Vec<T> {
    let raw: String = flag_value(args, flag);
    raw.split(',').map(|item| parse_value(item.trim(), flag)).collect()
}

/// Write `report` through [`ctb_bench::publish`], the one writer and
/// key-set gate of every tracked report; exits 1 if it refuses.
fn publish(name: &str, report: &Json, smoke: bool) {
    let path = ctb_bench::publish(name, report, smoke).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1)
    });
    println!("(json: {}; key set matches the committed BENCH_{name}.json)\n", path.display());
}

/// Parse `--devices N --requests N --seed S --drift-seed S`, the flags
/// the calibration loop and the locality differential share, into the
/// matching config fields.
fn pool_flags(
    args: &[String],
    subcommand: &str,
    [devices, requests]: [&mut usize; 2],
    [seed, drift_seed]: [&mut u64; 2],
) {
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--devices" => *devices = flag_count(&mut it, flag),
            "--requests" => *requests = flag_count(&mut it, flag),
            "--seed" => *seed = flag_value(&mut it, flag),
            "--drift-seed" => *drift_seed = flag_value(&mut it, flag),
            other => usage_error(&format!(
                "unknown {subcommand} flag '{other}'; expected --devices N, --requests N, \
                 --seed S, --drift-seed S"
            )),
        }
    }
}

fn run_calibrate_loop(args: &[String]) {
    use ctb_bench::calib_bench;
    let mut cfg = calib_bench::CalibBenchConfig::default();
    let sizes = [&mut cfg.devices, &mut cfg.requests];
    pool_flags(args, "calibrate", sizes, [&mut cfg.seed, &mut cfg.drift_seed]);
    println!("== calibration loop: record drifted trace -> fit -> retrain -> hot-swap replay ==");
    let r = calib_bench::run_calib_bench(&cfg);
    println!(
        "   record: {} decisions over {} devices (drift seed {}) | mean placement err {:.3} us | \
         {} witness mismatches",
        r.record.decisions, r.cfg.devices, r.cfg.drift_seed, r.record.mean_abs_err_us,
        r.record.witness_mismatches
    );
    println!(
        "   fit: {} arches ({} corrected) from {} cases | in-sample err {:.3} -> {:.3} us",
        r.fit_arches, r.fit_corrected, r.fit_cases, r.fit_err_before_us, r.fit_err_after_us
    );
    println!(
        "   retrain: {} | {} signatures, {} label flips | regret {:.3} -> {:.3} us | \
         forest {} trees / {} nodes / depth {} -> {} trees / {} nodes / depth {}",
        if r.retrain_accepted { "accepted" } else { "rejected (baseline kept)" },
        r.retrain_signatures,
        r.retrain_label_flips,
        r.regret_before_us,
        r.regret_after_us,
        r.forest_before.trees,
        r.forest_before.total_nodes,
        r.forest_before.max_depth,
        r.forest_after.trees,
        r.forest_after.total_nodes,
        r.forest_after.max_depth
    );
    println!("   profile: v{} blob, {} bytes, byte-stable round-trip", 1, r.profile_bytes);
    println!(
        "   replay: mean placement err {:.3} us ({:+.1}% vs record) | swap arm: epoch {} \
         installed mid-run, {} completed, {} dropped",
        r.replay.mean_abs_err_us,
        -r.err_reduction_pct(),
        r.swap_version,
        r.swap_completed,
        r.swap_dropped
    );
    publish("calibrate", &calib_bench::report_json(&r), false);
    if r.replay.mean_abs_err_us >= r.record.mean_abs_err_us {
        eprintln!(
            "calibration regression: replay error {:.4} us did not fall below the recorded \
             {:.4} us",
            r.replay.mean_abs_err_us, r.record.mean_abs_err_us
        );
        std::process::exit(1);
    }
    if r.swap_dropped > 0 || r.record.witness_mismatches + r.replay.witness_mismatches > 0 {
        eprintln!(
            "calibration regression: {} dropped in the swap arm, {} witness mismatches",
            r.swap_dropped,
            r.record.witness_mismatches + r.replay.witness_mismatches
        );
        std::process::exit(1);
    }
}

fn run_locality(args: &[String]) {
    use ctb_bench::locality_bench;
    let mut cfg = locality_bench::LocalityBenchConfig::default();
    let sizes = [&mut cfg.devices, &mut cfg.requests];
    pool_flags(args, "locality", sizes, [&mut cfg.seed, &mut cfg.drift_seed]);
    println!(
        "== locality differential: aware vs blind placement on a drifted multi-chiplet pool =="
    );
    let r = locality_bench::run_locality_bench(&cfg);
    println!(
        "   pool: {} x MCM-GPU 4-die (drift seed {}) | {} requests (seed {:#x})",
        r.cfg.devices, r.cfg.drift_seed, r.cfg.requests, r.cfg.seed
    );
    for (label, a) in [("aware", &r.aware), ("blind", &r.blind)] {
        println!(
            "   {label}: {} completed | {} landings ({} hits / {} misses, hit rate {:>5.1}%) | \
             {:>12} remote bytes | makespan {:>12.1} sim us | {} witness mismatches",
            a.completed,
            a.routed + a.steals,
            a.residency_hits,
            a.residency_misses,
            100.0 * a.hit_rate(),
            a.remote_operand_bytes,
            a.makespan_sim_us,
            a.witness_mismatches
        );
    }
    println!(
        "   aware vs blind: {:.1}% fewer remote placements | {:.1}% less interposer traffic",
        r.miss_reduction_pct(),
        r.remote_bytes_reduction_pct()
    );
    publish("locality", &locality_bench::report_json(&r), false);
    if !r.gate_passed() {
        eprintln!(
            "locality regression: aware arm must strictly reduce remote traffic with exact \
             results (misses {} vs {}, bytes {} vs {}, mismatches {}+{})",
            r.aware.residency_misses,
            r.blind.residency_misses,
            r.aware.remote_operand_bytes,
            r.blind.remote_operand_bytes,
            r.aware.witness_mismatches,
            r.blind.witness_mismatches
        );
        std::process::exit(1);
    }
}

fn run_perf(arch: &ArchSpec) {
    use ctb_bench::perf;
    println!("== perf harness: executor / autotune / fig9 grid ({}) ==", arch.name);
    println!("   tile kernel: {}", ctb_core::tile_kernel_name());
    let entries = perf::run_perf(arch);
    for e in &entries {
        println!(
            "   {:<40} {:>10.2} ms   ({} evaluated, {} cache hits)",
            e.workload, e.wall_ms, e.evaluated, e.cache_hits
        );
    }
    let packed = entries.iter().find(|e| e.workload.starts_with("execute_plan_packed"));
    let unpacked = entries.iter().find(|e| e.workload.starts_with("execute_plan_unpacked"));
    if let (Some(p), Some(u)) = (packed, unpacked) {
        println!("   packed executor speedup over unpacked baseline: {:.2}x", u.wall_ms / p.wall_ms);
    }
    publish("executor", &perf::report_json(arch, &entries), false);
}

fn run_serve(arch: &ArchSpec) {
    use ctb_bench::serve_bench;
    println!("== serve harness: 4-producer closed loop through ctb-serve ({}) ==", arch.name);
    let r = serve_bench::run_serve_bench(arch, 4, 50);
    println!(
        "   {} requests in {:.1} ms -> {:.0} req/s",
        r.requests, r.wall_ms, r.throughput_rps
    );
    println!(
        "   {} batches (mean batch size {:.2}) | plan-cache hit rate {:.1}% | \
         sim-memo hit rate {:.1}%",
        r.batches,
        r.mean_batch_size,
        100.0 * r.plan_cache_hit_rate,
        100.0 * r.sim_memo_hit_rate
    );
    println!("   latency p50 {:.0} us, p95 {:.0} us", r.p50_us, r.p95_us);
    publish("serve", &serve_bench::report_json(arch, &r), false);
}

fn run_chaos(arch: &ArchSpec) {
    use ctb_bench::chaos_bench;
    println!(
        "== chaos harness: fault-rate sweep over the resilience layer ({}) ==",
        arch.name
    );
    let points = chaos_bench::run_chaos_sweep(arch, 4, 50);
    for p in &points {
        println!(
            "   fault rate {:>4}‰ | {:>5.1}% degraded | {:>3} retries | {:>3} panics caught | \
             {:>2} breaker trips | p95 {:>7.0} us | {:>6.0} req/s",
            p.fault_per_mille,
            100.0 * p.degraded_fraction,
            p.retries,
            p.worker_panics,
            p.breaker_trips,
            p.p95_us,
            p.throughput_rps
        );
    }
    publish("chaos", &chaos_bench::report_json(arch, &points), false);
}

fn run_obs(arch: &ArchSpec) {
    use ctb_bench::obs_bench;
    println!("== obs harness: instrumented serve closed loop + trace audit ({}) ==", arch.name);
    let r = obs_bench::run_obs_bench(arch, 4, 40);
    println!(
        "   {} requests -> {} events ({} spans) in {:.1} ms | {} flight dumps",
        r.requests,
        r.events,
        r.counts.spans.values().sum::<usize>(),
        r.wall_ms,
        r.flight_dumps
    );
    println!(
        "   trace audit: {} admits, {} terminals, {} batches (mean size {:.2}) — reconciled ==",
        r.counts.admits,
        r.counts.terminals(),
        r.counts.batches,
        if r.counts.batches > 0 {
            r.counts.batch_members as f64 / r.counts.batches as f64
        } else {
            0.0
        }
    );
    publish("obs", &obs_bench::report_json(arch, &r), false);
}

/// Parse `--flag value` pairs for the cluster harness. Unknown flags
/// are an error so typos don't silently run the default sweep.
fn cluster_config(args: &[String]) -> (ctb_bench::cluster_bench::ClusterBenchConfig, bool) {
    use ctb_bench::cluster_bench::ClusterBenchConfig;
    let mut cfg = ClusterBenchConfig::default();
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--batches" => cfg.batches = flag_value(&mut it, flag),
            "--devices" => cfg.devices = flag_list(&mut it, flag),
            "--seed" => cfg.seed = flag_value(&mut it, flag),
            "--event-devices" => cfg.event_devices = flag_list(&mut it, flag),
            "--requests" => cfg.event_requests = flag_value(&mut it, flag),
            "--smoke" => smoke = true,
            other => usage_error(&format!(
                "unknown cluster flag '{other}'; expected --batches N, --devices a,b,c, \
                 --seed S, --event-devices a,b,c, --requests R, --smoke"
            )),
        }
    }
    if smoke {
        cfg = ClusterBenchConfig::smoke();
    }
    (cfg, smoke)
}

fn run_cluster(args: &[String]) {
    use ctb_bench::cluster_bench;
    let (cfg, smoke) = cluster_config(args);
    println!(
        "== cluster harness: burst scaling + kill run + open-loop event-engine sweep{} ==",
        if smoke { " (smoke)" } else { "" }
    );
    let r = cluster_bench::run_report(&cfg);
    for p in &r.scaling {
        println!(
            "   {} device(s) [{}]: makespan {:>9.1} sim us | {:>8.1} GFLOPS | \
             {:.2}x vs best single | placement err {:.3} us",
            p.devices,
            p.device_names.join(", "),
            p.makespan_sim_us,
            p.throughput_gflops,
            p.speedup_vs_single,
            p.mean_abs_placement_err_us
        );
    }
    let k = &r.kill_run;
    println!(
        "   kill run: {}/{} completed | {} kill | {} re-routed | {} degraded | bitwise exact: {}",
        k.completed, k.batches, k.kills, k.reroutes, k.degraded, k.bitwise_exact
    );
    for p in &r.event_scaling {
        println!(
            "   event engine {:>6} device(s): {:>8} requests | makespan {:>12.1} sim us | \
             {:>9.0} events/s | util {:.2} | placement err {:.3} us | {} witnesses ({} mismatches)",
            p.devices,
            p.requests,
            p.makespan_sim_us,
            p.events_per_sec,
            p.mean_utilization,
            p.mean_abs_placement_err_us,
            p.witnesses,
            p.witness_mismatches
        );
    }
    publish("cluster", &cluster_bench::report_json(&r), smoke);
}

/// Parse `--flag value` pairs for the replay harness.
fn replay_config(args: &[String]) -> (ctb_bench::replay_bench::ReplayBenchConfig, bool) {
    use ctb_bench::replay_bench::ReplayBenchConfig;
    let mut cfg = ReplayBenchConfig::default();
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--requests" => cfg.requests = flag_value(&mut it, flag),
            "--seed" => cfg.seed = flag_value(&mut it, flag),
            "--panics" => cfg.exec_panic_per_mille = flag_value(&mut it, flag),
            "--smoke" => smoke = true,
            other => usage_error(&format!(
                "unknown replay flag '{other}'; expected --requests N, --seed S, \
                 --panics PER_MILLE, --smoke"
            )),
        }
    }
    if smoke {
        cfg = ReplayBenchConfig::smoke();
    }
    (cfg, smoke)
}

fn run_replay(args: &[String]) {
    use ctb_bench::replay_bench;
    let (cfg, smoke) = replay_config(args);
    println!(
        "== replay harness: record a seeded panic storm, re-run + crash/restore it exactly{} ==",
        if smoke { " (smoke)" } else { "" }
    );
    let r = replay_bench::run_report(&cfg);
    println!(
        "   recorded: {} requests (seed {:#x}, {}‰ exec panics) -> {} events | \
         {} completed, {} failed | {} panics caught, {} breaker trips",
        r.cfg.requests,
        r.cfg.seed,
        r.cfg.exec_panic_per_mille,
        r.recorded.events_processed,
        r.recorded.completed,
        r.recorded.failed,
        r.recorded.worker_panics,
        r.recorded.breaker_trips
    );
    println!(
        "   flight recorder: {} dumps ({} events) | trace {} bytes",
        r.recorded.flight_dumps, r.recorded.dump_events, r.recorded.trace_bytes
    );
    println!(
        "   re-run from scratch identical: {} | crash at event {} ({} byte checkpoint), \
         resume identical: {}",
        r.replay.rerun_identical,
        r.replay.resume_offset,
        r.replay.checkpoint_bytes,
        r.replay.resume_identical
    );
    publish("replay", &replay_bench::report_json(&r), smoke);
    if !r.replay.rerun_identical || !r.replay.resume_identical {
        eprintln!("replay divergence: the recorded failure did not re-execute identically");
        std::process::exit(1);
    }
}

fn run_storm(arch: &ArchSpec, args: &[String]) {
    use ctb_bench::storm_bench::{self, StormBenchConfig};
    let smoke = match args {
        [] => false,
        [flag] if flag == "--smoke" => true,
        _ => usage_error(&format!("unknown storm flags {args:?}; expected at most --smoke")),
    };
    println!(
        "== storm harness: distinct-shape storm vs two plan-cache arms{} ==",
        if smoke { " (smoke)" } else { "" }
    );
    let cfg = if smoke { StormBenchConfig::smoke() } else { StormBenchConfig::default() };
    let r = storm_bench::run_storm_bench(arch, &cfg);
    println!(
        "   {} requests over a {}-signature space ({} hot shapes, cache bound {})",
        r.requests, r.cfg.shape_space, r.cfg.hot_shapes, r.cfg.capacity_total
    );
    for (label, a) in [("baseline", &r.baseline), ("sharded ", &r.sharded)] {
        println!(
            "   {label}: {} shard(s) {:<10} | hit rate {:>5.1}% ({} hits / {} misses) | \
             {} denied | p50 {:>7.0} us | p95 {:>7.0} us | {:>6.0} req/s",
            a.shards,
            a.admission,
            100.0 * a.hit_rate,
            a.plan_cache_hits,
            a.plan_cache_misses,
            a.denied,
            a.p50_us,
            a.p95_us,
            a.throughput_rps
        );
    }
    println!(
        "   sharded vs baseline: hit rate {:+.1} pp | p95 {:.2}x",
        100.0 * (r.sharded.hit_rate - r.baseline.hit_rate),
        if r.sharded.p95_us > 0.0 { r.baseline.p95_us / r.sharded.p95_us } else { 0.0 }
    );
    publish("storm", &storm_bench::report_json(arch, &r), smoke);
    if r.sharded.hit_rate < r.baseline.hit_rate {
        eprintln!(
            "storm regression: sharded+Bloom hit rate {:.4} fell below the unsharded \
             baseline {:.4}",
            r.sharded.hit_rate, r.baseline.hit_rate
        );
        std::process::exit(1);
    }
}

fn run_tables() {
    println!("== Table 1: tiling strategies for the single-GEMM scenario ==");
    print!("{}", tables::table1());
    println!("\n== Table 2: tiling strategies for the batched-GEMM scenario ==");
    print!("{}", tables::table2());
    println!("\n== 4.2.3 worked example ==");
    print!("{}", tables::worked_example());
    println!();
}

fn run_motivation(arch: &ArchSpec) {
    println!("== Motivation (paper 1): single-GEMM efficiency on {} ==", arch.name);
    let rows = motivation::motivation_rows(arch);
    let mut csv = Vec::new();
    for r in &rows {
        println!(
            "{:>24} {:>16}: {:>9.1} GFLOP/s  ({:.2}% of peak)",
            r.label,
            r.shape.to_string(),
            r.gflops,
            100.0 * r.fraction_of_peak
        );
        csv.push(format!("{},{},{},{}", r.label, r.shape, r.gflops, r.fraction_of_peak));
    }
    let path = write_csv("motivation", "label,shape,gflops,fraction_of_peak", &csv);
    println!("(csv: {})\n", path.display());
}

fn run_grid(arch: &ArchSpec, which: u8) {
    let (cells, label) = if which == 8 {
        (fig8_grid(arch), "Fig 8: tiling engine vs MAGMA vbatch")
    } else {
        (fig9_grid(arch), "Fig 9: coordinated tiling + batching vs MAGMA vbatch")
    };
    println!("== {label} ({}) ==", arch.name);
    print_grid(&cells);
    println!(
        "geometric-mean speedup over the grid: {:.2}x (paper: {})",
        mean_speedup(&cells),
        if which == 8 { "~1.20x" } else { "~1.40x" }
    );
    let rows: Vec<String> = cells
        .iter()
        .map(|c| format!("{},{},{},{},{},{}", c.batch, c.mn, c.k, c.magma_us, c.ours_us, c.speedup()))
        .collect();
    let path = write_csv(
        &format!("fig{which}"),
        "batch,mn,k,magma_us,ours_us,speedup",
        &rows,
    );
    println!("(csv: {})\n", path.display());
}

fn print_grid(cells: &[CellResult]) {
    // The paper's 2-D histogram array: rows by (batch, mn), X axis K.
    let ks: Vec<usize> = ctb_matrix::gen::k_sweep();
    print!("{:>6} {:>5} |", "batch", "M=N");
    for k in &ks {
        print!(" K={k:<5}");
    }
    println!();
    for b in ctb_matrix::gen::fig_batch_sizes() {
        for mn in ctb_matrix::gen::fig_mn_sizes() {
            print!("{b:>6} {mn:>5} |");
            for k in &ks {
                let cell = cells
                    .iter()
                    .find(|c| c.batch == b && c.mn == mn && c.k == *k)
                    .expect("cell present");
                print!(" {:<7.2}", cell.speedup());
            }
            println!();
        }
    }
}

fn run_fig10(arch: &ArchSpec) {
    println!(
        "== Fig 10: GoogleNet inception-layer speedup vs MAGMA ({}; image batch {}) ==",
        arch.name,
        googlenet_exp::FIG10_IMAGE_BATCH
    );
    let rows = googlenet_exp::fig10_rows(arch);
    let mut csv = Vec::new();
    for (name, s) in &rows {
        println!("{name:>14}: {s:.2}x");
        csv.push(format!("{name},{s}"));
    }
    let mean = ctb_bench::geomean(&rows.iter().map(|(_, s)| *s).collect::<Vec<_>>());
    println!("mean: {mean:.2}x (paper: up to 1.40x on 3a/4a, ~1.25x elsewhere)");
    let path = write_csv("fig10", "layer,speedup", &csv);
    println!("(csv: {})\n", path.display());
}

fn run_googlenet(arch: &ArchSpec) {
    println!("== GoogleNet end-to-end inference, paper 7.3 ({}; image batch 1) ==", arch.name);
    let t = googlenet_exp::googlenet_summary(arch);
    println!("cuDNN-like serial     : {:.2} ms   (paper: 3.18 ms)", t.cudnn_like_ms);
    println!("  + stream concurrency: {:.2} ms   (paper: 2.41 ms)", t.cudnn_streams_ms);
    println!("coordinated batching  : {:.2} ms   (paper: 2.01 ms)", t.coordinated_ms);
    println!(
        "speedup vs serial: {:.2}x (paper 1.58x); vs streams: {:.2}x (paper 1.20x)",
        t.speedup_vs_baseline(),
        t.speedup_vs_streams()
    );
    let path = write_csv(
        "googlenet",
        "variant,ms",
        &[
            format!("cudnn_like,{}", t.cudnn_like_ms),
            format!("cudnn_streams,{}", t.cudnn_streams_ms),
            format!("coordinated,{}", t.coordinated_ms),
        ],
    );
    println!("(csv: {})\n", path.display());
}

fn run_fig11() {
    println!("== Fig 11: sensitivity across GPU architectures (100 random cases each) ==");
    let paper = [
        ("Tesla P100", 1.54),
        ("GTX 1080 Ti", 1.38),
        ("Titan Xp", 1.52),
        ("Tesla M60", 1.46),
        ("GTX Titan X", 1.43),
    ];
    let results = fig11_portability(100, 2024);
    let mut csv = Vec::new();
    for r in &results {
        let paper_x = paper
            .iter()
            .find(|(n, _)| *n == r.arch_name)
            .map(|(_, x)| *x)
            .unwrap_or(f64::NAN);
        println!("{:>12}: {:.2}x  (paper: {paper_x:.2}x)", r.arch_name, r.mean_speedup);
        csv.push(format!("{},{},{}", r.arch_name, r.mean_speedup, paper_x));
    }
    let path = write_csv("fig11", "arch,mean_speedup,paper_speedup", &csv);
    println!("(csv: {})\n", path.display());
}

fn run_tlp_calibrate() {
    println!("== Offline TLP-threshold calibration (papers 4.2.3 / 7) ==");
    let mut csv = Vec::new();
    for arch in ArchSpec::all_presets() {
        let sweep = calibrate::calibration_sweep(&arch);
        let t = calibrate::calibrate_tlp_threshold(&arch, 0.9);
        let used = Thresholds::for_arch(&arch).tlp_threshold;
        let pts: Vec<String> = sweep
            .iter()
            .map(|p| format!("{}:{:.0}GF@TLP{}", p.strategy, p.gflops, p.tlp))
            .collect();
        println!("{:>12}: calibrated {t} (framework uses {used})", arch.name);
        println!("              sweep: {}", pts.join("  "));
        csv.push(format!("{},{t},{used}", arch.name));
    }
    let path = write_csv("calibration", "arch,calibrated_threshold,used_threshold", &csv);
    println!("(csv: {})\n", path.display());
}

fn run_ablations(arch: &ArchSpec) {
    println!("== Ablations (DESIGN.md design choices; geometric-mean simulated us) ==");
    let suites: Vec<(&str, Vec<ablations::AblationPoint>)> = vec![
        ("tiling adaptivity", ablations::ablate_tiling_adaptivity(arch)),
        ("TLP threshold", ablations::ablate_tlp_threshold(arch)),
        ("theta", ablations::ablate_theta(arch)),
        ("cross-tile prefetch", ablations::ablate_cross_tile_prefetch(arch)),
        ("heuristic vs autotune", ablations::ablate_heuristic_vs_autotune(arch)),
        ("tile order", ablations::ablate_tile_order(arch)),
        ("dynamic queue", ablations::ablate_dynamic_queue(arch)),
    ];
    let mut csv = Vec::new();
    for (suite, points) in &suites {
        println!("-- {suite}");
        let best = points.iter().map(|p| p.mean_us).fold(f64::INFINITY, f64::min);
        for p in points {
            println!("   {:<28} {:>9.1} us  ({:+.1}% vs best)", p.label, p.mean_us, 100.0 * (p.mean_us / best - 1.0));
            csv.push(format!("{suite},{},{}", p.label, p.mean_us));
        }
    }
    let path = write_csv("ablations", "suite,config,mean_us", &csv);
    println!("(csv: {})\n", path.display());
}

fn run_fans(arch: &ArchSpec) {
    println!("== Fan-structure extensions: SqueezeNet / ResNet / training backward ==");
    let t = ctb_convnet::pipeline::squeezenet_times(arch, 1);
    println!(
        "squeezenet end-to-end (batch 1): serial {:.2} ms | +streams {:.2} ms | coordinated {:.2} ms",
        t.cudnn_like_ms, t.cudnn_streams_ms, t.coordinated_ms
    );
    let mut csv = Vec::new();
    for (label, rows) in [
        ("squeezenet expand fans (batch 4)", fans::squeezenet_fan_rows(arch, 4)),
        ("resnet projection fans (batch 4)", fans::resnet_fan_rows(arch, 4)),
        ("googlenet backward fans (batch 1)", fans::backward_fan_rows(arch, 1)),
    ] {
        println!("-- {label}");
        for (name, s) in &rows {
            println!("   {name:>22}: {s:.2}x vs MAGMA");
            csv.push(format!("{label},{name},{s}"));
        }
        let mean = ctb_bench::geomean(&rows.iter().map(|(_, s)| *s).collect::<Vec<_>>());
        println!("   mean: {mean:.2}x");
    }
    let path = write_csv("fans", "suite,workload,speedup", &csv);
    println!("(csv: {})\n", path.display());
}

fn run_splitk_demo(arch: &ArchSpec) {
    use ctb_core::plan_splitk;
    use ctb_matrix::GemmShape;
    use ctb_sim::simulate;
    println!("== Split-K extension: TLP-starved large-K GEMMs ==");
    let th = Thresholds::for_arch(arch);
    let mut csv = Vec::new();
    for shapes in [
        vec![GemmShape::new(64, 64, 8192)],
        vec![GemmShape::new(128, 64, 4096); 2],
        vec![GemmShape::new(64, 128, 2048); 4],
    ] {
        let label: Vec<String> = shapes.iter().map(|s| s.to_string()).collect();
        print!("   {:<38}", format!("B={} {}", shapes.len(), label[0]));
        let mut row = vec![format!("B={} {}", shapes.len(), label[0])];
        for split in [1usize, 2, 4, 8] {
            let plan = plan_splitk(arch, &shapes, &th, split).expect("plannable");
            let us = simulate(arch, &plan.sequence).total_us;
            print!(" s{split}={us:>7.1}us");
            row.push(format!("{us}"));
        }
        println!();
        csv.push(row.join(","));
    }
    let path = write_csv("splitk", "workload,split1_us,split2_us,split4_us,split8_us", &csv);
    println!("(csv: {})\n", path.display());
}

fn run_plan_explain(arch: &ArchSpec, spec: Option<&str>) {
    use ctb_core::Framework;
    use ctb_matrix::GemmShape;
    use ctb_sim::{simulate, LaunchSequence};
    use ctb_tiling::select_tiling_traced;

    let spec = spec.unwrap_or("16x32x128,64x64x64,256x256x64");
    let shapes: Vec<GemmShape> = spec
        .split(',')
        .map(|s| {
            parse_shape(s).unwrap_or_else(|| {
                usage_error(&format!("bad shape '{s}' in '{spec}'; expected MxNxK[,MxNxK...]"))
            })
        })
        .collect();
    let fw = Framework::new(arch.clone());
    let plan =
        fw.plan(&shapes).unwrap_or_else(|e| usage_error(&format!("cannot plan '{spec}': {e}")));

    println!("== plan explainer on {} ==", arch.name);
    let th = Thresholds::for_arch(arch);
    let (solution, trace) = select_tiling_traced(&shapes, &th);
    print!("{}", trace.render(&shapes));
    println!("\nchosen strategies ({}-thread unified blocks):", solution.thread_count.threads());
    for (s, st) in shapes.iter().zip(&solution.per_gemm) {
        println!("  {s:>16} -> {st}");
    }

    println!(
        "\nbatching: {} -> {} tiles in {} blocks (max {} tiles/block)",
        plan.heuristic,
        plan.plan.num_tiles(),
        plan.plan.num_blocks(),
        plan.plan.max_tiles_per_block()
    );
    let report = simulate(arch, &LaunchSequence::Single(plan.kernel));
    let k = &report.kernels[0];
    println!(
        "simulated: {:.1} us | occupancy {} blocks/SM | avg active warps {:.1} | \
         bound: {:.0}% throughput / {:.0}% latency / {:.0}% dependency / {:.0}% overhead",
        report.total_us,
        k.occupancy.blocks_per_sm,
        k.avg_active_warps,
        100.0 * k.bound_breakdown.throughput,
        100.0 * k.bound_breakdown.memory_latency,
        100.0 * k.bound_breakdown.dependency,
        100.0 * k.bound_breakdown.overhead,
    );
    println!();
}

/// Run every executor on a user-supplied workload file (one `M,N,K` or
/// `MxNxK` triple per line; `#` comments allowed).
fn run_custom(arch: &ArchSpec, path: Option<&str>) {
    use ctb_baselines::{cke, cublas_like, default_serial, magma_vbatch, simulate_baseline};
    use ctb_core::Framework;
    use ctb_matrix::GemmShape;

    let Some(path) = path else {
        eprintln!("usage: reproduce custom <file> — one M,N,K (or MxNxK) per line");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_error(&format!("cannot read workload file {path}: {e}")));
    let shapes: Vec<GemmShape> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .map(|(line, l)| {
            parse_shape(l).unwrap_or_else(|| {
                usage_error(&format!("{path}:{line}: bad shape '{l}'; expected M,N,K or MxNxK"))
            })
        })
        .collect();
    if shapes.is_empty() {
        usage_error(&format!("workload file {path} has no shapes"));
    }

    let fw = Framework::new(arch.clone());
    let ours = fw
        .plan(&shapes)
        .unwrap_or_else(|e| usage_error(&format!("cannot plan {path}: {e}")))
        .predicted_us;

    println!("== custom workload: {} GEMMs from {path} on {} ==", shapes.len(), arch.name);
    let mut rows = vec![("coordinated (ours)".to_string(), ours)];
    for run in [
        default_serial(arch, &shapes),
        cke(arch, &shapes),
        cublas_like(arch, &shapes),
        magma_vbatch(arch, &shapes),
    ] {
        rows.push((run.name.to_string(), simulate_baseline(arch, &run).total_us));
    }
    let best = rows.iter().map(|(_, us)| *us).fold(f64::INFINITY, f64::min);
    for (name, us) in &rows {
        println!("   {name:<20} {us:>10.1} us   ({:.2}x of best)", us / best);
    }
    println!();
}
