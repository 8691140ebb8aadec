//! `benchmark`: the repository's one benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! With `--workload`, runs that workload for about `--seconds` seconds
//! of measurement, prints every metric as `name workload value unit`,
//! and ends with one JSON result line. `--trace 0` (the default)
//! reports the end-to-end metrics, measured untraced; `--trace 1`
//! also runs a traced round, reports the per-layer metrics and writes
//! its spans to `target/benchmark/trace-<workload>.jsonl`. Without
//! `--workload`, every workload runs in a child process of its own,
//! so peak memory and allocator state belong to one workload alone.
//! The exit code is non-zero when any output was wrong.
//!
//! The workloads drive each layer only through its public API, and
//! build their inputs from `--seed` alone.

mod cluster;
mod heap;
mod host;
mod metrics;
mod novel;
mod offline;
mod serve;
mod stats;
mod trace;

use metrics::{Outcome, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Measurement length when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 20;

/// Settings one workload run receives.
pub struct Cfg {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub out_dir: PathBuf,
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w}; one of {}",
                        WORKLOADS.join(", ")
                    ));
                }
                a.workload = Some(w);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=3600).contains(&a.seconds) {
                    return Err("--seconds must be 1..=3600".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Write a traced round's spans next to the results.
pub fn write_trace(cfg: &Cfg, workload: &str, spans: &[trace::Span]) {
    let path = cfg.out_dir.join(format!("trace-{workload}.jsonl"));
    if let Err(e) = trace::write_jsonl(&path, spans) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

fn run_one(workload: &str, cfg: &Cfg) -> ExitCode {
    let out: Outcome = match workload {
        "offline_repeat" => offline::run(cfg),
        "plan_novel" => novel::run(cfg),
        "serve_open" => serve::run(cfg),
        "cluster_10k" => cluster::run(cfg),
        _ => unreachable!("workload names are checked while parsing"),
    };
    for (name, value, unit) in metrics::emitted(cfg.trace, &out.metrics) {
        println!("{name} {workload} {value} {unit}");
    }
    let json = metrics::render_json(&out, cfg.trace);
    let suffix = if cfg.trace { "-trace" } else { "" };
    let path = cfg
        .out_dir
        .join(format!("results-{}-{workload}{suffix}.json", cfg.seed));
    if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
        eprintln!("could not write {}: {e}", path.display());
    }
    println!("{json}");
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{workload}: {} of {} checks failed",
            out.failed, out.attempted
        );
        ExitCode::FAILURE
    }
}

/// Run every workload in a child process of its own and collect their
/// result lines into `target/benchmark/results-<seed>.json`.
fn run_all(args: &Args, out_dir: &std::path::Path) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut results = Vec::new();
    for w in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output();
        let stdout = match child {
            Ok(o) => {
                ok &= o.status.success();
                String::from_utf8_lossy(&o.stdout).into_owned()
            }
            Err(e) => {
                eprintln!("{w}: could not start: {e}");
                ok = false;
                continue;
            }
        };
        let mut lines: Vec<&str> = stdout.lines().collect();
        match lines.pop() {
            Some(json) if json.starts_with('{') => results.push(format!("\"{w}\": {json}")),
            _ => ok = false,
        }
        for l in lines {
            println!("{l}");
        }
    }
    let json = format!(
        "{{\"correct\": {ok}, \"seed\": {}, \"workloads\": {{{}}}}}",
        args.seed,
        results.join(", ")
    );
    let path = out_dir.join(format!("results-{}.json", args.seed));
    if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
        eprintln!("could not write {}: {e}", path.display());
    }
    println!("{json}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!("usage: benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from("target").join("benchmark");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    match &args.workload {
        None => run_all(&args, &out_dir),
        Some(w) => {
            let cfg = Cfg {
                seed: args.seed,
                seconds: Duration::from_secs(args.seconds),
                trace: args.trace,
                out_dir,
            };
            run_one(w, &cfg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_parse_and_bad_input_is_refused() {
        let a = args("--workload plan_novel --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("plan_novel"), 7, 3, true)
        );
        let d = args("").expect("defaults");
        assert_eq!(
            (d.workload, d.seed, d.seconds, d.trace),
            (None, 0, DEFAULT_SECONDS, false)
        );
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--seed",
            "--verbose",
        ] {
            assert!(args(bad).is_err(), "{bad} must be refused");
        }
    }
}
