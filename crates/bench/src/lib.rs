//! Experiment drivers regenerating every table and figure of the paper
//! (see `DESIGN.md` §4 for the index).
//!
//! Each driver returns plain data; the `reproduce` binary formats it the
//! way the paper reports it and writes CSV copies under
//! `target/experiments/`. The serving harnesses also turn their report
//! into one [`Json`] value, which [`publish`] writes as the tracked
//! `BENCH_<name>.json`. The three that drive a `ctb-serve` server
//! (`serve`, `chaos`, `obs`) share one [`closed_loop`].

pub mod ablations;
pub mod calib_bench;
pub mod calibrate;
pub mod chaos_bench;
pub mod cluster_bench;
pub mod fans;
pub mod figures;
pub mod googlenet_exp;
pub mod json;
pub mod locality_bench;
pub mod motivation;
pub mod obs_bench;
pub mod perf;
pub mod replay_bench;
pub mod serve_bench;
pub mod tables;

pub use calibrate::{calibrate_tlp_threshold, CalibrationPoint};
pub use figures::{fig11_portability, fig8_grid, fig9_grid, CellResult, PortabilityResult};
pub use googlenet_exp::{fig10_rows, googlenet_summary};
pub use json::{Json, JsonError};
pub use motivation::{motivation_rows, MotivationRow};

use ctb_matrix::{bitwise_mismatch, GemmBatch, GemmShape};
use ctb_serve::{GemmRequest, Server};
use std::fmt;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Directory where drivers drop CSV copies of their output.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Absolute path of the tracked `BENCH_<name>.json` report at the repo
/// root, independent of the working directory the binary runs from.
pub fn bench_json_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(format!("BENCH_{name}.json"))
}

/// Why [`publish`] refused a report.
#[derive(Debug)]
pub enum PublishError {
    /// A report file could not be read or written.
    Io(PathBuf, std::io::Error),
    /// The committed report is not a JSON document.
    Parse(PathBuf, JsonError),
    /// The report's key paths differ from the committed report's.
    Drift { name: String, missing: Vec<String>, unexpected: Vec<String> },
}

impl fmt::Display for PublishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PublishError::Io(path, e) => write!(f, "{}: {e}", path.display()),
            PublishError::Parse(path, e) => write!(f, "{}: {e}", path.display()),
            PublishError::Drift { name, missing, unexpected } => {
                writeln!(f, "BENCH_{name}.json key set drifted from the committed report:")?;
                for path in missing {
                    writeln!(f, "   missing key: {path}")?;
                }
                for path in unexpected {
                    writeln!(f, "   unexpected key: {path}")?;
                }
                write!(f, "report written; commit a full run's report if the change is deliberate")
            }
        }
    }
}

impl std::error::Error for PublishError {}

/// The committed `BENCH_<name>.json` at the repo root, parsed: the
/// schema every new run of that report is gated against.
fn committed_report(name: &str) -> Result<Json, PublishError> {
    let path = bench_json_path(name);
    let text = std::fs::read_to_string(&path).map_err(|e| PublishError::Io(path.clone(), e))?;
    Json::parse(&text).map_err(|e| PublishError::Parse(path, e))
}

/// The one writer of tracked reports. The `tracked` run, a full run
/// with no flags, writes `BENCH_<name>.json` at the repo root; any other
/// run (a smoke run, or one whose flags change its configuration)
/// writes `target/experiments/BENCH_<name>.json` and leaves the tracked
/// numbers alone. Either way the key set must equal the committed
/// report's. The file is written before that check, so a deliberate key
/// change, or a report with no committed file yet, is accepted by
/// committing the new full-run report. Returns the path written.
pub fn publish(name: &str, report: &Json, tracked: bool) -> Result<PathBuf, PublishError> {
    let committed = committed_report(name);
    let path = if tracked {
        bench_json_path(name)
    } else {
        experiments_dir().join(format!("BENCH_{name}.json"))
    };
    std::fs::write(&path, report.render()).map_err(|e| PublishError::Io(path.clone(), e))?;
    let (want, got) = (committed?.key_paths(), report.key_paths());
    if want != got {
        let missing = want.iter().filter(|p| !got.contains(p)).cloned().collect();
        let unexpected = got.iter().filter(|p| !want.contains(p)).cloned().collect();
        return Err(PublishError::Drift { name: name.to_string(), missing, unexpected });
    }
    Ok(path)
}

/// Write `rows` (with a header) to `target/experiments/<name>.csv`.
pub fn write_csv(name: &str, header: &str, rows: &[String]) -> PathBuf {
    let path = experiments_dir().join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "{header}").expect("write header");
    for r in rows {
        writeln!(f, "{r}").expect("write row");
    }
    path
}

/// Geometric mean of a non-empty slice of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    let log_sum: f64 = xs.iter().map(|&x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// element with at least `q` of the mass at or below it (0 for an empty
/// sample, the sole element for a singleton).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// What one [`closed_loop`] run measured.
#[derive(Debug, Clone)]
pub struct LoopRun {
    /// Wall time from starting the producers to joining the last one.
    pub wall_ms: f64,
    /// Each response's `timing.total_us()`, ascending: the latency the
    /// server handed back with every result.
    pub latencies_us: Vec<f64>,
    /// Responses served through the degraded baseline.
    pub degraded: usize,
}

impl LoopRun {
    /// Completed requests per second of wall time.
    pub fn throughput_rps(&self) -> f64 {
        self.latencies_us.len() as f64 / (self.wall_ms / 1e3)
    }
}

/// The serving harnesses' closed loop: `producers` scoped threads each
/// send `per_producer` single-GEMM requests to `server`, one at a time.
/// Request `i` of producer `t` has shape `shape(t, i)`, `alpha = 1`,
/// `beta = 0.5` and operands seeded `t * 10_000 + i`. Each producer
/// blocks in [`Server::submit`] while the admission queue is full,
/// waits at most a minute for the response, and checks its result
/// bitwise against the exact oracle before sending the next.
///
/// Submission blocks on purpose: a producer waits on its own ticket, so
/// a request parked in a per-producer [`ctb_serve::AsyncFront`] backlog
/// would never be flushed once the producers outnumber the queue bound.
pub fn closed_loop(
    server: &Server,
    producers: usize,
    per_producer: usize,
    shape: impl Fn(usize, usize) -> GemmShape + Sync,
) -> LoopRun {
    let producer = |t: usize| {
        let mut latencies_us = Vec::with_capacity(per_producer);
        let mut degraded = 0;
        for i in 0..per_producer {
            let batch = GemmBatch::random(&[shape(t, i)], 1.0, 0.5, (t * 10_000 + i) as u64);
            let expected = batch.reference_result_exact();
            let got = server
                .submit(GemmRequest {
                    a: batch.a[0].clone(),
                    b: batch.b[0].clone(),
                    c: batch.c[0].clone(),
                    alpha: batch.alpha,
                    beta: batch.beta,
                    deadline: None,
                })
                .expect("closed-loop submit admitted")
                .wait_for(Duration::from_secs(60))
                .expect("closed-loop request completed");
            assert!(
                bitwise_mismatch(&expected, std::slice::from_ref(&got.c)).is_none(),
                "producer {t} request {i}: served result diverged from the exact oracle"
            );
            latencies_us.push(got.timing.total_us());
            degraded += usize::from(got.degraded);
        }
        (latencies_us, degraded)
    };
    let t0 = Instant::now();
    let runs: Vec<(Vec<f64>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..producers).map(|t| scope.spawn(move || producer(t))).collect();
        handles.into_iter().map(|h| h.join().expect("producer thread panicked")).collect()
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let degraded = runs.iter().map(|(_, d)| d).sum();
    let mut latencies_us: Vec<f64> = runs.into_iter().flat_map(|(us, _)| us).collect();
    latencies_us.sort_by(f64::total_cmp);
    LoopRun { wall_ms, latencies_us, degraded }
}

/// Assert that `report` has the key set of the committed
/// `BENCH_<name>.json`.
#[cfg(test)]
pub(crate) fn assert_committed_keys(name: &str, report: &Json) {
    let committed = committed_report(name).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(report.key_paths(), committed.key_paths(), "BENCH_{name}.json key set drifted");
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Ordering;

    #[test]
    fn bench_json_path_lands_at_the_repo_root() {
        let p = bench_json_path("executor");
        assert!(p.ends_with("BENCH_executor.json"));
        assert!(p.parent().unwrap().join("Cargo.toml").exists());
    }

    /// Every tracked report at the repo root.
    const REPORTS: [&str; 8] =
        ["calibrate", "chaos", "cluster", "executor", "locality", "obs", "replay", "serve"];

    fn committed_text(name: &str) -> String {
        std::fs::read_to_string(bench_json_path(name)).expect("tracked report is committed")
    }

    #[test]
    fn committed_reports_round_trip_byte_for_byte() {
        for name in REPORTS {
            let text = committed_text(name);
            let json = Json::parse(&text).unwrap_or_else(|e| panic!("BENCH_{name}.json: {e}"));
            assert_eq!(json.render(), text, "BENCH_{name}.json is not in the one layout");
        }
        // No report outlives its harness: the root holds these and no
        // other `BENCH_*.json`.
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut at_root: Vec<String> = std::fs::read_dir(root)
            .expect("the repo root is readable")
            .map(|entry| {
                entry.expect("a directory entry").file_name().to_string_lossy().into_owned()
            })
            .filter_map(|file| Some(file.strip_prefix("BENCH_")?.strip_suffix(".json")?.to_owned()))
            .collect();
        at_root.sort();
        assert_eq!(at_root, REPORTS, "BENCH_*.json at the repo root");
    }

    #[test]
    fn every_truncated_report_is_a_parse_error() {
        for name in REPORTS {
            let text = committed_text(name);
            for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
                assert!(
                    Json::parse(&text[..end]).is_err(),
                    "BENCH_{name}.json cut at byte {end} still parsed"
                );
            }
        }
    }

    #[test]
    fn publish_writes_the_smoke_report_then_gates_its_key_set() {
        let committed = committed_report("serve").unwrap_or_else(|e| panic!("{e}"));
        let smoke = experiments_dir().join("BENCH_serve.json");
        assert_eq!(publish("serve", &committed, false).expect("same key set"), smoke);
        let Json::Obj(mut pairs) = committed else { panic!("a report is an object") };
        pairs.retain(|(key, _)| key != "p95_us");
        pairs.push(("p99_us".into(), Json::fixed(1.0, 1)));
        let drifted = Json::Obj(pairs);
        let err = publish("serve", &drifted, false).expect_err("p95_us dropped, p99_us added");
        let listing = "committed report:\n   missing key: p95_us\n   unexpected key: p99_us\n";
        assert!(err.to_string().contains(listing), "{err}");
        assert_eq!(std::fs::read_to_string(&smoke).expect("written"), drifted.render());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn percentile_edge_cases() {
        // Empty sample: every quantile is the 0 sentinel.
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(percentile(&[], q), 0.0);
        }
        // Single sample: every quantile is that sample.
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[3.25], q), 3.25);
        }
        // All-equal samples: every quantile is the common value.
        let flat = [2.0; 17];
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(percentile(&flat, q), 2.0);
        }
        // q = 0 clamps to the first element, not out of range.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.0), 1.0);
        // Two samples: the median is the lower of the two under
        // nearest-rank, p95 the upper.
        assert_eq!(percentile(&[1.0, 9.0], 0.5), 1.0);
        assert_eq!(percentile(&[1.0, 9.0], 0.95), 9.0);
    }

    /// Latency-ish stream element, weighted toward adversarial values.
    /// The harnesses only ever feed finite non-negative latencies, but
    /// the percentile helper must stay total over anything a future
    /// caller feeds it.
    fn sample() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0f64),
            Just(-0.0f64),
            Just(1.0f64),
            Just(17.5f64),
            Just(1024.0f64),
            Just(f64::MIN_POSITIVE / 8.0), // subnormal
            Just(f64::MAX),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::NAN),
            Just(-f64::NAN),
            -1.0e9f64..1.0e9f64,
            0.0f64..5.0e5f64,
        ]
    }

    /// Counting-based nearest-rank: the `total_cmp`-smallest element
    /// with at least `ceil(q*n)` elements at or below it. No sort, so it
    /// shares nothing with the implementation under test.
    fn counting_oracle(values: &[f64], q: f64) -> f64 {
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        values
            .iter()
            .copied()
            .filter(|x| {
                values.iter().filter(|v| v.total_cmp(x) != Ordering::Greater).count() >= rank
            })
            .min_by(|a, b| a.total_cmp(b))
            .expect("the stream maximum always qualifies")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn percentile_matches_counting_oracle(
            values in proptest::collection::vec(sample(), 1..=60),
            q in 0.0f64..=1.0f64,
        ) {
            let mut sorted = values.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let got = percentile(&sorted, q);
            let expect = counting_oracle(&values, q);
            prop_assert!(
                got.to_bits() == expect.to_bits(),
                "percentile({q}) = {got}, counting oracle {expect}, stream {values:?}"
            );
        }
    }

    #[test]
    fn percentile_of_empty_stream_is_zero() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[], 1.0), 0.0);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.4]) - 1.4).abs() < 1e-12);
    }
}
