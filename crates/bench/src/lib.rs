//! Experiment drivers regenerating every table and figure of the paper
//! (see `DESIGN.md` §4 for the index).
//!
//! Each driver returns plain data; the `reproduce` binary formats it the
//! way the paper reports it and writes CSV copies under
//! `target/experiments/`. The serving harnesses also turn their report
//! into one [`Json`] value, which [`publish`] writes as the tracked
//! `BENCH_<name>.json`.

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
pub mod storm_bench;
pub mod tables;

pub use calibrate::{calibrate_tlp_threshold, CalibrationPoint};
pub use figures::{fig11_portability, fig8_grid, fig9_grid, CellResult, PortabilityResult};
pub use googlenet_exp::{fig10_rows, googlenet_summary};
pub use json::{Json, JsonError};
pub use motivation::{motivation_rows, MotivationRow};

use std::fmt;
use std::io::Write as _;
use std::path::PathBuf;

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

/// The one writer of tracked reports. A full run writes
/// `BENCH_<name>.json` at the repo root; a smoke run writes
/// `target/experiments/BENCH_<name>_smoke.json` and leaves the tracked
/// numbers alone. Either way the key set must equal the committed
/// report's. The file is written before that check, so a deliberate key
/// change, or a report with no committed file yet, is accepted by
/// committing the new full-run report. Returns the path written.
pub fn publish(name: &str, report: &Json, smoke: bool) -> Result<PathBuf, PublishError> {
    let committed = committed_report(name);
    let path = if smoke {
        experiments_dir().join(format!("BENCH_{name}_smoke.json"))
    } else {
        bench_json_path(name)
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

/// Assert that `report` has the key set of the committed
/// `BENCH_<name>.json`.
#[cfg(test)]
pub(crate) fn assert_committed_keys(name: &str, report: &Json) {
    let committed = committed_report(name).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(report.key_paths(), committed.key_paths(), "BENCH_{name}.json key set drifted");
}

/// Geometric mean of a non-empty slice of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    let log_sum: f64 = xs.iter().map(|&x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_path_lands_at_the_repo_root() {
        let p = bench_json_path("executor");
        assert!(p.ends_with("BENCH_executor.json"));
        assert!(p.parent().unwrap().join("Cargo.toml").exists());
    }

    /// Every tracked report at the repo root.
    const REPORTS: [&str; 9] = [
        "calibrate",
        "chaos",
        "cluster",
        "executor",
        "locality",
        "obs",
        "replay",
        "serve",
        "storm",
    ];

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
        let smoke = experiments_dir().join("BENCH_serve_smoke.json");
        assert_eq!(publish("serve", &committed, true).expect("same key set"), smoke);
        let Json::Obj(mut pairs) = committed else { panic!("a report is an object") };
        pairs.retain(|(key, _)| key != "p95_us");
        pairs.push(("p99_us".into(), Json::fixed(1.0, 1)));
        let drifted = Json::Obj(pairs);
        let err = publish("serve", &drifted, true).expect_err("p95_us dropped, p99_us added");
        let listing = "committed report:\n   missing key: p95_us\n   unexpected key: p99_us\n";
        assert!(err.to_string().contains(listing), "{err}");
        assert_eq!(std::fs::read_to_string(&smoke).expect("written"), drifted.render());
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.4]) - 1.4).abs() < 1e-12);
    }
}
