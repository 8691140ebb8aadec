//! The metric catalogue and the result format.
//!
//! Every workload reports the same metric set: all end-to-end metrics
//! on an untraced run, all per-layer metrics on a traced one. A layer a
//! workload never calls reads 0. The catalogue here must list exactly
//! the metrics `BENCHMARK.json` names, in the same order; a unit test
//! holds the two together.

use std::collections::BTreeMap;

/// Workload names, in the order the full run executes them.
pub const WORKLOADS: [&str; 4] = ["offline_repeat", "plan_novel", "serve_open", "cluster_10k"];

/// End-to-end metrics: `(name, unit)`. Host times are at nominal host
/// speed (see [`crate::host`]).
pub const END_TO_END: [(&str, &str); 3] = [
    ("throughput", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics that every workload reports once.
const LAYER: [(&str, &str); 44] = [
    ("session.plan_calls", "count"),
    ("session.hit_rate", "ratio"),
    ("session.plan_hit_us_p50", "us"),
    ("session.plan_cold_us_p50", "us"),
    ("session.plan_cold_us_p99", "us"),
    ("session.busy_share", "ratio"),
    ("memo.hit_rate", "ratio"),
    ("memo.misses", "count"),
    ("sim.calls", "count"),
    ("sim.us_p50", "us"),
    ("sim.busy_share", "ratio"),
    ("sim.speedup_vs_magma", "x"),
    ("exec.calls", "count"),
    ("exec.ms_p50", "ms"),
    ("exec.ms_p99", "ms"),
    ("exec.gflops", "GFLOP/s"),
    ("exec.flops", "FLOP"),
    ("exec.bytes_computed", "B"),
    ("exec.flops_per_byte", "FLOP/B"),
    ("exec.busy_share", "ratio"),
    ("front.submit_us_p50", "us"),
    ("front.submit_us_p99", "us"),
    ("front.backlog_max", "count"),
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.step_ns_p50", "ns"),
    ("engine.step_ns_p99", "ns"),
    ("engine.step_ns_max", "ns"),
    ("engine.routed", "count"),
    ("engine.steals", "count"),
    ("engine.reroutes", "count"),
    ("engine.witnesses", "count"),
    ("engine.witness_mismatches", "count"),
    ("engine.utilization_sim", "ratio"),
    ("engine.placement_err_us", "us"),
    ("engine.plan_misses", "count"),
    ("engine.memo_hit_rate", "ratio"),
    ("engine.load_ms", "ms"),
    ("engine.makespan_sim_us", "us"),
    ("savestate.checkpoint_ms", "ms"),
    ("savestate.restore_ms", "ms"),
    ("savestate.blob_bytes", "B"),
    ("tracing.overhead_pct", "%"),
    ("tracing.coverage", "ratio"),
];

/// Serve phases: the two fixed arrival rates and saturation.
pub const PHASES: [&str; 3] = ["2k", "6k", "sat"];

/// Per-layer metrics reported once per serve phase, as `<name>.<phase>`.
const PHASE_LAYER: [(&str, &str); 22] = [
    ("serve.completed_rps", "1/s"),
    ("serve.lat_us_p50", "us"),
    ("serve.lat_us_p95", "us"),
    ("serve.lat_us_p99", "us"),
    ("serve.lat_us_p999", "us"),
    ("serve.lat_samples", "count"),
    ("serve.queue_us_p50", "us"),
    ("serve.queue_us_p95", "us"),
    ("serve.plan_us_p50", "us"),
    ("serve.exec_us_p50", "us"),
    ("serve.exec_us_p95", "us"),
    ("serve.respond_us_p50", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.batches", "count"),
    ("serve.plan_hit_rate", "ratio"),
    ("serve.memo_hit_rate", "ratio"),
    ("serve.degraded", "count"),
    ("serve.retries", "count"),
    ("serve.rejected", "count"),
    ("serve.expired", "count"),
    ("gen.late_us_p50", "us"),
    ("gen.late_us_p99", "us"),
];

/// All per-layer metrics: `(name, unit)`, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for phase in PHASES {
        out.extend(
            PHASE_LAYER
                .iter()
                .map(|(n, u)| (format!("{n}.{phase}"), *u)),
        );
    }
    out
}

/// The metric set a run reports: end-to-end untraced, per-layer traced.
pub fn catalogue(traced: bool) -> Vec<(String, &'static str)> {
    if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    }
}

/// Values a workload measured, keyed by catalogue name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Record `value` under `name`, which must be in the catalogue.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name)
                || per_layer().iter().any(|(n, _)| n == name),
            "metric {name} is not in the catalogue"
        );
        self.0.insert(name.to_string(), value);
    }

    /// Record a per-phase serve metric as `<name>.<phase>`.
    pub fn set_phase(&mut self, name: &str, phase: &str, value: f64) {
        self.set(&format!("{name}.{phase}"), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The finished result of one workload run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// `(name, value, unit)` for every catalogue metric, in order. Layers a
/// workload does not call read 0; a missing end-to-end metric is a bug.
pub fn emitted(traced: bool, m: &Metrics) -> Vec<(String, f64, &'static str)> {
    catalogue(traced)
        .into_iter()
        .map(|(name, unit)| {
            let v = match m.get(&name) {
                Some(v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            // JSON has no NaN or infinity.
            (name, if v.is_finite() { v } else { 0.0 }, unit)
        })
        .collect()
}

/// The result object: the last line the benchmark prints.
pub fn render_json(o: &Outcome, traced: bool) -> String {
    let metrics: Vec<String> = emitted(traced, &o.metrics)
        .into_iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// Metric names: 1 to 64 characters from `[A-Za-z0-9_.-]`, starting
    /// with a letter or digit.
    fn valid_name(name: &str) -> bool {
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// The string values of `key` inside the JSON array `section`.
    fn values(section: &str, key: &str) -> Vec<String> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\""))
            .expect("section present");
        let open = start + BENCHMARK_JSON[start..].find('[').expect("array");
        let close = open + BENCHMARK_JSON[open..].find(']').expect("array end");
        let body = &BENCHMARK_JSON[open..close];
        let pat = format!("\"{key}\"");
        body.match_indices(&pat)
            .map(|(i, _)| {
                let rest = body[i + pat.len()..]
                    .trim_start()
                    .strip_prefix(':')
                    .expect("colon");
                let rest = rest.trim_start().strip_prefix('"').expect("string value");
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    #[test]
    fn names_use_the_allowed_charset() {
        for (n, _) in per_layer().iter().chain(&catalogue(false)) {
            assert!(valid_name(n), "bad metric name {n}");
        }
        for w in WORKLOADS {
            assert!(valid_name(w));
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("a/b"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        assert_eq!(values("workloads", "name"), WORKLOADS.to_vec());
        for (section, traced) in [("end_to_end", false), ("per_layer", true)] {
            let want: Vec<String> = catalogue(traced).into_iter().map(|(n, _)| n).collect();
            let units: Vec<String> = catalogue(traced)
                .into_iter()
                .map(|(_, u)| u.into())
                .collect();
            assert_eq!(values(section, "name"), want, "{section} names");
            assert_eq!(values(section, "unit"), units, "{section} units");
        }
    }

    #[test]
    fn every_workload_emits_exactly_the_listed_metrics() {
        // Whatever subset a workload measured, the emitted set is the
        // catalogue: per-layer gaps read 0, nothing extra appears.
        let mut m = Metrics::default();
        for (n, _) in END_TO_END {
            m.set(n, 1.5);
        }
        m.set("exec.calls", 3.0);
        m.set_phase("serve.batches", "sat", 9.0);
        for traced in [false, true] {
            let names: Vec<String> = emitted(traced, &m).into_iter().map(|(n, _, _)| n).collect();
            let listed: Vec<String> =
                values(if traced { "per_layer" } else { "end_to_end" }, "name");
            assert_eq!(names, listed);
        }
        let layer = emitted(true, &m);
        assert!(layer
            .iter()
            .any(|(n, v, _)| n == "serve.batches.sat" && *v == 9.0));
        assert!(layer
            .iter()
            .any(|(n, v, _)| n == "engine.events" && *v == 0.0));
        let json = render_json(
            &Outcome {
                attempted: 4,
                failed: 0,
                metrics: m,
            },
            false,
        );
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {")
        );
        assert!(json.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unlisted_metrics_are_refused() {
        Metrics::default().set("exec.unlisted", 1.0);
    }
}
