#!/usr/bin/env sh
# Tier-1 gate: everything CI (and the next contributor) needs to pass
# before merging. Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo build --release --examples =="
cargo build --release --examples

# Every crate's unit, integration and doc tests, each once: the crash
# sweeps, the chaos and differential suites and the regression corpora.
echo "== cargo test -q --workspace =="
cargo test -q --workspace

echo "== observability harness + BENCH_obs.json schema gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- obs

echo "== locality differential smoke (aware vs blind traffic gate) + BENCH_locality schema gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- locality --smoke

echo "== cluster smoke sweep (256 devices / 100k requests) + BENCH_cluster schema gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- cluster --smoke

echo "== replay harness smoke (record -> re-run -> crash/restore) + BENCH_replay schema gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- replay --smoke

echo "== storm harness smoke (plan-cache admission under distinct-shape storm) + BENCH_storm schema gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- storm --smoke

echo "== calibration loop smoke (record -> fit -> replay -> swap) + BENCH_calibrate schema gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- calibrate --smoke

echo "== cluster demo compiles against the release profile =="
cargo build --release --example cluster_demo

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "check.sh: all gates passed"
