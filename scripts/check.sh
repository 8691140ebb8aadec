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

# The debug profile vectorizes none of the packed executor's tile
# kernels, so the bitwise suites run again on the release build the
# benchmark times: every kernel this CPU runs against the naive loop,
# and every executor path against `reference_result_exact`.
echo "== bitwise suites in release =="
cargo test -q --release -p ctb-core --lib
cargo test -q --release --test differential --test properties

# Every harness below writes its report through `ctb_bench::publish`,
# which fails the run when the key set differs from the committed
# BENCH_<name>.json; --smoke runs write under target/experiments/.
echo "== observability harness + BENCH_obs.json key-set gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- obs

# The locality and calibration runs are deterministic simulated-time
# experiments of a few seconds each in release: run them in full and
# require the committed reports to regenerate byte for byte.
echo "== locality differential (aware vs blind traffic gate) + BENCH_locality.json key-set gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- locality

echo "== calibration loop (record -> fit -> replay -> swap) + BENCH_calibrate.json key-set gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- calibrate

echo "== BENCH_locality.json and BENCH_calibrate.json regenerate byte for byte =="
git diff --exit-code -- BENCH_locality.json BENCH_calibrate.json

echo "== cluster smoke sweep (256 devices / 100k requests) + BENCH_cluster.json key-set gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- cluster --smoke

echo "== replay harness smoke (record -> re-run -> crash/restore) + BENCH_replay.json key-set gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- replay --smoke

echo "== storm harness smoke (plan-cache admission under distinct-shape storm) + BENCH_storm.json key-set gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- storm --smoke

echo "== cluster demo compiles against the release profile =="
cargo build --release --example cluster_demo

# A doc link to a deleted or renamed item fails the gate.
echo "== RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "check.sh: all gates passed"
