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

# The debug profile (opt-level 1) vectorizes none of the packed
# executor's tile kernels, nor the oracle's row loop in `gemm_ref`, so
# the bitwise suites run again on the release build the benchmark
# times: the vectorized oracle against the element-at-a-time loop,
# every kernel this CPU runs against the naive loop, and every executor
# path against `reference_result_exact`.
echo "== bitwise suites in release =="
cargo test -q --release -p ctb-matrix --lib
cargo test -q --release -p ctb-core --lib
cargo test -q --release --test differential --test properties

# Every harness below writes its report through `ctb_bench::publish`,
# which fails the run when the key set differs from the committed
# BENCH_<name>.json; --smoke runs write under target/experiments/.
echo "== observability harness smoke + BENCH_obs.json key-set gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- obs --smoke

# The locality, calibration and replay runs are deterministic
# simulated-time experiments of a few seconds each in release: run them
# in full and require the committed reports to regenerate byte for byte.
echo "== locality differential (aware vs blind traffic gate) + BENCH_locality.json key-set gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- locality

echo "== calibration loop (record -> fit -> replay -> swap) + BENCH_calibrate.json key-set gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- calibrate

echo "== replay harness (record -> re-run -> crash/restore) + BENCH_replay.json key-set gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- replay

echo "== BENCH_locality.json, BENCH_calibrate.json and BENCH_replay.json regenerate byte for byte =="
git diff --exit-code -- BENCH_locality.json BENCH_calibrate.json BENCH_replay.json

# The full cluster sweep (16 to 10k devices, a million requests each,
# which covers the smoke's 256-device pool) pins the engine's event
# order at pool sizes the golden digest test never reaches. Every line
# of its report but the host-time ones must regenerate byte for byte;
# the working-tree copy is put back either way.
echo "== cluster sweep (16 to 10k devices / 1M requests) + BENCH_cluster.json simulated fields regenerate byte for byte =="
mkdir -p target/experiments
kept=target/experiments/BENCH_cluster.kept.json
cp BENCH_cluster.json "$kept"
cargo run -q -p ctb-bench --bin reproduce --release -- cluster || { mv "$kept" BENCH_cluster.json; exit 1; }
simulated() { grep -v -e '"wall_s":' -e '"events_per_sec":' "$1"; }
simulated "$kept" > target/experiments/BENCH_cluster.kept.sim
simulated BENCH_cluster.json > target/experiments/BENCH_cluster.sim
mv "$kept" BENCH_cluster.json
diff target/experiments/BENCH_cluster.kept.sim target/experiments/BENCH_cluster.sim ||
    { echo "check.sh: the cluster sweep moved a simulated field of BENCH_cluster.json"; exit 1; }

# A doc link to a deleted or renamed item fails the gate.
echo "== RUSTDOCFLAGS=\"-D warnings\" cargo doc --workspace --no-deps =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

# rustfmt.toml holds the style the code follows. Only the crates
# formatted under it so far are gated; ROADMAP lists the rest.
echo "== cargo fmt -p ctb -p ctb-cluster -p ctb-savestate -p ctb-bench -p ctb-obs -p ctb-serve -p ctb-core -p ctb-matrix -p ctb-convnet -p ctb-batching -- --check =="
cargo fmt -p ctb -p ctb-cluster -p ctb-savestate -p ctb-bench -p ctb-obs -p ctb-serve -p ctb-core -p ctb-matrix -p ctb-convnet -p ctb-batching -- --check

echo "check.sh: all gates passed"
