#!/usr/bin/env sh
# Tier-1 gate: everything CI (and the next contributor) needs to pass
# before merging. Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo build --release --examples =="
cargo build --release --examples

echo "== cargo test -q =="
cargo test -q

echo "== differential conformance suite =="
cargo test -q --test differential

echo "== concurrency suites (serve stress + planning determinism) =="
cargo test -q -p ctb-serve --test stress
cargo test -q --test determinism

echo "== chaos suite (seeded fault injection against ctb-serve) =="
cargo test -q -p ctb-serve --test chaos

echo "== async front door differential suite (blocking vs buffered admission) =="
cargo test -q -p ctb-serve --test async_front

echo "== property suites (bounded-queue invariants) =="
cargo test -q -p ctb-serve invariant_props

echo "== property suites (Bloom admission-gate invariants) =="
cargo test -q --test properties bloom_gate

echo "== property regression corpus (pinned shrunk cases) =="
cargo test -q --test properties regression_corpus_replays_recorded_cases

echo "== cluster suite (multi-device routing + device-level chaos) =="
cargo test -q -p ctb-cluster

echo "== observability suite (event bus + trace audit + histogram props) =="
cargo build --release -p ctb-obs
cargo test -q -p ctb-obs
cargo test -q -p ctb-serve --test obs

echo "== observability harness + BENCH_obs.json schema gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- obs

echo "== savestate codec (versioned binary reader/writer) =="
cargo test -q -p ctb-savestate

echo "== savestate crash-point differential suite (checkpoint/restore replay) =="
cargo test -q -p ctb-cluster --test savestate

echo "== savestate regression corpus (pinned crash-boundary cases) =="
cargo test -q -p ctb-cluster --test savestate regression_corpus_replays_recorded_boundary_cases

echo "== differential locality suite (aware vs blind on multi-chiplet pools) =="
cargo test -q -p ctb-cluster --test locality

echo "== locality differential smoke (aware vs blind traffic gate) + BENCH_locality schema gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- locality --smoke

echo "== cluster smoke sweep (256 devices / 100k requests) + BENCH_cluster schema gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- cluster --smoke

echo "== replay harness smoke (record -> re-run -> crash/restore) + BENCH_replay schema gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- replay --smoke

echo "== storm harness smoke (plan-cache admission under distinct-shape storm) + BENCH_storm schema gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- storm --smoke

echo "== calibration suite (offline fit + retrain + hot-swap under load) =="
cargo test -q -p ctb-calib

echo "== calibration loop smoke (record -> fit -> replay -> swap) + BENCH_calibrate schema gate =="
cargo run -q -p ctb-bench --bin reproduce --release -- calibrate --smoke

echo "== cluster demo compiles against the release profile =="
cargo build --release --example cluster_demo

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "check.sh: all gates passed"
