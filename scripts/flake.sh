#!/usr/bin/env sh
# Flake hunter: run the tier-1 `cargo test -q` (every crate's suites)
# N times in a row and stop at the first failing run, printing that
# run's output. A flake is a bug; twenty clean runs in a row is how a
# fix shows it is gone.
#
#   sh scripts/flake.sh 20
set -eu

cd "$(dirname "$0")/.."

n="${1:?usage: scripts/flake.sh N}"
log=target/flake.log
mkdir -p target
start=$(date +%s)
i=1
while [ "$i" -le "$n" ]; do
    if ! cargo test -q >"$log" 2>&1; then
        cat "$log"
        echo "flake.sh: run $i of $n FAILED (output above, also in $log)"
        exit 1
    fi
    echo "flake.sh: run $i of $n clean"
    i=$((i + 1))
done
echo "flake.sh: $n consecutive clean runs in $(($(date +%s) - start)) s"
