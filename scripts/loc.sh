#!/bin/sh
# Rust line count, three ways: total, outside tests, and tests. A test
# line is any line of a file under a `tests/` directory, and in every
# other file any line from its first `#[cfg(test)]` to its end.
#
# Usage: sh scripts/loc.sh [PATH...]
# PATHs are relative to the repository root and default to the whole
# workspace: crates src tests vendor examples. A refactor can pass the
# crates it touched, e.g. `sh scripts/loc.sh crates/cluster crates/core`.
set -eu
cd "$(dirname "$0")/.."
[ "$#" -gt 0 ] || set -- crates src tests vendor examples
find "$@" -name '*.rs' -type f | awk '
{
    file = $0
    in_test = file ~ /(^|\/)tests\//
    while ((getline line < file) > 0) {
        if (line ~ /#\[cfg\(test\)\]/) in_test = 1
        if (in_test) tests++; else code++
    }
    close(file)
}
END {
    printf "total      %6d\n", code + tests
    printf "non-test   %6d\n", code
    printf "tests      %6d\n", tests
}'
