#!/bin/sh
# Rust line count of the workspace (crates/ src/ tests/ vendor/
# examples/), three ways: total, outside tests, and tests. A test line
# is any line of a file under a `tests/` directory, and in every other
# file any line from its first `#[cfg(test)]` to its end.
#
# Usage: sh scripts/loc.sh
set -eu
cd "$(dirname "$0")/.."
find crates src tests vendor examples -name '*.rs' -type f | awk '
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
