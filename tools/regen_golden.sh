#!/bin/sh
# Rewrite the golden example corpus (tests/golden/examples/) from the
# current source, through the same code path the golden test compares
# with: test_examples' per-example test run with EMPLS_REGEN_GOLDEN=1
# writes each scenario's items instead of diffing them.  Run it when a change moves results on purpose, then review the
# corpus diff (`git diff tests/golden`) with the change.
#
#   tools/regen_golden.sh [build-dir]     (default: build)
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build=${1:-"$root/build"}

cmake -B "$build" -S "$root" >/dev/null
cmake --build "$build" --target test_examples
rm -rf "$root/tests/golden/examples"
mkdir -p "$root/tests/golden/examples"
cd "$root/examples"
EMPLS_REGEN_GOLDEN=1 "$build/tests/test_examples" \
  --gtest_filter='Scenarios/Example.*'
git -C "$root" status --short --ignored -- tests/golden
