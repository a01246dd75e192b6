#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs one workload.
#
#   bash benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#
# Run it from the repository root. Build output goes to stderr and into
# _build/; the shared dune cache is disabled so nothing is written outside
# the checkout. The last line of stdout is the benchmark's JSON result.
set -euo pipefail

if [[ ! -f dune-project || ! -d lib ]]; then
  echo "benchmark/run.sh: run from the repository root (no dune-project or lib/ here)" >&2
  exit 2
fi

export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/run.exe 1>&2
exec ./_build/default/benchmark/run.exe "$@"
