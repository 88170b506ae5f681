#!/usr/bin/env bash
# Build the compiler and the benchmark from source, then run the
# benchmark; every argument is passed on to perf.exe.  Run from the
# root of a checkout:
#
#   bash bench/perf/run.sh --workload cold_pdp8 --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr, so the last line of standard output is
# the benchmark's JSON result.
set -euo pipefail

if [[ ! -f dune-project || ! -f bin/scc.ml || ! -d lib ]]; then
  echo "run.sh: run from the root of a full checkout (no dune-project, bin/ or lib/ here)" >&2
  exit 2
fi
command -v dune >/dev/null || { echo "run.sh: dune not found" >&2; exit 2; }

dune build --root . ./bin/scc.exe ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe --scc ./_build/default/bin/scc.exe "$@"
