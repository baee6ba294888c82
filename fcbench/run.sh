#!/bin/sh
# Build the benchmark from source in release mode, then run it:
#   sh fcbench/run.sh --workload edge-read --seed 1 --seconds 10 --trace 0
# The build lives in .bench_build (kept apart from a development _build)
# and dune's shared cache is off, so nothing is written outside the tree.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --build-dir .bench_build --profile release \
  ./fcbench/main.exe 1>&2
exec ./.bench_build/default/fcbench/main.exe "$@"
