#!/bin/sh
# Build the benchmark from source and run it from the repository root:
#   sh resbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -e
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f resbench/main.ml ]; then
  echo "resbench: run from the root of a ReSBM checkout (dune-project, lib/ and resbench/ needed)" >&2
  exit 2
fi
dune build --root . --profile release --cache=disabled --build-dir .bench_build ./resbench/main.exe >&2
exec ./.bench_build/default/resbench/main.exe "$@"
