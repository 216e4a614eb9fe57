#!/usr/bin/env bash
# Build the benchmark from the source tree it sits in, then run it.
#   bash rdca_bench/run.sh --workload synth --seed 1 --seconds 20 --trace 0
# The build goes to _bench_build (release profile, no shared dune
# cache), apart from the development build in _build; build output goes
# to standard error.
set -eu
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "rdca_bench: no rdca source tree at $root" >&2
  exit 2
fi
dune build --root . --build-dir _bench_build --profile release --cache=disabled \
  ./rdca_bench/main.exe 1>&2
exec ./_bench_build/default/rdca_bench/main.exe "$@"
