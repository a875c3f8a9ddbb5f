#!/bin/sh
# Build the benchmark (and the trace validator it runs) from source, then
# run it from the repository root with the given arguments:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -eu
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
# Keep every build artifact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe ./dev/validate_trace.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
