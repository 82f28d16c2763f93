#!/usr/bin/env bash
# Builds the benchmark and the sharped daemon from source, then runs one
# workload from the root of the checkout:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: not the root of an osharpe checkout" >&2
  exit 2
fi
dune build --root . perfbench/bench.exe bin/sharped.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
