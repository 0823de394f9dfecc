#!/usr/bin/env bash
# Build the benchmark suite from source, then run it with the given
# arguments.  Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload kv --seed 7 --seconds 15 --trace 0
#
# Build output goes to stderr, so the suite's JSON result stays the last
# line of stdout.  Everything is written inside the checkout (_build/
# and .perfbench/); dune's shared cache is switched off for that reason.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/suite.ml ]; then
  echo "perfbench: run from the root of a full checkout (dune-project, lib/ and perfbench/ must exist)" >&2
  exit 2
fi

export DUNE_CACHE=disabled
dune build --root . ./perfbench/suite.exe >&2
exec ./_build/default/perfbench/suite.exe "$@"
