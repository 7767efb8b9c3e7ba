#!/usr/bin/env bash
# Build the tuner and the benchmark from source, then run one measurement:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a source checkout.  Build output stays in _build/
# (the dune cache is off, so nothing is written outside the checkout) and
# goes to standard error; the benchmark's last line of standard output is
# its JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a full source checkout" \
    "(dune-project, lib/ and perfbench/ are needed)" >&2
  exit 2
fi

export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
