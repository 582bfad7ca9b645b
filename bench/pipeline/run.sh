#!/bin/sh
# Build the pipeline benchmark from source in this checkout, then run it
# with the given arguments, e.g.
#
#   sh bench/pipeline/run.sh --workload ctree-tx64 --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout.  The build stays inside the
# checkout: dune's shared cache is turned off.
set -e
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/pipeline/pipeline.exe 1>&2
exec ./_build/default/bench/pipeline/pipeline.exe "$@"
