#!/usr/bin/env bash
# Build the fleet benchmark from this checkout's sources, then run it:
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 30 --trace 0
# Build output goes to stderr; stdout ends with one JSON result line.
set -u
cd "$(dirname "$0")/.." || exit 2
if [ ! -f dune-project ] || [ ! -d lib/cli ]; then
  echo "perfbench: no Vegvisir sources in $(pwd); nothing to build" >&2
  exit 2
fi
export DUNE_CACHE=disabled
if ! dune build --root . ./perfbench/src/fleet.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec ./_build/default/perfbench/src/fleet.exe "$@"
