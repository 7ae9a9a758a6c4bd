#!/usr/bin/env bash
# Build the benchmark from the checkout it sits in, then run one workload:
#   bash perf/run.sh --workload syscall --seed 1 --seconds 10 --trace 0
# All arguments go to `main.exe run`; the last line printed is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f dune-project || ! -d lib ]]; then
  echo "perf: $root is not a full checkout of the repository (no dune-project or lib/)" >&2
  exit 2
fi
# Build output stays in the checkout: no shared dune cache.
dune build --root . --cache=disabled --display=quiet ./perf/main.exe >&2
exec ./_build/default/perf/main.exe run "$@"
