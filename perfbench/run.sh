#!/usr/bin/env bash
# Build the benchmark from source and run it:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ -z "${PERFBENCH_COMMIT:-}" ]; then
  PERFBENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
  export PERFBENCH_COMMIT
fi
dune build --root . ./perfbench/bench.exe 1>&2
# serve_mixed runs on one core. On two, each run settles into one of two
# speeds (one executor serves 23 or 57 requests per busy second, fixed
# for the life of the process), so its latency median is bimodal across
# runs; on one core every run is the slow one.
pin=()
for a in "$@"; do
  if [ "$a" = serve_mixed ] && command -v taskset >/dev/null; then
    cpus=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status)
    pin=(taskset -c "${cpus%%[,-]*}")
  fi
done
exec ${pin[@]+"${pin[@]}"} ./_build/default/perfbench/bench.exe "$@"
