#!/usr/bin/env bash
# Regenerate the named experiments (`bench list` shows them) twice —
# serially, then with cells fanned out over 8 worker threads — and fail if
# anything under results/ differs from the committed tree either time:
# virtual-time results may not depend on how the host schedules independent
# simulations. Every BENCH_*.json must also be strict JSON. Environment
# (e.g. DM_DURABLE=1) passes through to the runs; THREADS="1" or "8" makes
# it one pass at that width (a durable `all` takes ~12 min on two cores).
#
# Exempt from the diff: the wall-clock engine benchmark and the per-
# experiment wall times `bench all` records. (The chaos table is committed
# at the default 100 seeds; only `regen_diff.sh chaos` rewrites it.)
set -euo pipefail
[ $# -ge 1 ] || { echo "usage: $0 <experiment>..." >&2; exit 2; }
cd "$(git rev-parse --show-toplevel)"

for threads in ${THREADS:-1 8}; do
  echo "::group::bench $* (SIM_THREADS=$threads)"
  SIM_THREADS=$threads cargo run --release -p bench -- "$@"
  echo "::endgroup::"
  git diff --exit-code -- results/ \
    ':(exclude)results/xtra_sim_throughput.csv' \
    ':(exclude)results/BENCH_sim_throughput.json' \
    ':(exclude)results/xtra_wall_clock.csv' \
    ':(exclude)results/BENCH_wall_clock.json'
  for f in results/BENCH_*.json; do
    python3 -m json.tool "$f" > /dev/null
  done
done
