#!/usr/bin/env bash
# Run one second of one repo-benchmark workload, print its report, and fail
# if any named metric is missing or past its bound.
#
#   bench_guard.sh <workload> <trace 0|1> <metric><=<bound>|<metric>>=<bound>...
set -euo pipefail
[ $# -ge 3 ] || { echo "usage: $0 <workload> <trace> <metric><=|>=<bound>..." >&2; exit 2; }
workload=$1 trace=$2
shift 2
cd "$(git rev-parse --show-toplevel)"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  run --workload "$workload" --seconds 1 --trace "$trace" \
  | awk -v guards="$*" '
    { print; value[$1] = $2 }
    END {
      n = split(guards, guard, " ")
      failed = 0
      for (i = 1; i <= n; i++) {
        at_most = index(guard[i], "<=") > 0
        split(guard[i], part, at_most ? "<=" : ">=")
        v = value[part[1]]
        if (v == "" || (at_most ? v + 0 > part[2] + 0 : v + 0 < part[2] + 0)) {
          print part[1] " [" v "] missing or " (at_most ? "over " : "under ") part[2]
          failed = 1
        }
      }
      exit failed
    }'
