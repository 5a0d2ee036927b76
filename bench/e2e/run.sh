#!/usr/bin/env bash
# End-to-end benchmark of TAGLETS (bench/e2e/README.md). Builds
# bench/e2e/build in Release, then runs taglets_bench.
#
#   bench/e2e/run.sh                 every workload once, untraced; prints
#                                    `workload metric value unit` lines
#   bench/e2e/run.sh --traced        the same, traced: the per-layer metrics
#   bench/e2e/run.sh --runs N --out DIR [--workloads a,b] [--traced]
#                                    N seeds (1..N) per workload, results in
#                                    DIR, for bench_diff.py
#   bench/e2e/run.sh --self-test     the reducer and bench_diff.py checks
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#                                    one run; its last stdout line is the
#                                    result JSON
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$here/build"
bench="$build/taglets_bench"

if [[ ! -f "$root/src/CMakeLists.txt" || ! -f "$root/BENCHMARK.json" ]]; then
  echo "run.sh: the TAGLETS sources are not under $root" >&2
  exit 1
fi

jobs="$(nproc)"
((jobs > 4)) && jobs=4
mkdir -p "$build"
if ! { cmake -S "$here" -B "$build" &&
       cmake --build "$build" --target taglets_bench -j "$jobs"; } \
     >"$build/build.log" 2>&1; then
  cat "$build/build.log" >&2
  echo "run.sh: build failed" >&2
  exit 1
fi

sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
dirty=unknown
if [[ "$sha" != unknown ]]; then
  dirty=0
  [[ -n "$(git -C "$root" status --porcelain --untracked-files=no 2>/dev/null)" ]] && dirty=1
fi
provenance=(--git-sha "$sha" --git-dirty "$dirty")

if [[ " $* " == *" --workload "* ]]; then
  exec "$bench" --out "$here/out" "${provenance[@]}" "$@"
fi
if [[ " $* " == *" --self-test "* ]]; then
  "$bench" --self-test
  exec python3 "$here/bench_diff.py" --self-test
fi

trace=0
runs=1
out="$here/out"
workloads="pipeline-oh1,serve-steady,serve-saturate,fleet-steady"
seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
while (($#)); do
  case "$1" in
    --traced) trace=1 ;;
    --runs) runs="$2"; shift ;;
    --out) out="$2"; shift ;;
    --workloads) workloads="$2"; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift
done

status=0
for workload in ${workloads//,/ }; do
  for ((seed = 1; seed <= runs; seed++)); do
    if ! "$bench" --out "$out" "${provenance[@]}" --workload "$workload" \
         --seed "$seed" --seconds "$seconds" --trace "$trace" | grep -v '^{'; then
      echo "run.sh: $workload seed $seed failed" >&2
      status=1
    fi
  done
done
exit "$status"
