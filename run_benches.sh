#!/bin/bash
# Regenerates every paper table and figure (see DESIGN.md experiment
# index) from a Release build in build/.
#
#   ./run_benches.sh          every table and figure, then the committed
#                             BENCH_*.json snapshots, stamped with provenance
#   ./run_benches.sh --tail   only the remaining paper artifacts: Figure 7
#                             and the budget ablation at full fidelity with
#                             2 seeds, split-tables 3-6 and figures 8-13 in
#                             FAST mode with 1 split
#
# Environment knobs:
#   TAGLETS_SEEDS  (default 3; the recorded bench_output.txt used 2)
#   TAGLETS_SPLITS (default 3; the recorded run used 1 for figs 8-13)
#   TAGLETS_FAST=1 to shrink all training schedules ~3x
# On a single core a full-fidelity run takes a few hours; the recorded
# run used seeds=2 and FAST mode for the split-table tail (Tables 3-6,
# Figures 8-13), as documented in EXPERIMENTS.md.
cd "$(dirname "$0")"

# Numbers from any other build type are not comparable across commits.
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' build/CMakeCache.txt 2>/dev/null)
if [[ "$build_type" != Release ]]; then
  echo "[run_benches] build/ has CMAKE_BUILD_TYPE='${build_type}', not Release;" \
       "configure it with: cmake -B build -S . -DCMAKE_BUILD_TYPE=Release" >&2
  exit 1
fi

if [[ "$1" == --tail ]]; then
  export TAGLETS_SEEDS=2
  build/bench/fig7_pruning_retrieval
  build/bench/ablation_budget
  export TAGLETS_FAST=1
  export TAGLETS_SPLITS=1
  build/bench/table3_4_officehome_splits
  build/bench/table5_6_grocery_fmd_splits
  build/bench/fig8_10_module_pruning_all
  build/bench/fig11_13_ensemble_gain_all
  exit 0
fi

for b in build/bench/table1_officehome build/bench/table2_grocery_fmd \
         build/bench/fig4_module_pruning build/bench/fig5_ensemble_gain \
         build/bench/fig6_module_ablation build/bench/fig7_pruning_retrieval \
         build/bench/micro_core build/bench/ablation_design \
         build/bench/ablation_budget \
         build/bench/table3_4_officehome_splits \
         build/bench/table5_6_grocery_fmd_splits \
         build/bench/fig8_10_module_pruning_all \
         build/bench/fig11_13_ensemble_gain_all; do
  $b
done

# Serving benches: each emits a committed BENCH_*.json snapshot
# tracked across PRs (in-process server, micro kernels, the fleet
# drill: 3 shard processes, one SIGKILLed mid-run).
TAGLETS_SERVE_JSON_OUT=BENCH_serve.json build/bench/serve_loadgen
build/bench/micro_core --benchmark_out=BENCH_micro_core.json \
  --benchmark_out_format=json
TAGLETS_FLEET_JSON_OUT=BENCH_fleet.json build/bench/fleet_loadgen

# Stamp every snapshot with its provenance — the numbers are
# meaningless in a trajectory without knowing what produced them.
sha=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
dirty=$(git diff --quiet 2>/dev/null || echo "-dirty")
backend=$(build/tools/taglets_run --backend-info | head -1 | sed 's/^tensor backend: //')
threads=${TAGLETS_THREADS:-$(nproc)}
cxx=$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' build/CMakeCache.txt)
compiler=$("${cxx:-c++}" --version | head -1)
for f in BENCH_*.json; do
  python3 - "$f" "$sha$dirty" "$backend" "$threads" "$build_type" "$(nproc)" \
    "$compiler" <<'EOF'
import json, sys
path, sha, backend, threads, build_type, nproc, compiler = sys.argv[1:8]
with open(path) as fh:
    doc = json.load(fh)
doc["provenance"] = {
    "git_sha": sha,
    "build_type": build_type,
    "nproc": int(nproc),
    "compiler": compiler,
    "tensor_backend": backend,
    "threads": int(threads),
}
with open(path, "w") as fh:
    json.dump(doc, fh, indent=1 if path.endswith("micro_core.json") else None)
    fh.write("\n")
EOF
done
echo "[run_benches] stamped BENCH_*.json with git_sha=$sha$dirty build_type=$build_type" \
     "nproc=$(nproc) compiler='$compiler' backend=$backend threads=$threads"
