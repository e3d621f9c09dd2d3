#!/usr/bin/env bash
# Regenerates every table/figure reproduction and the ablations.
#
#   ./scripts/run_experiments.sh [build-dir] [output-dir]
#
# Writes one .txt per experiment into the output directory (default
# ./experiment_results) and a combined all_benches.txt. Runtimes: the full
# set takes a few minutes on one core; the N=100k figures dominate.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-experiment_results}"
BENCH_DIR="$BUILD_DIR/bench"

if [[ ! -d "$BENCH_DIR" ]]; then
  echo "error: $BENCH_DIR not found — build first: cmake -B $BUILD_DIR -G Ninja && cmake --build $BUILD_DIR" >&2
  exit 1
fi

mkdir -p "$OUT_DIR"
run() {
  local name="$1"
  shift
  echo "== running $name: $*"
  "$@" | tee "$OUT_DIR/$name.txt"
  echo
}

run fig5a "$BENCH_DIR/fig5_processing_time" --cardinality 1000
run fig5b "$BENCH_DIR/fig5_processing_time" --cardinality 100000
run fig6 "$BENCH_DIR/fig6_scalability"
run fig7a "$BENCH_DIR/fig7_optimality" --cardinality 1000
run fig7b "$BENCH_DIR/fig7_optimality" --cardinality 100000
run theorem "$BENCH_DIR/theorem_dominance"
run ablation_partition_count "$BENCH_DIR/ablation_partition_count"
run ablation_angular_policy "$BENCH_DIR/ablation_angular_policy"
run ablation_local_algorithm "$BENCH_DIR/ablation_local_algorithm"
run ablation_distribution "$BENCH_DIR/ablation_distribution"
run ablation_combiner "$BENCH_DIR/ablation_combiner"
run ablation_merge_parallel "$BENCH_DIR/ablation_merge_parallel"
run ablation_sequential_baselines "$BENCH_DIR/ablation_sequential_baselines"
run ablation_stragglers "$BENCH_DIR/ablation_stragglers"
run ablation_salting "$BENCH_DIR/ablation_salting"
run ablation_threads "$BENCH_DIR/ablation_threads"
run micro_kernels "$BENCH_DIR/micro_kernels" --benchmark_min_time=0.1

rm -f "$OUT_DIR/all_benches.txt"
cat "$OUT_DIR"/*.txt > "$OUT_DIR/all_benches.tmp"
mv "$OUT_DIR/all_benches.tmp" "$OUT_DIR/all_benches.txt"
echo "results written to $OUT_DIR/"
