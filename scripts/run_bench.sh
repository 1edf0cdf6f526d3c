#!/usr/bin/env bash
# Runs the sort-sensitive benchmark binaries with JSON output, writing
# BENCH_conversions.json and BENCH_table_ops.json at the repo root — the
# before/after artifacts for sort-kernel and join changes (the table→graph
# rate in BENCH_conversions.json is the acceptance gate for radix-sort
# work; see DESIGN.md "Sort kernels").
#
# Usage:
#   scripts/run_bench.sh [scale]
#
# `scale` multiplies the stand-in dataset sizes (default 0.1, like
# run_all_experiments.sh; CI smoke uses 0.01).
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-0.1}"
export RINGO_BENCH_SCALE="$SCALE"

BUILD_DIR="${BUILD_DIR:-build}"
if [ ! -x "$BUILD_DIR/bench/bench_table5_conversions" ]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j
fi

echo "== bench_table5_conversions (RINGO_BENCH_SCALE=$SCALE) =="
# The conversions binary also exports its operator span tree (Chrome
# trace_event JSON; open in chrome://tracing or Perfetto) so a sort or
# conversion change ships with its phase breakdown, not just end-to-end
# rates. scripts/check_trace.py validates presence + schema, not timings.
RINGO_TRACE_OUT=BENCH_conversions_trace.json \
  "$BUILD_DIR/bench/bench_table5_conversions" \
  --benchmark_format=json | tee BENCH_conversions.json >/dev/null

echo "== bench_table4_table_ops (RINGO_BENCH_SCALE=$SCALE) =="
"$BUILD_DIR/bench/bench_table4_table_ops" \
  --benchmark_format=json | tee BENCH_table_ops.json >/dev/null

# Algorithm rows (BFS engine, AlgoView, diameter, plus one warm-cache row
# per algorithm on AlgoView spans) run at a fixed thread count so the
# artifact is comparable across machines; the acceptance gate is the
# warm-view counters checked below.
THREADS="${RINGO_BENCH_THREADS:-8}"
echo "== bench_table3_parallel_algorithms/BM_Algos_ rows (OMP_NUM_THREADS=$THREADS) =="
OMP_NUM_THREADS="$THREADS" \
  "$BUILD_DIR/bench/bench_table3_parallel_algorithms" \
  --benchmark_filter='BM_Algos_' \
  --benchmark_format=json | tee BENCH_algos.json >/dev/null

# Streaming rows (batched updates + delta-CSR snapshot maintenance) run at
# their own, larger scale: below ~0.3 the whole graph is cache-resident and
# rebuild-per-batch looks artificially cheap, which is exactly the regime
# the delta path exists to escape. Single-threaded on purpose — batch apply
# is a single-writer path and the artifact metric is update-to-query
# latency, not throughput scaling (see bench/bench_streaming.cc).
STREAMING_SCALE="${RINGO_BENCH_STREAMING_SCALE:-0.8}"
echo "== bench_streaming (RINGO_BENCH_SCALE=$STREAMING_SCALE, OMP_NUM_THREADS=1) =="
RINGO_BENCH_SCALE="$STREAMING_SCALE" OMP_NUM_THREADS=1 \
  "$BUILD_DIR/bench/bench_streaming" \
  --benchmark_min_time=0.5 \
  --benchmark_format=json | tee BENCH_streaming.json >/dev/null

# Serving rows (session/worker-pool engine, DESIGN.md §12): closed/open
# loop latency percentiles + QPS over the query mix, plus the overload and
# deadline behavior rows. OMP stays at 1 thread — the engine parallelizes
# across queries, and its gates are structural, not throughput.
echo "== bench_serving (RINGO_BENCH_SCALE=$SCALE, OMP_NUM_THREADS=1) =="
OMP_NUM_THREADS=1 \
  "$BUILD_DIR/bench/bench_serving" \
  --benchmark_format=json | tee BENCH_serving.json >/dev/null

# Query front-end rows: the same script with the fusion pass on and off.
# The gate is the pair's structure (identical results, fused_ops fired,
# fewer plan nodes, >= 1.2x speedup), checked below. Like streaming, the
# rows run at their own scale: below ~0.05 the parse/plan/PageRank fixed
# costs swamp the materialization the fusion pass skips, which is the
# opposite of the regime the speedup gate is about (~10ms/iteration at
# 0.1, so this stays cheap even in CI smoke).
QUERY_SCALE="${RINGO_BENCH_QUERY_SCALE:-0.1}"
echo "== bench_query (RINGO_BENCH_SCALE=$QUERY_SCALE) =="
RINGO_BENCH_SCALE="$QUERY_SCALE" \
  "$BUILD_DIR/bench/bench_query" \
  --benchmark_min_time=0.5 \
  --benchmark_format=json | tee BENCH_query.json >/dev/null

# Compact-layout rows (DESIGN.md §14): compressed CSR vs plain, encoded
# columns vs plain, and the .rtb binary load vs TSV. The gates are
# structural ratios (bytes/edge, bytes/row, scan slowdown, load speedup),
# so the default scale is fine; the load pair is fixed at 100K rows.
echo "== bench_memory (RINGO_BENCH_SCALE=$SCALE) =="
"$BUILD_DIR/bench/bench_memory" \
  --benchmark_min_time=0.5 \
  --benchmark_format=json | tee BENCH_memory.json >/dev/null

if command -v python3 >/dev/null 2>&1; then
  python3 scripts/check_trace.py BENCH_conversions_trace.json
  python3 scripts/check_bench_algos.py BENCH_algos.json
  python3 scripts/check_bench_streaming.py BENCH_streaming.json
  python3 scripts/check_bench_serving.py BENCH_serving.json
  python3 scripts/check_bench_query.py BENCH_query.json
  python3 scripts/check_bench_memory.py BENCH_memory.json
fi

echo "done: BENCH_conversions.json BENCH_table_ops.json BENCH_algos.json BENCH_streaming.json BENCH_serving.json BENCH_query.json BENCH_memory.json BENCH_conversions_trace.json"
