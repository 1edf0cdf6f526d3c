// Table 3 — "Performance of parallel graph algorithms for PageRank and
// Triangle Counting on a single big-memory machine with 80 cores."
//
// Paper (full size, 80 hyperthreads, mean of 5 runs):
//   PageRank (10 iters):   LiveJournal 2.76s   Twitter2010 60.5s
//   Triangle counting:     LiveJournal 6.13s   Twitter2010 263.6s
//
// Shape to check at reduced scale: triangle counting costs more than 10
// PageRank iterations on the same graph, and the larger/more skewed graph
// pays a higher per-edge cost for triangles.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>

#include "algo/algo_view.h"
#include "algo/anf.h"
#include "algo/bfs.h"
#include "algo/bfs_engine.h"
#include "algo/centrality.h"
#include "algo/community.h"
#include "algo/diameter.h"
#include "algo/hits.h"
#include "algo/kcore.h"
#include "algo/louvain.h"
#include "algo/pagerank.h"
#include "algo/transform.h"
#include "algo/triangles.h"
#include "bench/bench_common.h"
#include "storage/flat_hash_map.h"
#include "util/metrics.h"

namespace ringo {
namespace bench {
namespace {

PageRankConfig TenIterations() {
  PageRankConfig cfg;
  cfg.max_iters = 10;
  cfg.tol = 0;  // The paper times exactly ten iterations.
  return cfg;
}

void BM_Table3_PageRank_LiveJournalSim(benchmark::State& state) {
  const Dataset& d = LiveJournalSim();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ParallelPageRank(*d.graph, TenIterations()).ValueOrDie());
  }
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(d.graph->NumEdges()) * 10,
      benchmark::Counter::kIsIterationInvariantRate);
  SetPaperSeconds(state, 2.76);
}
BENCHMARK(BM_Table3_PageRank_LiveJournalSim)->Unit(benchmark::kMillisecond);

void BM_Table3_PageRank_TwitterSim(benchmark::State& state) {
  const Dataset& d = TwitterSim();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ParallelPageRank(*d.graph, TenIterations()).ValueOrDie());
  }
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(d.graph->NumEdges()) * 10,
      benchmark::Counter::kIsIterationInvariantRate);
  SetPaperSeconds(state, 60.5);
}
BENCHMARK(BM_Table3_PageRank_TwitterSim)->Unit(benchmark::kMillisecond);

// The paper counts undirected triangles; convert once outside the loop.
const UndirectedGraph& UndirectedOf(const Dataset& d) {
  static FlatHashMap<const Dataset*, std::shared_ptr<UndirectedGraph>> cache;
  auto* entry = cache.Find(&d);
  if (entry == nullptr) {
    entry = cache
                .Insert(&d, std::make_shared<UndirectedGraph>(
                                ToUndirected(*d.graph)))
                .first;
  }
  return **entry;
}

void BM_Table3_Triangles_LiveJournalSim(benchmark::State& state) {
  const UndirectedGraph& g = UndirectedOf(LiveJournalSim());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParallelTriangleCount(g));
  }
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(g.NumEdges()),
      benchmark::Counter::kIsIterationInvariantRate);
  SetPaperSeconds(state, 6.13);
}
BENCHMARK(BM_Table3_Triangles_LiveJournalSim)->Unit(benchmark::kMillisecond);

void BM_Table3_Triangles_TwitterSim(benchmark::State& state) {
  const UndirectedGraph& g = UndirectedOf(TwitterSim());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ParallelTriangleCount(g));
  }
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(g.NumEdges()),
      benchmark::Counter::kIsIterationInvariantRate);
  SetPaperSeconds(state, 263.6);
}
BENCHMARK(BM_Table3_Triangles_TwitterSim)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------------ BFS
// Single-source traversal rows. The *_SeqBaseline rows replicate the
// pre-AlgoView implementation (deque frontier + per-edge hash-map probes +
// final sort) so the speedup of the direction-optimizing engine over the
// seed is a ratio of two rows in the same JSON artifact.

NodeInts SeqBaselineBfs(const DirectedGraph& g, NodeId src) {
  FlatHashMap<NodeId, int64_t> dist;
  std::deque<NodeId> queue;
  dist.Insert(src, 0);
  queue.push_back(src);
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    const int64_t du = *dist.Find(u);
    for (NodeId v : g.GetNode(u)->out) {
      if (dist.Insert(v, du + 1).second) queue.push_back(v);
    }
  }
  NodeInts out;
  out.reserve(dist.size());
  dist.ForEach([&](NodeId id, const int64_t& d) { out.emplace_back(id, d); });
  std::sort(out.begin(), out.end());
  return out;
}

NodeId BfsSource(const Dataset& d) {
  // Highest out-degree node: reaches the most of the graph, like the
  // high-degree sources the paper traverses from.
  NodeId best = -1;
  int64_t best_deg = -1;
  d.graph->ForEachNode([&](NodeId id, const DirectedGraph::NodeData& nd) {
    const int64_t deg = static_cast<int64_t>(nd.out.size());
    if (deg > best_deg || (deg == best_deg && id < best)) {
      best = id;
      best_deg = deg;
    }
  });
  return best;
}

void RunBfsRow(benchmark::State& state, const Dataset& d, bool baseline) {
  const NodeId src = BfsSource(d);
  // Warm the cached snapshot so the engine rows time traversal, not the
  // one-off CSR build (which has its own row below).
  if (!baseline) AlgoView::Of(*d.graph);
  const int64_t builds0 = metrics::CounterValue("algo_view/build");
  const int64_t hits0 = metrics::CounterValue("algo_view/hit");
  for (auto _ : state) {
    benchmark::DoNotOptimize(baseline ? SeqBaselineBfs(*d.graph, src)
                                      : BfsDistances(*d.graph, src));
  }
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(d.graph->NumEdges()),
      benchmark::Counter::kIsIterationInvariantRate);
  if (!baseline) {
    // The acceptance gate for the snapshot cache: a warm view is reused on
    // every iteration (hits == iterations) and never rebuilt (builds == 0).
    state.counters["view_builds_in_loop"] = benchmark::Counter(
        static_cast<double>(metrics::CounterValue("algo_view/build") -
                            builds0));
    state.counters["view_hits_in_loop"] = benchmark::Counter(
        static_cast<double>(metrics::CounterValue("algo_view/hit") - hits0));
  }
}

void BM_Algos_Bfs_SeqBaseline_LiveJournalSim(benchmark::State& state) {
  RunBfsRow(state, LiveJournalSim(), /*baseline=*/true);
}
BENCHMARK(BM_Algos_Bfs_SeqBaseline_LiveJournalSim)
    ->Unit(benchmark::kMillisecond);

void BM_Algos_Bfs_LiveJournalSim(benchmark::State& state) {
  RunBfsRow(state, LiveJournalSim(), /*baseline=*/false);
}
BENCHMARK(BM_Algos_Bfs_LiveJournalSim)->Unit(benchmark::kMillisecond);

void BM_Algos_Bfs_SeqBaseline_TwitterSim(benchmark::State& state) {
  RunBfsRow(state, TwitterSim(), /*baseline=*/true);
}
BENCHMARK(BM_Algos_Bfs_SeqBaseline_TwitterSim)->Unit(benchmark::kMillisecond);

void BM_Algos_Bfs_TwitterSim(benchmark::State& state) {
  RunBfsRow(state, TwitterSim(), /*baseline=*/false);
}
BENCHMARK(BM_Algos_Bfs_TwitterSim)->Unit(benchmark::kMillisecond);

// Cost of materializing the dense snapshot itself (the price the first
// traversal after a mutation pays).
void BM_Algos_AlgoViewBuild_TwitterSim(benchmark::State& state) {
  const Dataset& d = TwitterSim();
  for (auto _ : state) {
    benchmark::DoNotOptimize(AlgoView::Build(*d.graph));
  }
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(d.graph->NumEdges()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Algos_AlgoViewBuild_TwitterSim)->Unit(benchmark::kMillisecond);

// Diameter estimation = pivot BFS fan-out over one shared snapshot.
void BM_Algos_Diameter_LiveJournalSim(benchmark::State& state) {
  const UndirectedGraph& g = UndirectedOf(LiveJournalSim());
  AlgoView::Of(g);  // Warm, like the BFS rows.
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateDiameter(g, 8, 1));
  }
  state.counters["edges_per_sec"] = benchmark::Counter(
      static_cast<double>(g.NumEdges()) * 8,
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_Algos_Diameter_LiveJournalSim)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------- ported algo rows
// One warm-cache row per algorithm that reads AlgoView spans. Each row
// warms the snapshot outside the timed loop and reports the algo_view
// counters (check_bench_algos.py gates builds-in-loop == 0 and
// hits >= iterations).

template <typename WarmFn, typename BodyFn>
void RunWarmViewRow(benchmark::State& state, WarmFn&& warm, BodyFn&& body) {
  warm();
  const int64_t builds0 = metrics::CounterValue("algo_view/build");
  const int64_t hits0 = metrics::CounterValue("algo_view/hit");
  for (auto _ : state) {
    benchmark::DoNotOptimize(body());
  }
  state.counters["view_builds_in_loop"] = benchmark::Counter(
      static_cast<double>(metrics::CounterValue("algo_view/build") - builds0));
  state.counters["view_hits_in_loop"] = benchmark::Counter(
      static_cast<double>(metrics::CounterValue("algo_view/hit") - hits0));
}

// Bounded workloads: fixed iteration counts (no convergence-path variance
// between runs) and sampled/leveled variants where the exact algorithm
// would dwarf the smoke budget.
PageRankConfig PageRankBenchConfig() { return TenIterations(); }
HitsConfig HitsBenchConfig() {
  HitsConfig cfg;
  cfg.max_iters = 10;
  cfg.tol = 0;
  return cfg;
}
LouvainConfig LouvainBenchConfig() {
  LouvainConfig cfg;
  cfg.max_levels = 2;
  cfg.max_passes_per_level = 3;
  return cfg;
}

#define RINGO_PORTED_ALGO_ROW(ALGO, WARM, BODY)                       \
  void BM_Algos_##ALGO(benchmark::State& state) {                     \
    RunWarmViewRow(state, [&] { WARM; }, [&] { return BODY; });       \
  }                                                                   \
  BENCHMARK(BM_Algos_##ALGO)->Unit(benchmark::kMillisecond)

RINGO_PORTED_ALGO_ROW(PageRank_LiveJournalSim,
                      AlgoView::Of(*LiveJournalSim().graph),
                      ParallelPageRank(*LiveJournalSim().graph,
                                       PageRankBenchConfig())
                          .ValueOrDie());

RINGO_PORTED_ALGO_ROW(Hits_LiveJournalSim,
                      AlgoView::Of(*LiveJournalSim().graph),
                      Hits(*LiveJournalSim().graph, HitsBenchConfig())
                          .ValueOrDie());

RINGO_PORTED_ALGO_ROW(Triangles_LiveJournalSim,
                      AlgoView::Of(UndirectedOf(LiveJournalSim())),
                      ParallelTriangleCount(UndirectedOf(LiveJournalSim())));

RINGO_PORTED_ALGO_ROW(KCore_LiveJournalSim,
                      AlgoView::Of(UndirectedOf(LiveJournalSim())),
                      CoreNumbers(UndirectedOf(LiveJournalSim())));

RINGO_PORTED_ALGO_ROW(LabelProp_LiveJournalSim,
                      AlgoView::Of(UndirectedOf(LiveJournalSim())),
                      LabelPropagation(UndirectedOf(LiveJournalSim()), 5, 1));

RINGO_PORTED_ALGO_ROW(Louvain_LiveJournalSim,
                      AlgoView::Of(UndirectedOf(LiveJournalSim())),
                      Louvain(UndirectedOf(LiveJournalSim()),
                              LouvainBenchConfig())
                          .ValueOrDie());

RINGO_PORTED_ALGO_ROW(Anf_LiveJournalSim,
                      AlgoView::Of(UndirectedOf(LiveJournalSim())),
                      ApproxNeighborhoodFunction(UndirectedOf(LiveJournalSim()),
                                                 4, 32, 1)
                          .ValueOrDie());

// Full Brandes is O(n·m); 8 sampled pivots keep the row inside the smoke
// budget while still timing the span BFS inner loops.
RINGO_PORTED_ALGO_ROW(Betweenness_LiveJournalSim,
                      AlgoView::Of(UndirectedOf(LiveJournalSim())),
                      ApproxBetweennessCentrality(
                          UndirectedOf(LiveJournalSim()), 8, 1));

#undef RINGO_PORTED_ALGO_ROW

}  // namespace
}  // namespace bench
}  // namespace ringo

// Explicit main: metrics must be on so the BFS rows can report the
// algo_view build/hit counters that scripts/check_bench_algos.py gates on,
// and the recorded trace is exported for inspection when requested.
int main(int argc, char** argv) {
  ringo::metrics::SetEnabled(true);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  ringo::bench::MaybeExportTrace();
  return 0;
}
