#include "algo/kcore.h"

#include <algorithm>
#include <atomic>

#include "algo/algo_view.h"
#include "algo/node_index.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace ringo {

namespace {

// Level-synchronous parallel peeling (ParK-style). For each k we
// claim every live node whose residual degree dropped to <= k (CAS on the
// claim flag keeps the claim unique), assign it core k, and decrement its
// neighbors' residual degrees with fetch_sub. Core numbers are a property
// of the graph, so the output is identical at every thread count even
// though frontier order is not. A self-loop contributes 1 to the degree and
// is never decremented (peeling u skips every already-claimed neighbor,
// u included).
std::vector<int64_t> ParallelCoreNumbers(const AlgoView& view) {
  const int64_t n = view.NumNodes();
  std::vector<std::atomic<int64_t>> deg(n);
  std::vector<std::atomic<bool>> claimed(n);
  ParallelFor(0, n, [&](int64_t i) {
    deg[i].store(view.OutDegree(i), std::memory_order_relaxed);
    claimed[i].store(false, std::memory_order_relaxed);
  });
  auto try_claim = [&](int64_t v) {
    bool expected = false;
    return claimed[v].compare_exchange_strong(expected, true,
                                              std::memory_order_relaxed);
  };

  std::vector<int64_t> core(n, 0);
  // Frontier storage: parallel producers append through an atomic tail.
  std::vector<int64_t> frontier(n), next(n);
  // Parallel regions are worth spawning only above these sizes; below
  // them the calling thread runs the same claim/decrement protocol
  // (same cutoff idea as the BFS engine's tiny levels), so the result
  // is unaffected. The seed scan repeats once per core level, which
  // multiplies its spawn overhead on small graphs.
  constexpr int64_t kSeqScanCutoff = 1 << 15;
  constexpr int64_t kSeqFrontierCutoff = 1 << 12;
  int64_t frontier_size = 0;
  int64_t removed = 0;
  int64_t k = 0;
  while (removed < n) {
    // Seed the level: every live node whose residual degree is already <= k.
    std::atomic<int64_t> tail{0};
    const auto seed = [&](int64_t i) {
      if (deg[i].load(std::memory_order_relaxed) <= k &&
          !claimed[i].load(std::memory_order_relaxed) && try_claim(i)) {
        frontier[tail.fetch_add(1, std::memory_order_relaxed)] = i;
      }
    };
    if (n < kSeqScanCutoff) {
      for (int64_t i = 0; i < n; ++i) seed(i);
    } else {
      ParallelFor(0, n, seed);
    }
    frontier_size = tail.load(std::memory_order_relaxed);

    // Drain the level: peeling a node can drag neighbors down into it.
    // Long peel chains produce many tiny sub-rounds, so small frontiers
    // run on the calling thread.
    while (frontier_size > 0) {
      removed += frontier_size;
      std::atomic<int64_t> next_tail{0};
      const auto peel = [&](int64_t f) {
        const int64_t u = frontier[f];
        core[u] = k;
        for (const int64_t v : view.Out(u)) {
          if (claimed[v].load(std::memory_order_relaxed)) continue;
          const int64_t now =
              deg[v].fetch_sub(1, std::memory_order_relaxed) - 1;
          if (now <= k && try_claim(v)) {
            next[next_tail.fetch_add(1, std::memory_order_relaxed)] = v;
          }
        }
      };
      if (frontier_size < kSeqFrontierCutoff) {
        for (int64_t f = 0; f < frontier_size; ++f) peel(f);
      } else {
        ParallelForDynamic(0, frontier_size, peel);
      }
      frontier.swap(next);
      frontier_size = next_tail.load(std::memory_order_relaxed);
    }
    ++k;
  }
  return core;
}

}  // namespace

NodeInts CoreNumbers(const UndirectedGraph& g) {
  const int64_t n = g.NumNodes();
  if (n == 0) return {};
  trace::Span span("Algo/CoreNumbers");
  span.AddAttr("nodes", n);
  span.AddAttr("edges", g.NumEdges());
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  return view->node_index().Zip(ParallelCoreNumbers(*view));
}

UndirectedGraph KCoreSubgraph(const UndirectedGraph& g, int64_t k) {
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  const std::vector<int64_t> core = ParallelCoreNumbers(*view);
  const int64_t n = view->NumNodes();
  UndirectedGraph out;
  for (int64_t i = 0; i < n; ++i) {
    if (core[i] >= k) out.AddNode(view->IdOf(i));
  }
  // Undirected spans list each edge in both endpoints' rows and a
  // self-loop once, so emitting j >= i yields each kept edge exactly once.
  for (int64_t i = 0; i < n; ++i) {
    if (core[i] < k) continue;
    for (const int64_t j : view->Out(i)) {
      if (j >= i && core[j] >= k) out.AddEdge(view->IdOf(i), view->IdOf(j));
    }
  }
  return out;
}

int64_t Degeneracy(const UndirectedGraph& g) {
  int64_t best = 0;
  for (const auto& [id, c] : CoreNumbers(g)) best = std::max(best, c);
  return best;
}

}  // namespace ringo
