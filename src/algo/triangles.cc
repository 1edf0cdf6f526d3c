#include "algo/triangles.h"

#include <algorithm>
#include <span>

#include "algo/algo_view.h"
#include "algo/node_index.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace ringo {

namespace {

// Degree-ordered forward adjacency: node i keeps only neighbors j with
// (deg(j), j) > (deg(i), i), as ascending dense indices. Every triangle
// then has exactly one vertex from which both others are "forward".
// Self-loops are dropped (a self-loop cannot be part of a triangle); the
// ordering key counts them, which only affects which vertex owns a
// triangle, never the count. The view's neighbor spans are already
// ascending dense indices, so the filtered copy needs no sort.
std::vector<std::vector<int64_t>> ForwardAdjacency(const AlgoView& view) {
  const int64_t n = view.NumNodes();
  std::vector<int64_t> deg(n);
  ParallelFor(0, n, [&](int64_t i) { deg[i] = view.OutDegree(i); });
  auto order_less = [&](int64_t a, int64_t b) {
    return deg[a] != deg[b] ? deg[a] < deg[b] : a < b;
  };
  std::vector<std::vector<int64_t>> fwd(n);
  ParallelForDynamic(0, n, [&](int64_t i) {
    for (const int64_t j : view.Out(i)) {
      if (j != i && order_less(i, j)) fwd[i].push_back(j);
    }
  });
  return fwd;
}

int64_t SortedIntersectionSize(const std::vector<int64_t>& a,
                               const std::vector<int64_t>& b) {
  int64_t count = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

int64_t CountWithForward(const std::vector<std::vector<int64_t>>& fwd,
                         bool parallel) {
  const int64_t n = static_cast<int64_t>(fwd.size());
  // Integer sums are order-insensitive, but the blocked form shares the
  // TSan-visible fork/join fencing of ParallelFor instead of an opaque
  // `omp reduction` combine.
  return DeterministicBlockSum(
      0, n,
      [&](int64_t i) {
        int64_t t = 0;
        for (int64_t j : fwd[i]) {
          t += SortedIntersectionSize(fwd[i], fwd[j]);
        }
        return t;
      },
      parallel);
}

int64_t CountTriangles(const UndirectedGraph& g, bool parallel,
                       const char* span_name) {
  trace::Span span(span_name);
  span.AddAttr("nodes", g.NumNodes());
  span.AddAttr("edges", g.NumEdges());
  const int64_t t =
      CountWithForward(ForwardAdjacency(*AlgoView::Of(g)), parallel);
  span.AddAttr("triangles", t);
  return t;
}

// |(a \ {skip_a}) ∩ (b \ {skip_b})| over ascending spans — the CSR
// merge-intersection, skipping each endpoint's own self-loop entry inline
// instead of materializing cleaned copies.
int64_t IntersectSkip(std::span<const int64_t> a, int64_t skip_a,
                      std::span<const int64_t> b, int64_t skip_b) {
  int64_t count = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == skip_a) {
      ++i;
    } else if (b[j] == skip_b) {
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

// Per-node triangle participation over CSR spans.
std::vector<int64_t> NodeTriangleCounts(const AlgoView& view) {
  const int64_t n = view.NumNodes();
  std::vector<int64_t> tri(n, 0);
  ParallelForDynamic(0, n, [&](int64_t i) {
    int64_t twice = 0;
    // NbrSpan keeps i's run pinned (one decode on the compact layout) while
    // the inner Out(v) decodes into separate scratch buffers.
    const NbrSpan nbrs = view.Out(i);
    for (const int64_t v : nbrs) {
      if (v == i) continue;
      // |N(i) ∩ N(v)| counts each triangle through edge (i,v) once; summing
      // over v counts each of i's triangles twice.
      twice += IntersectSkip(nbrs, i, view.Out(v), v);
    }
    tri[i] = twice / 2;
  });
  return tri;
}

// Degree of dense node i excluding a self-loop (spans are ascending, so
// the self entry is found by binary search).
int64_t CleanDegree(const AlgoView& view, int64_t i) {
  const NbrSpan nbrs = view.Out(i);
  int64_t deg = static_cast<int64_t>(nbrs.size());
  if (std::binary_search(nbrs.begin(), nbrs.end(), i)) --deg;
  return deg;
}

}  // namespace

int64_t TriangleCount(const UndirectedGraph& g) {
  return CountTriangles(g, /*parallel=*/false, "Algo/TriangleCount");
}

int64_t ParallelTriangleCount(const UndirectedGraph& g) {
  return CountTriangles(g, /*parallel=*/true, "Algo/ParallelTriangleCount");
}

NodeInts NodeTriangles(const UndirectedGraph& g) {
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  return view->node_index().Zip(NodeTriangleCounts(*view));
}

NodeValues LocalClusteringCoefficients(const UndirectedGraph& g) {
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  const std::vector<int64_t> tri = NodeTriangleCounts(*view);
  const int64_t n = view->NumNodes();
  std::vector<double> cc(n);
  ParallelFor(0, n, [&](int64_t i) {
    const int64_t deg = CleanDegree(*view, i);
    const double pairs = static_cast<double>(deg) * (deg - 1) / 2.0;
    cc[i] = pairs > 0 ? static_cast<double>(tri[i]) / pairs : 0.0;
  });
  return view->node_index().Zip(cc);
}

double AverageClusteringCoefficient(const UndirectedGraph& g) {
  const NodeValues cc = LocalClusteringCoefficients(g);
  if (cc.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [id, c] : cc) sum += c;
  return sum / static_cast<double>(cc.size());
}

double GlobalClusteringCoefficient(const UndirectedGraph& g) {
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  const std::vector<int64_t> tri = NodeTriangleCounts(*view);
  const int64_t n = view->NumNodes();
  int64_t triangles3 = 0;  // 3 * #triangles = closed wedges.
  for (int64_t i = 0; i < n; ++i) triangles3 += tri[i];
  const int64_t wedges = DeterministicBlockSum(0, n, [&](int64_t i) {
    const int64_t deg = CleanDegree(*view, i);
    return deg * (deg - 1) / 2;
  });
  return wedges > 0 ? static_cast<double>(triangles3) /
                          static_cast<double>(wedges)
                    : 0.0;
}

}  // namespace ringo
