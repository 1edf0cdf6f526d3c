#include "algo/triangles.h"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "algo/algo_view.h"
#include "algo/node_index.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace ringo {

namespace {

// Degree-ordered forward CSR: node i keeps only the neighbours j with
// (deg(j), j) > (deg(i), i), so every triangle has exactly one vertex from
// which both others are forward. Self-loops are dropped (a self-loop
// cannot close a triangle); the ordering key counts them, which only
// changes which vertex owns a triangle, never the count. One offsets array
// and one neighbour array, filled count → prefix → fill: no per-node
// allocation. Each run is ascending (the view's runs are), though the
// marker intersection below does not rely on it.
struct ForwardCsr {
  std::vector<int64_t> offsets;  // n + 1 entries.
  std::vector<int64_t> nbrs;     // Dense indices.

  std::span<const int64_t> Of(int64_t i) const {
    return {nbrs.data() + offsets[i],
            static_cast<size_t>(offsets[i + 1] - offsets[i])};
  }
};

ForwardCsr BuildForward(const AlgoView& view) {
  const int64_t n = view.NumNodes();
  std::vector<int64_t> deg(n);
  ParallelFor(0, n, [&](int64_t i) { deg[i] = view.OutDegree(i); });
  auto forward = [&](int64_t i, int64_t j) {
    return deg[i] != deg[j] ? deg[i] < deg[j] : i < j;
  };
  ForwardCsr fwd;
  fwd.offsets.assign(n + 1, 0);
  ParallelForDynamic(0, n, [&](int64_t i) {
    int64_t c = 0;
    view.ForEachOut(i, [&](int64_t j) { c += forward(i, j); });
    fwd.offsets[i] = c;
  });
  fwd.nbrs.resize(ExclusivePrefixSum(fwd.offsets));
  ParallelForDynamic(0, n, [&](int64_t i) {
    int64_t* out = fwd.nbrs.data() + fwd.offsets[i];
    view.ForEachOut(i, [&](int64_t j) {
      if (forward(i, j)) *out++ = j;
    });
  });
  return fwd;
}

// The intersection scratch of one call: an n-byte marker per team thread,
// all zero between sources. Owned by the call and freed on return, so no
// memory outlives it and concurrent calls never share markers.
class Markers {
 public:
  Markers(int64_t n, bool parallel)
      : n_(n),
        slots_(parallel && NumThreads() > 1 ? omp_get_max_threads() : 1),
        level_(omp_get_level()),
        bytes_(static_cast<size_t>(n_ * slots_), 0) {}

  // The marker of the calling thread: its team number inside a region the
  // call opened, slot 0 when the loop ran inline on the caller (which may
  // itself be a thread of an enclosing team).
  uint8_t* Mine() {
    const int t = omp_get_level() > level_ ? omp_get_thread_num() : 0;
    RINGO_CHECK_LT(t, slots_);
    return bytes_.data() + t * n_;
  }

  int64_t bytes() const { return static_cast<int64_t>(bytes_.size()); }

 private:
  int64_t n_;
  int slots_;
  int level_;  // Nesting level of the calling thread.
  std::vector<uint8_t> bytes_;
};

// Triangles owned by source i: marks fwd(i), sums the marks over fwd(j)
// for every j in fwd(i), then clears the marks again.
int64_t CountFrom(const ForwardCsr& fwd, int64_t i, uint8_t* mark) {
  const std::span<const int64_t> fi = fwd.Of(i);
  for (const int64_t j : fi) mark[j] = 1;
  int64_t t = 0;
  for (const int64_t j : fi) {
    for (const int64_t k : fwd.Of(j)) t += mark[k];
  }
  for (const int64_t j : fi) mark[j] = 0;
  return t;
}

int64_t CountTriangles(const UndirectedGraph& g, bool parallel,
                       const char* span_name) {
  trace::Span span(span_name);
  span.AddAttr("nodes", g.NumNodes());
  span.AddAttr("edges", g.NumEdges());
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  ForwardCsr fwd;
  {
    trace::Span forward_span("Algo/Triangles/forward");
    fwd = BuildForward(*view);
    forward_span.AddAttr("fwd_arcs", static_cast<int64_t>(fwd.nbrs.size()));
  }
  trace::Span intersect_span("Algo/Triangles/intersect");
  Markers markers(view->NumNodes(), parallel);
  intersect_span.AddAttr("scratch_bytes", markers.bytes());
  // Integer sums are order-insensitive, but the blocked form shares the
  // TSan-visible fork/join fencing of ParallelFor instead of an opaque
  // `omp reduction` combine.
  const int64_t t = DeterministicBlockSum(
      0, view->NumNodes(),
      [&](int64_t i) { return CountFrom(fwd, i, markers.Mine()); }, parallel);
  span.AddAttr("triangles", t);
  return t;
}

void AtomicAdd(int64_t& x, int64_t v) {
  std::atomic_ref<int64_t>(x).fetch_add(v, std::memory_order_relaxed);
}

// Per-node triangle participation over the forward CSR: each triangle
// {i, j, k} is found once, from its owner i, and credits all three
// vertices. Credits land from any thread, hence the relaxed atomic adds;
// integer sums do not depend on their order, so the counts are exact at
// every thread count.
std::vector<int64_t> NodeTriangleCounts(const AlgoView& view) {
  const ForwardCsr fwd = BuildForward(view);
  const int64_t n = view.NumNodes();
  std::vector<int64_t> tri(n, 0);
  Markers markers(n, /*parallel=*/true);
  ParallelForDynamic(0, n, [&](int64_t i) {
    uint8_t* mark = markers.Mine();
    const std::span<const int64_t> fi = fwd.Of(i);
    for (const int64_t j : fi) mark[j] = 1;
    int64_t ti = 0;
    for (const int64_t j : fi) {
      int64_t tj = 0;
      for (const int64_t k : fwd.Of(j)) {
        if (mark[k]) {
          ++tj;
          AtomicAdd(tri[k], 1);
        }
      }
      if (tj > 0) AtomicAdd(tri[j], tj);
      ti += tj;
    }
    for (const int64_t j : fi) mark[j] = 0;
    if (ti > 0) AtomicAdd(tri[i], ti);
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
