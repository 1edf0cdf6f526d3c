#include "algo/community.h"

#include <algorithm>
#include <numeric>

#include "algo/algo_view.h"
#include "algo/node_index.h"
#include "util/rng.h"
#include "util/trace.h"

namespace ringo {

namespace {

// Asynchronous label-propagation rounds over the view's ascending
// dense-index spans; self-loop entries are skipped, so a self-loop never
// changes the labels. The visit shuffle, the dense-scratch frequency count,
// and the (count desc, label asc) argmax depend only on the adjacency
// content, so the labels are a function of the graph and the seed.
std::vector<int64_t> LabelPropKernel(const AlgoView& view, int max_rounds,
                                     uint64_t seed) {
  const int64_t n = view.NumNodes();
  std::vector<int64_t> label(n);
  std::iota(label.begin(), label.end(), 0);
  std::vector<int64_t> visit(n);
  std::iota(visit.begin(), visit.end(), 0);
  Rng rng(seed);

  // Dense frequency scratch: count[l] for labels seen this node, with a
  // touched list for O(deg) reset (labels are always in [0, n)).
  std::vector<int64_t> count(n, 0);
  std::vector<int64_t> touched;
  for (int round = 0; round < max_rounds; ++round) {
    // Shuffle the visiting order (asynchronous updates).
    for (int64_t i = n - 1; i > 0; --i) {
      std::swap(visit[i], visit[rng.UniformInt(0, i)]);
    }
    bool changed = false;
    for (int64_t u : visit) {
      touched.clear();
      for (int64_t v : view.Out(u)) {
        if (v == u) continue;
        const int64_t l = label[v];
        if (count[l]++ == 0) touched.push_back(l);
      }
      if (touched.empty()) continue;  // Isolated (or self-loop-only) node.
      int64_t best_label = label[u], best_count = 0;
      for (int64_t l : touched) {
        if (count[l] > best_count ||
            (count[l] == best_count && l < best_label)) {
          best_count = count[l];
          best_label = l;
        }
      }
      for (int64_t l : touched) count[l] = 0;
      if (best_label != label[u]) {
        label[u] = best_label;
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Renumber labels densely by first occurrence in index order.
  FlatHashMap<int64_t, int64_t> dense;
  std::vector<int64_t> out(n);
  for (int64_t i = 0; i < n; ++i) {
    out[i] = *dense.Insert(label[i], dense.size()).first;
  }
  return out;
}

}  // namespace

NodeInts LabelPropagation(const UndirectedGraph& g, int max_rounds,
                          uint64_t seed) {
  trace::Span span("Algo/LabelPropagation");
  span.AddAttr("nodes", g.NumNodes());
  span.AddAttr("edges", g.NumEdges());
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  return view->node_index().Zip(LabelPropKernel(*view, max_rounds, seed));
}

double Modularity(const UndirectedGraph& g, const NodeInts& labels) {
  const double m2 = 2.0 * static_cast<double>(g.NumEdges());
  if (m2 == 0) return 0.0;

  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  const int64_t n = view->NumNodes();
  // Community slots: labels in order of first occurrence (the identity for
  // the dense labels LabelPropagation and Louvain return), then one
  // singleton slot per graph node that `labels` does not mention. Any
  // int64 label value is accepted, and the slot count is bounded by
  // labels.size() + n however large or sparse the label values are.
  FlatHashMap<int64_t, int64_t> slot_of;
  std::vector<int64_t> lab(n, -1);
  for (const auto& [id, l] : labels) {
    const int64_t slot = *slot_of.Insert(l, slot_of.size()).first;
    const int64_t i = view->IndexOf(id);
    if (i >= 0) lab[i] = slot;
  }
  int64_t nslots = slot_of.size();
  for (int64_t i = 0; i < n; ++i) {
    if (lab[i] < 0) lab[i] = nslots++;
  }
  // Q = sum_c [ in_c / 2m - (deg_c / 2m)^2 ].
  std::vector<double> internal2(nslots, 0.0);  // 2 * internal edges.
  std::vector<double> deg_sum(nslots, 0.0);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t lu = lab[i];
    for (const int64_t v : view->Out(i)) {
      // A self-loop contributes 2 to its endpoint's degree and 2 to the
      // community-internal sum (A_uu = 2 in the undirected adjacency
      // convention); the span lists it once.
      const double w = v == i ? 2.0 : 1.0;
      deg_sum[lu] += w;
      if (lab[v] == lu) internal2[lu] += w;
    }
  }
  double q = 0.0;
  for (int64_t c = 0; c < nslots; ++c) {
    q += internal2[c] / m2 - (deg_sum[c] / m2) * (deg_sum[c] / m2);
  }
  return q;
}

}  // namespace ringo
