#include "algo/connectivity.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "algo/algo_view.h"
#include "algo/node_index.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace ringo {

namespace {

// Lock-free union-find over dense indices. Linking always hangs the
// larger root under the smaller one with a CAS, so every parent pointer
// only ever decreases: no cycles, and each component's root ends as its
// smallest index whatever order the threads link in. Find halves paths
// with a CAS too; a lost race there only skips one shortcut.
class ConcurrentUnionFind {
 public:
  explicit ConcurrentUnionFind(int64_t n) : parent_(n) {
    ParallelFor(0, n, [&](int64_t i) { parent_[i] = i; });
  }

  int64_t Find(int64_t x) {
    while (true) {
      const int64_t p = Load(x);
      if (p == x) return x;
      const int64_t gp = Load(p);
      if (gp == p) return p;
      int64_t expected = p;
      std::atomic_ref<int64_t>(parent_[x]).compare_exchange_weak(
          expected, gp, std::memory_order_relaxed);
      x = gp;
    }
  }

  void Union(int64_t a, int64_t b) {
    while (true) {
      a = Find(a);
      b = Find(b);
      if (a == b) return;
      if (a < b) std::swap(a, b);
      int64_t expected = a;  // Still a root?
      if (std::atomic_ref<int64_t>(parent_[a]).compare_exchange_strong(
              expected, b, std::memory_order_relaxed)) {
        return;
      }
    }
  }

 private:
  int64_t Load(int64_t x) {
    return std::atomic_ref<int64_t>(parent_[x]).load(
        std::memory_order_relaxed);
  }

  std::vector<int64_t> parent_;
};

// Weak components of the view's arcs (edge direction ignored), as each
// index's root, by neighbour sampling in the style of Afforest (Sutton et
// al., IPDPS 2018):
//   1. every node links to its first out-neighbour;
//   2. the most common root of an evenly spaced sample names the likely
//      giant component;
//   3. every node not yet in it links all of its arcs, in both directions.
// Skipping a node of the giant component loses no edge: an edge to a node
// outside it is linked from that node's side, and an edge inside it joins
// nodes that are already joined. The roots are each component's smallest
// index, but the labels do not depend on that: Relabel numbers them by
// first occurrence in ascending index order.
std::vector<int64_t> ComponentRoots(const AlgoView& view) {
  const int64_t n = view.NumNodes();
  ConcurrentUnionFind uf(n);
  ParallelForDynamic(0, n, [&](int64_t u) {
    const NbrSpan out = view.Out(u);
    if (!out.empty()) uf.Union(u, out[0]);
  });
  std::vector<int64_t> sample;
  for (int64_t i = 0; i < n; i += std::max<int64_t>(1, n / 1024)) {
    sample.push_back(uf.Find(i));
  }
  std::sort(sample.begin(), sample.end());
  int64_t giant = -1;
  int64_t giant_hits = 0;
  for (size_t a = 0, b = 0; a < sample.size(); a = b) {
    while (b < sample.size() && sample[b] == sample[a]) ++b;
    if (static_cast<int64_t>(b - a) > giant_hits) {
      giant_hits = static_cast<int64_t>(b - a);
      giant = sample[a];
    }
  }
  ParallelForDynamic(0, n, [&](int64_t u) {
    if (uf.Find(u) == giant) return;
    view.ForEachOut(u, [&](int64_t v) { uf.Union(u, v); });
    if (view.directed()) {
      view.ForEachIn(u, [&](int64_t v) { uf.Union(u, v); });
    }
  });
  std::vector<int64_t> raw(n);
  ParallelFor(0, n, [&](int64_t i) { raw[i] = uf.Find(i); });
  return raw;
}

// Renumbers per-index labels densely by first occurrence (index order =
// ascending node id, so component 0 holds the smallest id). Raw labels are
// dense indices or component numbers, so both lie in [0, n).
ComponentLabels Relabel(const NodeIndex& ni, const std::vector<int64_t>& raw) {
  const int64_t n = ni.size();
  std::vector<int64_t> dense(n, -1);
  std::vector<int64_t> labels(n);
  int64_t next = 0;
  for (int64_t i = 0; i < n; ++i) {
    int64_t& d = dense[raw[i]];
    if (d < 0) d = next++;
    labels[i] = d;
  }
  return ni.Zip(labels);
}

}  // namespace

ComponentLabels WeaklyConnectedComponents(const DirectedGraph& g) {
  trace::Span span("Algo/WeaklyConnectedComponents");
  span.AddAttr("nodes", g.NumNodes());
  span.AddAttr("edges", g.NumEdges());
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  return Relabel(view->node_index(), ComponentRoots(*view));
}

ComponentLabels ConnectedComponents(const UndirectedGraph& g) {
  trace::Span span("Algo/ConnectedComponents");
  span.AddAttr("nodes", g.NumNodes());
  span.AddAttr("edges", g.NumEdges());
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  return Relabel(view->node_index(), ComponentRoots(*view));
}

ComponentLabels StronglyConnectedComponents(const DirectedGraph& g) {
  trace::Span span("Algo/StronglyConnectedComponents");
  span.AddAttr("nodes", g.NumNodes());
  span.AddAttr("edges", g.NumEdges());
  const std::shared_ptr<const AlgoView> view = AlgoView::Of(g);
  const int64_t n = view->NumNodes();
  // Tarjan walks the view's out-arc spans directly (dense indices).
  const AlgoView& out = *view;

  // Iterative Tarjan. An explicit frame stack replaces recursion so graphs
  // with multi-million-node chains don't blow the C++ stack.
  constexpr int64_t kUnvisited = -1;
  std::vector<int64_t> low(n, kUnvisited), disc(n, kUnvisited);
  std::vector<int64_t> scc(n, kUnvisited);
  std::vector<uint8_t> on_stack(n, 0);
  std::vector<int64_t> stack;           // Tarjan's node stack.
  std::vector<std::pair<int64_t, size_t>> frames;  // (node, next-child).
  int64_t timer = 0, components = 0;
  // Adjacency of the frame currently on top, refreshed when the top
  // changes: on a compressed base this decodes each frame's run once per
  // top-change instead of once per child access.
  NbrSpan run;
  int64_t run_node = -1;

  for (int64_t root = 0; root < n; ++root) {
    if (disc[root] != kUnvisited) continue;
    frames.emplace_back(root, 0);
    while (!frames.empty()) {
      auto& [u, child] = frames.back();
      if (u != run_node) {
        run = out.Out(u);
        run_node = u;
      }
      if (child == 0) {
        disc[u] = low[u] = timer++;
        stack.push_back(u);
        on_stack[u] = 1;
      }
      if (child < run.size()) {
        const int64_t v = run[child++];
        if (disc[v] == kUnvisited) {
          frames.emplace_back(v, 0);
        } else if (on_stack[v]) {
          low[u] = std::min(low[u], disc[v]);
        }
      } else {
        if (low[u] == disc[u]) {
          while (true) {
            const int64_t w = stack.back();
            stack.pop_back();
            on_stack[w] = 0;
            scc[w] = components;
            if (w == u) break;
          }
          ++components;
        }
        const int64_t done = u;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().first] =
              std::min(low[frames.back().first], low[done]);
        }
      }
    }
  }
  return Relabel(view->node_index(), scc);
}

std::vector<int64_t> ComponentSizes(const ComponentLabels& labels) {
  int64_t max_label = -1;
  for (const auto& [id, c] : labels) max_label = std::max(max_label, c);
  std::vector<int64_t> sizes(max_label + 1, 0);
  for (const auto& [id, c] : labels) ++sizes[c];
  return sizes;
}

std::vector<NodeId> LargestComponent(const ComponentLabels& labels) {
  const std::vector<int64_t> sizes = ComponentSizes(labels);
  if (sizes.empty()) return {};
  const int64_t best =
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin();
  std::vector<NodeId> out;
  out.reserve(sizes[best]);
  for (const auto& [id, c] : labels) {
    if (c == best) out.push_back(id);
  }
  return out;
}

bool IsWeaklyConnected(const DirectedGraph& g) {
  if (g.NumNodes() == 0) return true;
  const std::vector<int64_t> sizes =
      ComponentSizes(WeaklyConnectedComponents(g));
  return sizes.size() == 1;
}

bool IsConnected(const UndirectedGraph& g) {
  if (g.NumNodes() == 0) return true;
  return ComponentSizes(ConnectedComponents(g)).size() == 1;
}

}  // namespace ringo
