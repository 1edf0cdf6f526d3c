#include "algo/hits.h"

#include <cmath>

#include "algo/algo_view.h"
#include "algo/node_index.h"
#include "util/cancel.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace ringo {

namespace {

// auth = Aᵀ·hub, hub = A·auth, L2-normalized each round, over the view's
// ascending dense-index spans. The norms and the L1 convergence delta use
// the blocked deterministic sum so results are bit-identical at every
// thread count.
HitsScores IterateHits(const AlgoView& view, const HitsConfig& config) {
  const int64_t n = view.NumNodes();
  std::vector<double> hub(n, 1.0), auth(n, 1.0);
  std::vector<double> hub_next(n), auth_next(n);
  auto normalize = [n](std::vector<double>& v) {
    double norm = DeterministicBlockSum(
        0, n, [&](int64_t i) { return v[i] * v[i]; });
    norm = std::sqrt(norm);
    if (norm > 0) {
      ParallelFor(0, n, [&](int64_t i) { v[i] /= norm; });
    }
  };
  normalize(hub);
  normalize(auth);

  for (int iter = 0; iter < config.max_iters; ++iter) {
    if (cancel::Checkpoint()) break;  // Deadline-bounded serving.
    // auth(v) = sum of hub(u) over in-neighbors u.
    ParallelForDynamic(0, n, [&](int64_t i) {
      double acc = 0.0;
      for (const int64_t u : view.In(i)) acc += hub[u];
      auth_next[i] = acc;
    });
    // hub(u) = sum of auth(v) over out-neighbors v.
    ParallelForDynamic(0, n, [&](int64_t i) {
      double acc = 0.0;
      for (const int64_t v : view.Out(i)) acc += auth_next[v];
      hub_next[i] = acc;
    });
    normalize(auth_next);
    normalize(hub_next);

    const double delta = DeterministicBlockSum(0, n, [&](int64_t i) {
      return std::abs(auth_next[i] - auth[i]) + std::abs(hub_next[i] - hub[i]);
    });
    auth.swap(auth_next);
    hub.swap(hub_next);
    if (config.tol > 0 && delta < config.tol) break;
  }
  const NodeIndex& ni = view.node_index();
  return HitsScores{ni.Zip(hub), ni.Zip(auth)};
}

}  // namespace

Result<HitsScores> Hits(const DirectedGraph& g, const HitsConfig& config) {
  if (config.max_iters < 1) {
    return Status::InvalidArgument("HITS needs at least one iteration");
  }
  if (g.NumNodes() == 0) return HitsScores{};
  trace::Span span("Algo/Hits");
  span.AddAttr("nodes", g.NumNodes());
  span.AddAttr("edges", g.NumEdges());

  return IterateHits(*AlgoView::Of(g), config);
}

}  // namespace ringo
