// Approximate Neighborhood Function (ANF, Palmer et al. 2002): estimates
// N(h) — how many (ordered) node pairs are within h hops — using
// Flajolet–Martin sketches, in O(k · h · m) time instead of one BFS per
// node. This is the standard tool for diameter statistics on graphs where
// exact all-pairs BFS is infeasible; compare algo/diameter.h for the
// sampling-based estimator. Sketch propagation ORs over AlgoView CSR
// spans; for a fixed seed the estimates are bit-identical across thread
// counts.
#ifndef RINGO_ALGO_ANF_H_
#define RINGO_ALGO_ANF_H_

#include <cstdint>
#include <vector>

#include "graph/undirected_graph.h"
#include "util/result.h"

namespace ringo {

struct AnfResult {
  // neighborhood[h] ≈ Σ_u |{v : dist(u, v) <= h}| for h = 0..max_h
  // (self-pairs included, so neighborhood[0] ≈ n).
  std::vector<double> neighborhood;
  // Smallest (interpolated) h with neighborhood[h] >= 0.9 * plateau.
  double effective_diameter = 0;
};

// `k` = number of Flajolet–Martin sketch runs; relative error shrinks like
// 1/sqrt(k). Deterministic per seed.
Result<AnfResult> ApproxNeighborhoodFunction(const UndirectedGraph& g,
                                             int64_t max_h, int64_t k = 64,
                                             uint64_t seed = 1);

}  // namespace ringo

#endif  // RINGO_ALGO_ANF_H_
