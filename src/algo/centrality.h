// Node centrality measures — the "various other node centrality measures"
// the §4.1 demo offers alongside PageRank and HITS: degree, closeness,
// harmonic, betweenness (Brandes), and eigenvector centrality.
//
// The BFS-per-node kernels traverse AlgoView CSR spans; self-loops never
// change a result. Betweenness accumulates per fixed source block (not per
// thread), so every measure is bit-identical at any thread count.
#ifndef RINGO_ALGO_CENTRALITY_H_
#define RINGO_ALGO_CENTRALITY_H_

#include "algo/algo_defs.h"
#include "graph/directed_graph.h"
#include "graph/undirected_graph.h"
#include "util/result.h"

namespace ringo {

// Degree centrality: degree / (n - 1). For directed graphs, uses
// in+out degree.
NodeValues DegreeCentrality(const UndirectedGraph& g);
NodeValues InDegreeCentrality(const DirectedGraph& g);
NodeValues OutDegreeCentrality(const DirectedGraph& g);

// Closeness centrality of node u: (r-1) / sum-of-distances, scaled by
// (r-1)/(n-1) for disconnected graphs (Wasserman-Faust), where r is the
// size of u's reachable set. Exact: one BFS per node (parallel across
// nodes).
NodeValues ClosenessCentrality(const UndirectedGraph& g);

// Sampled approximation: BFS from `samples` pivots chosen deterministically
// from `seed`; estimates sum-of-distances by extrapolation. `samples` is
// clamped to [1, n]: 0 or a negative count samples one pivot, and a count
// above n samples every node (reproducing ClosenessCentrality exactly).
NodeValues ApproxClosenessCentrality(const UndirectedGraph& g,
                                     int64_t samples, uint64_t seed = 1);

// Harmonic centrality: sum over v != u of 1/dist(u, v), normalized by n-1.
NodeValues HarmonicCentrality(const UndirectedGraph& g);

// Betweenness centrality via Brandes' algorithm (exact; one augmented BFS
// per node, parallel across source nodes). Undirected pair counting: each
// pair contributes once.
NodeValues BetweennessCentrality(const UndirectedGraph& g);

// Brandes with sampled sources — the standard approximation for large
// graphs; values are scaled by n/samples. `samples` is clamped to [1, n],
// as in ApproxClosenessCentrality, so the scale is always finite.
NodeValues ApproxBetweennessCentrality(const UndirectedGraph& g,
                                       int64_t samples, uint64_t seed = 1);

// Directed variants: distances follow out-edges; betweenness counts each
// ordered pair once (no halving).
NodeValues ClosenessCentralityDirected(const DirectedGraph& g);
NodeValues BetweennessCentralityDirected(const DirectedGraph& g);

// Eigenvector centrality by power iteration on the undirected adjacency
// matrix; L2-normalized. Fails if the iteration collapses (empty graph).
Result<NodeValues> EigenvectorCentrality(const UndirectedGraph& g,
                                         int max_iters = 100,
                                         double tol = 1e-10);

// Eccentricity of every node (max BFS distance within its component).
NodeInts Eccentricities(const UndirectedGraph& g);

}  // namespace ringo

#endif  // RINGO_ALGO_CENTRALITY_H_
