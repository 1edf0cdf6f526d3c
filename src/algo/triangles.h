// Undirected triangle counting and clustering coefficients (Table 3's
// second parallel benchmark). The paper notes triangle counting is directly
// related to relational joins; here it is a merge-intersection of sorted
// adjacency vectors — exactly what the sorted-adjacency graph
// representation (§2.2) is good at. The intersections run over AlgoView
// CSR spans (self-loops skipped inline; they never close a triangle).
#ifndef RINGO_ALGO_TRIANGLES_H_
#define RINGO_ALGO_TRIANGLES_H_

#include "algo/algo_defs.h"
#include "graph/undirected_graph.h"

namespace ringo {

// Total number of distinct triangles {u, v, w}. Self-loops are ignored.
// Sequential reference implementation.
int64_t TriangleCount(const UndirectedGraph& g);

// OpenMP-parallel triangle count using degree-ordered forward adjacency
// (each triangle found exactly once, from its lowest-order vertex).
int64_t ParallelTriangleCount(const UndirectedGraph& g);

// Per-node participation: (id, #triangles through the node), ascending.
NodeInts NodeTriangles(const UndirectedGraph& g);

// Per-node local clustering coefficient: triangles(u) / C(deg(u), 2)
// (0 when deg < 2; self-loops excluded from the degree).
NodeValues LocalClusteringCoefficients(const UndirectedGraph& g);

// Average of the local clustering coefficients over all nodes.
double AverageClusteringCoefficient(const UndirectedGraph& g);

// Global clustering coefficient: 3 * triangles / open+closed wedges.
double GlobalClusteringCoefficient(const UndirectedGraph& g);

}  // namespace ringo

#endif  // RINGO_ALGO_TRIANGLES_H_
