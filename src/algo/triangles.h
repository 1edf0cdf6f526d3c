// Undirected triangle counting and clustering coefficients (Table 3's
// second parallel benchmark). Every function here runs one kernel over a
// degree-ordered forward CSR built from the AlgoView snapshot: node i keeps
// the neighbours j with (deg(j), j) > (deg(i), i), self-loops dropped, in
// one offsets array and one neighbour array. Each triangle is then found
// exactly once, from its lowest-ordered vertex i: mark fwd(i) in a byte
// array, sum the marks over fwd(j) for every j in fwd(i), clear the marks.
// Counts are integer sums, so every result is exact and identical at any
// thread count and on every snapshot layout.
//
// Memory per call, freed on return: the forward CSR ((n + 1) + E int64s
// for n nodes and E non-loop edges, plus n transient int64 degrees while
// it is built) and one n-byte marker per team thread (n bytes for the
// sequential TriangleCount); the per-node variants add one int64 count per
// node.
#ifndef RINGO_ALGO_TRIANGLES_H_
#define RINGO_ALGO_TRIANGLES_H_

#include "algo/algo_defs.h"
#include "graph/undirected_graph.h"

namespace ringo {

// Total number of distinct triangles {u, v, w}. Self-loops are ignored.
// Runs the intersection on the calling thread (the forward-CSR build is
// still parallel).
int64_t TriangleCount(const UndirectedGraph& g);

// The same count with the intersection spread over the OpenMP team.
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
