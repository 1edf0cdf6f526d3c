// k-core decomposition (Table 6's "3-core" row). The k-core of a graph is
// the maximal subgraph in which every node has degree >= k; the core number
// of a node is the largest k for which it is in the k-core.
//
// Level-synchronous parallel peeling over AlgoView CSR spans (core numbers
// are a graph property, so the output is identical at every thread count).
#ifndef RINGO_ALGO_KCORE_H_
#define RINGO_ALGO_KCORE_H_

#include "algo/algo_defs.h"
#include "graph/undirected_graph.h"

namespace ringo {

// Core number of every node, (id, core), ascending by id. Self-loops
// contribute 1 to the degree.
NodeInts CoreNumbers(const UndirectedGraph& g);

// The k-core subgraph: iteratively peels nodes of degree < k. Equivalent to
// keeping nodes with core number >= k (plus their mutual edges).
UndirectedGraph KCoreSubgraph(const UndirectedGraph& g, int64_t k);

// Largest k with a non-empty k-core.
int64_t Degeneracy(const UndirectedGraph& g);

}  // namespace ringo

#endif  // RINGO_ALGO_KCORE_H_
