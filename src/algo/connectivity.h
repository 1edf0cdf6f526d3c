// Connected-component algorithms: weakly connected components (parallel
// lock-free union-find) and strongly connected components (iterative
// Tarjan — Table 6's "SCC" row), plus largest-component extraction.
#ifndef RINGO_ALGO_CONNECTIVITY_H_
#define RINGO_ALGO_CONNECTIVITY_H_

#include "algo/algo_defs.h"
#include "graph/directed_graph.h"
#include "graph/undirected_graph.h"

namespace ringo {

// A component labeling: (node id, component id), ascending by node id.
// Component ids are dense, 0-based, and numbered so that component 0
// contains the smallest node id, etc. (deterministic).
using ComponentLabels = NodeInts;

// Weakly connected components (edge direction ignored).
ComponentLabels WeaklyConnectedComponents(const DirectedGraph& g);
ComponentLabels ConnectedComponents(const UndirectedGraph& g);

// Strongly connected components (Tarjan, iterative — no recursion-depth
// limit on deep graphs).
ComponentLabels StronglyConnectedComponents(const DirectedGraph& g);

// Sizes of components given labels: sizes[c] = #nodes in component c.
std::vector<int64_t> ComponentSizes(const ComponentLabels& labels);

// Node ids of the largest component (ties broken by smaller component id).
std::vector<NodeId> LargestComponent(const ComponentLabels& labels);

// True if every node is weakly reachable from every other (empty graphs
// count as connected).
bool IsWeaklyConnected(const DirectedGraph& g);
bool IsConnected(const UndirectedGraph& g);

}  // namespace ringo

#endif  // RINGO_ALGO_CONNECTIVITY_H_
