// Shared test scaffolding: random graph builders and brute-force reference
// implementations that the property tests compare the real algorithms
// against.
#ifndef RINGO_TESTS_TEST_SUPPORT_H_
#define RINGO_TESTS_TEST_SUPPORT_H_

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "algo/algo_defs.h"
#include "graph/directed_graph.h"
#include "graph/undirected_graph.h"
#include "table/table.h"
#include "util/rng.h"

namespace ringo {
namespace testing {

// Random simple directed graph: n nodes (ids 0..n-1 all present) and
// exactly m distinct edges sampled uniformly (self_loops optional).
// Samples that duplicate an existing edge or form a disallowed self-loop
// are retried, so NumEdges() == m; m is clamped to the densest achievable
// graph. Deterministic for a given seed.
inline DirectedGraph RandomDirected(int64_t n, int64_t m, uint64_t seed,
                                    bool self_loops = false) {
  DirectedGraph g;
  for (NodeId i = 0; i < n; ++i) g.AddNode(i);
  Rng rng(seed);
  const int64_t max_m = n * (n - 1) + (self_loops ? n : 0);
  m = std::min(m, max_m);
  int64_t added = 0;
  while (added < m) {
    const NodeId u = rng.UniformInt(0, n - 1);
    const NodeId v = rng.UniformInt(0, n - 1);
    if (u == v && !self_loops) continue;
    if (g.AddEdge(u, v)) ++added;
  }
  return g;
}

// Random simple undirected graph with exactly m distinct edges (no
// self-loops); duplicates are retried as above.
inline UndirectedGraph RandomUndirected(int64_t n, int64_t m, uint64_t seed) {
  UndirectedGraph g;
  for (NodeId i = 0; i < n; ++i) g.AddNode(i);
  Rng rng(seed);
  m = std::min(m, n * (n - 1) / 2);
  int64_t added = 0;
  while (added < m) {
    const NodeId u = rng.UniformInt(0, n - 1);
    const NodeId v = rng.UniformInt(0, n - 1);
    if (u == v) continue;
    if (g.AddEdge(u, v)) ++added;
  }
  return g;
}

// All directed edges as a sorted set (for structural comparisons).
inline std::set<Edge> EdgeSet(const DirectedGraph& g) {
  std::set<Edge> edges;
  g.ForEachEdge([&](NodeId u, NodeId v) { edges.insert({u, v}); });
  return edges;
}

inline std::set<Edge> EdgeSet(const UndirectedGraph& g) {
  std::set<Edge> edges;
  g.ForEachEdge([&](NodeId u, NodeId v) { edges.insert({u, v}); });
  return edges;
}

// O(n^3) brute-force triangle count.
inline int64_t BruteTriangles(const UndirectedGraph& g) {
  const std::vector<NodeId> ids = g.SortedNodeIds();
  int64_t count = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      if (!g.HasEdge(ids[i], ids[j])) continue;
      for (size_t k = j + 1; k < ids.size(); ++k) {
        if (g.HasEdge(ids[i], ids[k]) && g.HasEdge(ids[j], ids[k])) ++count;
      }
    }
  }
  return count;
}

// Per-node triangle participation by brute force: for every node, the
// number of adjacent pairs among its distinct non-self neighbors. Returned
// as (id, count) ascending by id, like NodeTriangles.
inline NodeInts BruteNodeTriangles(const UndirectedGraph& g) {
  NodeInts out;
  for (NodeId u : g.SortedNodeIds()) {
    std::vector<NodeId> nbrs;
    for (NodeId v : g.GetNode(u)->nbrs) {
      if (v != u) nbrs.push_back(v);
    }
    int64_t t = 0;
    for (size_t a = 0; a < nbrs.size(); ++a) {
      for (size_t b = a + 1; b < nbrs.size(); ++b) {
        if (g.HasEdge(nbrs[a], nbrs[b])) ++t;
      }
    }
    out.emplace_back(u, t);
  }
  return out;
}

// Naive peeling reference: repeatedly delete nodes of degree < k. A
// self-loop counts 1 toward its node's degree.
inline UndirectedGraph NaiveKCore(UndirectedGraph g, int64_t k) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId id : g.SortedNodeIds()) {
      if (g.Degree(id) < k) {
        g.DelNode(id);
        changed = true;
      }
    }
  }
  return g;
}

// Core numbers from the definition: a node's core number is the largest k
// whose k-core (NaiveKCore) still contains it. Peels k = 1, 2, ... on the
// previous core until the graph is empty. (id, core) ascending by id.
inline NodeInts NaiveCoreNumbers(const UndirectedGraph& g) {
  std::map<NodeId, int64_t> core;
  for (NodeId id : g.SortedNodeIds()) core[id] = 0;
  UndirectedGraph cur = g;
  for (int64_t k = 1; cur.NumNodes() > 0; ++k) {
    cur = NaiveKCore(std::move(cur), k);
    for (NodeId id : cur.SortedNodeIds()) core[id] = k;
  }
  return NodeInts(core.begin(), core.end());
}

// Newman modularity straight from its definition,
//   Q = 1/2m · sum_{u,v} [A_uv - k_u·k_v / 2m] · δ(c_u, c_v),
// over every ordered node pair, with A_uu = 2 for a self-loop and
// k_u = sum_v A_uv. Labels may be any int64 values; a node missing from
// `labels` is its own singleton community.
inline double BruteModularity(const UndirectedGraph& g,
                              const NodeInts& labels) {
  const double m2 = 2.0 * static_cast<double>(g.NumEdges());
  if (m2 == 0) return 0.0;
  const std::vector<NodeId> ids = g.SortedNodeIds();
  std::map<NodeId, int64_t> label_of(labels.begin(), labels.end());
  auto same = [&](NodeId u, NodeId v) {
    if (u == v) return true;
    const auto lu = label_of.find(u);
    const auto lv = label_of.find(v);
    return lu != label_of.end() && lv != label_of.end() &&
           lu->second == lv->second;
  };
  auto a = [&](NodeId u, NodeId v) -> double {
    if (!g.HasEdge(u, v)) return 0.0;
    return u == v ? 2.0 : 1.0;
  };
  std::map<NodeId, double> k;
  for (NodeId u : ids) {
    for (NodeId v : g.GetNode(u)->nbrs) k[u] += a(u, v);
  }
  double q = 0.0;
  for (NodeId u : ids) {
    for (NodeId v : ids) {
      if (same(u, v)) q += a(u, v) - k[u] * k[v] / m2;
    }
  }
  return q / m2;
}

// Brute-force BFS distances via Floyd–Warshall-free repeated relaxation.
inline std::vector<std::vector<int64_t>> BruteAllPairs(
    const UndirectedGraph& g) {
  const std::vector<NodeId> ids = g.SortedNodeIds();
  const int64_t n = static_cast<int64_t>(ids.size());
  constexpr int64_t kInf = INT64_MAX / 4;
  std::vector<std::vector<int64_t>> d(n, std::vector<int64_t>(n, kInf));
  for (int64_t i = 0; i < n; ++i) d[i][i] = 0;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      if (i != j && g.HasEdge(ids[i], ids[j])) d[i][j] = 1;
    }
  }
  for (int64_t k = 0; k < n; ++k) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return d;
}

// Builds a small int-columned table from rows.
inline TablePtr MakeIntTable(const std::vector<std::string>& col_names,
                             const std::vector<std::vector<int64_t>>& rows) {
  Schema schema;
  for (const std::string& n : col_names) {
    schema.AddColumn(n, ColumnType::kInt).Abort("MakeIntTable");
  }
  TablePtr t = Table::Create(std::move(schema));
  for (const auto& r : rows) {
    std::vector<Value> vals(r.begin(), r.end());
    t->AppendRow(vals).Abort("MakeIntTable");
  }
  return t;
}

}  // namespace testing
}  // namespace ringo

#endif  // RINGO_TESTS_TEST_SUPPORT_H_
