// Shared test scaffolding: random graph builders and brute-force reference
// implementations that the property tests compare the real algorithms
// against, plus the comparison-sort references for the sort-driven table
// operators.
#ifndef RINGO_TESTS_TEST_SUPPORT_H_
#define RINGO_TESTS_TEST_SUPPORT_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "algo/algo_defs.h"
#include "algo/algo_view.h"
#include "graph/directed_graph.h"
#include "graph/undirected_graph.h"
#include "table/row_compare.h"
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

// ------------------------------------------------ triangle oracles
//
// Merge-intersection triangle kernels that share no code with the
// library's forward-CSR marker kernel. Both read an uncached
// AlgoView::Build of the graph, so they never see a cached or
// delta-patched snapshot.

// |a ∩ b| of two ascending vectors by a two-pointer merge.
inline int64_t SortedIntersectionSize(const std::vector<int64_t>& a,
                                      const std::vector<int64_t>& b) {
  int64_t count = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

// Total triangles from degree-ordered forward lists held as one vector per
// node: node i keeps the non-self neighbours j with (deg(j), j) >
// (deg(i), i), and each triangle is counted once, from its lowest vertex.
inline int64_t RefForwardTriangles(const UndirectedGraph& g) {
  const std::shared_ptr<const AlgoView> view = AlgoView::Build(g);
  const int64_t n = view->NumNodes();
  std::vector<int64_t> deg(n);
  for (int64_t i = 0; i < n; ++i) deg[i] = view->OutDegree(i);
  std::vector<std::vector<int64_t>> fwd(n);
  for (int64_t i = 0; i < n; ++i) {
    for (const int64_t j : view->Out(i)) {
      const bool forward = deg[i] != deg[j] ? deg[i] < deg[j] : i < j;
      if (j != i && forward) fwd[i].push_back(j);
    }
  }
  int64_t count = 0;
  for (int64_t i = 0; i < n; ++i) {
    for (const int64_t j : fwd[i]) {
      count += SortedIntersectionSize(fwd[i], fwd[j]);
    }
  }
  return count;
}

// |(a \ {skip_a}) ∩ (b \ {skip_b})| over ascending spans, skipping each
// endpoint's own self-loop entry inline.
inline int64_t IntersectSkip(std::span<const int64_t> a, int64_t skip_a,
                             std::span<const int64_t> b, int64_t skip_b) {
  int64_t count = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == skip_a) {
      ++i;
    } else if (b[j] == skip_b) {
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

// Per-node triangle participation by merge-intersecting full adjacency:
// |N(i) ∩ N(v)| over i's neighbours v counts each of i's triangles twice.
// (id, count) ascending by id, like NodeTriangles.
inline NodeInts RefNodeTriangleCounts(const UndirectedGraph& g) {
  const std::shared_ptr<const AlgoView> view = AlgoView::Build(g);
  const int64_t n = view->NumNodes();
  std::vector<int64_t> tri(n, 0);
  for (int64_t i = 0; i < n; ++i) {
    const NbrSpan nbrs = view->Out(i);
    int64_t twice = 0;
    for (const int64_t v : nbrs) {
      if (v != i) twice += IntersectSkip(nbrs, i, view->Out(v), v);
    }
    tri[i] = twice / 2;
  }
  return view->node_index().Zip(tri);
}

// Weak component labels by a depth-first walk from each unlabeled id in
// ascending order, edge direction ignored: components are numbered by
// their smallest id, like WeaklyConnectedComponents / ConnectedComponents.
// (id, label) ascending by id.
template <typename Graph>
NodeInts RefWeakComponents(const Graph& g) {
  std::map<NodeId, std::vector<NodeId>> adj;
  for (const NodeId id : g.SortedNodeIds()) adj[id];
  for (const auto& [u, v] : EdgeSet(g)) {
    adj[u].push_back(v);
    adj[v].push_back(u);
  }
  std::map<NodeId, int64_t> label;
  int64_t next = 0;
  for (const auto& [root, unused] : adj) {
    if (!label.emplace(root, next).second) continue;
    std::vector<NodeId> stack = {root};
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (const NodeId v : adj[u]) {
        if (label.emplace(v, next).second) stack.push_back(v);
      }
    }
    ++next;
  }
  return NodeInts(label.begin(), label.end());
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

// ------------------------------------------------ sort-operator oracles
//
// Every sort-driven table operator (OrderBy, Unique, GroupBy, NextK, TopK,
// set ops) documents its result as a function of the stable sort of the
// row positions under RowComparator. The references below compute exactly
// that with std::stable_sort, independently of the operators' radix
// kernel and of their parallel comparison fallback.

// Row positions of `t` stably sorted by `cols` (empty `ascending` = all
// ascending): RowComparator order, physical position breaking ties.
inline std::vector<int64_t> StableSortPerm(
    const Table& t, const std::vector<std::string>& cols,
    const std::vector<bool>& ascending = {}) {
  std::vector<int> idx;
  RINGO_CHECK_OK(ResolveColumns(t, cols, &idx));
  const RowComparator cmp(&t, &t, idx, idx, ascending);
  std::vector<int64_t> perm(t.NumRows());
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(),
                   [&](int64_t a, int64_t b) { return cmp.Less(a, b); });
  return perm;
}

// TopK reference: the first k rows of the stable sort by `col`.
inline std::vector<int64_t> RefTopKRows(const Table& t, const std::string& col,
                                        int64_t k, bool ascending) {
  std::vector<int64_t> perm = StableSortPerm(t, {col}, {ascending});
  perm.resize(std::min<int64_t>(k, static_cast<int64_t>(perm.size())));
  return perm;
}

// For every row, the first row of its run of `cols`-equal rows in the
// stable sort — the smallest position holding that key.
inline std::vector<int64_t> RunFirstOf(const Table& t,
                                       const std::vector<std::string>& cols) {
  const std::vector<int64_t> perm = StableSortPerm(t, cols);
  std::vector<int> idx;
  RINGO_CHECK_OK(ResolveColumns(t, cols, &idx));
  const RowComparator cmp(&t, &t, idx, idx);
  std::vector<int64_t> first(t.NumRows());
  for (size_t i = 0; i < perm.size(); ++i) {
    first[perm[i]] =
        i > 0 && cmp.Equal(perm[i - 1], perm[i]) ? first[perm[i - 1]] : perm[i];
  }
  return first;
}

// Unique reference: the first occurrence of every distinct key, in
// physical order.
inline std::vector<int64_t> RefUniqueRows(
    const Table& t, const std::vector<std::string>& cols) {
  const std::vector<int64_t> first = RunFirstOf(t, cols);
  std::vector<int64_t> rows;
  for (int64_t r = 0; r < t.NumRows(); ++r) {
    if (first[r] == r) rows.push_back(r);
  }
  return rows;
}

// GroupIndex reference: dense group ids numbered by first occurrence.
inline std::vector<int64_t> RefGroupIndex(
    const Table& t, const std::vector<std::string>& cols) {
  const std::vector<int64_t> first = RunFirstOf(t, cols);
  std::vector<int64_t> gid(t.NumRows());
  int64_t groups = 0;
  for (int64_t r = 0; r < t.NumRows(); ++r) {
    gid[r] = first[r] == r ? groups++ : gid[first[r]];
  }
  return gid;
}

// NextK reference: (predecessor, successor) row pairs — each row joined to
// its up-to-k successors in the (group, order) stable sort, within its
// group.
inline void RefNextKPairs(const Table& t, const std::string& group_col,
                          const std::string& order_col, int k,
                          std::vector<int64_t>* pred,
                          std::vector<int64_t>* succ) {
  const std::vector<int64_t> perm =
      StableSortPerm(t, {group_col, order_col});
  std::vector<int> g;
  RINGO_CHECK_OK(ResolveColumns(t, {group_col}, &g));
  const RowComparator same_group(&t, &t, g, g);
  const int64_t n = static_cast<int64_t>(perm.size());
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j <= i + k && j < n; ++j) {
      if (!same_group.Equal(perm[i], perm[j])) break;
      pred->push_back(perm[i]);
      succ->push_back(perm[j]);
    }
  }
}

// Intersect (keep_present) / Minus (!keep_present) reference: distinct
// rows of `a` by first occurrence, kept when some row of `b` equals them
// on every column (found by binary search in b's stable sort).
inline std::vector<int64_t> RefSetOpRows(const Table& a, const Table& b,
                                         bool keep_present) {
  std::vector<std::string> names;
  for (const ColumnSpec& c : a.schema().columns()) names.push_back(c.name);
  std::vector<int> idx(a.num_columns());
  std::iota(idx.begin(), idx.end(), 0);
  const RowComparator cross(&a, &b, idx, idx);
  const std::vector<int64_t> b_sorted = StableSortPerm(b, names);
  std::vector<int64_t> rows;
  for (int64_t r : RefUniqueRows(a, names)) {
    const auto it = std::lower_bound(
        b_sorted.begin(), b_sorted.end(), r,
        [&](int64_t rb, int64_t ra) { return cross.Compare(ra, rb) > 0; });
    const bool present = it != b_sorted.end() && cross.Equal(r, *it);
    if (present == keep_present) rows.push_back(r);
  }
  return rows;
}

// Cell equality with doubles compared by bits (so ±0.0 and NaN payloads
// count) and strings by pool id (both tables must share a pool).
inline bool SameCell(const Column& a, int64_t ra, const Column& b,
                     int64_t rb) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ColumnType::kInt:
      return a.GetInt(ra) == b.GetInt(rb);
    case ColumnType::kFloat: {
      const double da = a.GetFloat(ra), db = b.GetFloat(rb);
      return std::memcmp(&da, &db, sizeof(da)) == 0;
    }
    case ColumnType::kString:
      return a.GetStr(ra) == b.GetStr(rb);
  }
  return false;
}

// Asserts `out` is exactly the rows `rows` of `in`, in that order: same
// schema, same row ids, every cell bit-identical.
inline void ExpectRowsOf(const Table& out, const Table& in,
                         const std::vector<int64_t>& rows,
                         const std::string& ctx) {
  ASSERT_EQ(out.schema().ToString(), in.schema().ToString()) << ctx;
  ASSERT_EQ(out.NumRows(), static_cast<int64_t>(rows.size())) << ctx;
  for (int64_t i = 0; i < out.NumRows(); ++i) {
    ASSERT_EQ(out.RowId(i), in.RowId(rows[i])) << ctx << " row " << i;
    for (int c = 0; c < in.num_columns(); ++c) {
      ASSERT_TRUE(SameCell(out.column(c), i, in.column(c), rows[i]))
          << ctx << " col " << c << " row " << i;
    }
  }
}

// Asserts a paired output (NextK's layout: every column of `in` for the
// predecessor, then every column again for the successor) holds exactly
// the pairs (pred[i], succ[i]).
inline void ExpectPairedRowsOf(const Table& out, const Table& in,
                               const std::vector<int64_t>& pred,
                               const std::vector<int64_t>& succ,
                               const std::string& ctx) {
  const int nc = in.num_columns();
  ASSERT_EQ(out.num_columns(), 2 * nc) << ctx;
  ASSERT_EQ(out.NumRows(), static_cast<int64_t>(pred.size())) << ctx;
  for (int64_t i = 0; i < out.NumRows(); ++i) {
    for (int c = 0; c < nc; ++c) {
      ASSERT_TRUE(SameCell(out.column(c), i, in.column(c), pred[i]))
          << ctx << " pred col " << c << " row " << i;
      ASSERT_TRUE(SameCell(out.column(nc + c), i, in.column(c), succ[i]))
          << ctx << " succ col " << c << " row " << i;
    }
  }
}

// Asserts a GroupByAggregate result against the reference grouping: one
// row per group in first-occurrence order, key cells from each group's
// first row, and every aggregate recomputed in row order (kCount; kSum,
// kMin, kMax over int or float columns).
inline void ExpectGroupByOf(const Table& out, const Table& in,
                            const std::vector<std::string>& group_cols,
                            const std::vector<AggSpec>& aggs,
                            const std::string& ctx) {
  const std::vector<int64_t> gid = RefGroupIndex(in, group_cols);
  std::vector<int64_t> rep;
  for (int64_t r = 0; r < in.NumRows(); ++r) {
    if (gid[r] == static_cast<int64_t>(rep.size())) rep.push_back(r);
  }
  const int64_t groups = static_cast<int64_t>(rep.size());
  ASSERT_EQ(out.NumRows(), groups) << ctx;
  const int nk = static_cast<int>(group_cols.size());
  ASSERT_EQ(out.num_columns(), nk + static_cast<int>(aggs.size())) << ctx;
  for (int k = 0; k < nk; ++k) {
    const Column& key = in.column(in.FindColumn(group_cols[k]).ValueOrDie());
    for (int64_t g = 0; g < groups; ++g) {
      ASSERT_TRUE(SameCell(out.column(k), g, key, rep[g]))
          << ctx << " key " << group_cols[k] << " group " << g;
    }
  }
  for (size_t a = 0; a < aggs.size(); ++a) {
    const Column& got = out.column(nk + static_cast<int>(a));
    if (aggs[a].fn == AggFn::kCount) {
      std::vector<int64_t> count(groups, 0);
      for (int64_t r = 0; r < in.NumRows(); ++r) ++count[gid[r]];
      for (int64_t g = 0; g < groups; ++g) {
        ASSERT_EQ(got.GetInt(g), count[g]) << ctx << " count group " << g;
      }
      continue;
    }
    const Column& col = in.column(in.FindColumn(aggs[a].column).ValueOrDie());
    ASSERT_TRUE(aggs[a].fn == AggFn::kSum || aggs[a].fn == AggFn::kMin ||
                aggs[a].fn == AggFn::kMax)
        << ctx << ": no reference for this aggregate";
    if (col.type() == ColumnType::kInt) {
      std::vector<int64_t> sum(groups, 0);
      std::vector<int64_t> lo(groups, std::numeric_limits<int64_t>::max());
      std::vector<int64_t> hi(groups, std::numeric_limits<int64_t>::min());
      for (int64_t r = 0; r < in.NumRows(); ++r) {
        const int64_t v = col.GetInt(r);
        sum[gid[r]] += v;
        lo[gid[r]] = std::min(lo[gid[r]], v);
        hi[gid[r]] = std::max(hi[gid[r]], v);
      }
      const std::vector<int64_t>& want =
          aggs[a].fn == AggFn::kSum ? sum : aggs[a].fn == AggFn::kMin ? lo : hi;
      for (int64_t g = 0; g < groups; ++g) {
        ASSERT_EQ(got.GetInt(g), want[g]) << ctx << " agg " << a << " group "
                                          << g;
      }
    } else {
      // Row-order accumulation; min/max skip NaN the way `v < min` does.
      std::vector<double> sum(groups, 0.0);
      std::vector<double> lo(groups, std::numeric_limits<double>::infinity());
      std::vector<double> hi(groups, -std::numeric_limits<double>::infinity());
      for (int64_t r = 0; r < in.NumRows(); ++r) {
        const double v = col.GetFloat(r);
        sum[gid[r]] += v;
        if (v < lo[gid[r]]) lo[gid[r]] = v;
        if (v > hi[gid[r]]) hi[gid[r]] = v;
      }
      const std::vector<double>& want =
          aggs[a].fn == AggFn::kSum ? sum : aggs[a].fn == AggFn::kMin ? lo : hi;
      for (int64_t g = 0; g < groups; ++g) {
        const double v = got.GetFloat(g);
        ASSERT_EQ(std::memcmp(&v, &want[g], sizeof(v)), 0)
            << ctx << " agg " << a << " group " << g << ": " << v << " vs "
            << want[g];
      }
    }
  }
}

}  // namespace testing
}  // namespace ringo

#endif  // RINGO_TESTS_TEST_SUPPORT_H_
