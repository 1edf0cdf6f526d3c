// Shared machinery for batched edge mutations (DESIGN.md §11).
//
// ApplyEdgeBatch on both graph classes follows the same plan:
//   1. radix-sort and dedup the insert and delete lists (§7 machinery);
//   2. resolve each mentioned pair against the current adjacency into a
//      *net* op stream ("inserts first, then deletes" semantics — a pair in
//      both lists cancels unless the edge pre-existed, in which case it
//      nets to a delete);
//   3. group the net ops by adjacency-owning endpoint and rewrite each
//      touched node's sorted vector with ONE linear merge instead of k
//      repeated O(deg) sorted inserts — groups are disjoint, so the merges
//      run in parallel.
// The helpers here are the pieces both graphs share (plus the single-edge
// sorted-vector primitives and the journal cap); the per-class glue
// (in/out vs. single nbrs vector, endpoint normalization) lives in the
// graph .cc files.
#ifndef RINGO_GRAPH_EDGE_BATCH_H_
#define RINGO_GRAPH_EDGE_BATCH_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/delta_journal.h"
#include "graph/graph_defs.h"
#include "util/radix_sort.h"

namespace ringo {

// What a batch actually changed. `inserted`/`deleted` count net effective
// edge mutations (an edge inserted and deleted inside one batch counts as
// neither); `new_nodes` counts endpoints created for insert pairs, which
// happens even when the edge itself already existed (matching AddEdge).
struct EdgeBatchStats {
  int64_t inserted = 0;
  int64_t deleted = 0;
  int64_t new_nodes = 0;

  bool Changed() const { return inserted + deleted + new_nodes > 0; }
};

namespace edgebatch {

// Journal cap: replaying a delta comparable to the graph itself is slower
// than one rebuild, so the journal gives up well before that.
inline int64_t JournalCap(int64_t num_edges) {
  return std::max<int64_t>(4096, num_edges / 2);
}

// Single-edge maintenance of one sorted adjacency vector. Insert returns
// false when v is already present, Erase when it is absent.
inline bool SortedInsert(std::vector<NodeId>& vec, NodeId v) {
  auto it = std::lower_bound(vec.begin(), vec.end(), v);
  if (it != vec.end() && *it == v) return false;
  vec.insert(it, v);
  return true;
}

inline bool SortedErase(std::vector<NodeId>& vec, NodeId v) {
  auto it = std::lower_bound(vec.begin(), vec.end(), v);
  if (it == vec.end() || *it != v) return false;
  vec.erase(it);
  return true;
}

inline bool SortedContains(const std::vector<NodeId>& vec, NodeId v) {
  return std::binary_search(vec.begin(), vec.end(), v);
}

// Sorts by (first, second) with the radix kernel and drops duplicates.
// Already-sorted input (producers that maintain sorted batches, and the
// steady state of replayed streams) skips the sort for one linear check.
inline void SortDedup(std::vector<Edge>& edges) {
  if (!std::is_sorted(edges.begin(), edges.end())) {
    RadixSortI64Pairs(edges.data(), static_cast<int64_t>(edges.size()));
  }
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
}

// Net mutations are EdgeOp records (graph/delta_journal.h). When applying
// to adjacency, `u` is the endpoint whose sorted vector the op lands in and
// `v` the neighbor inserted/erased.

// Sorts ops by (u, v); ops are net (at most one per pair) except inside
// NetOps' multi-batch collapse, where same-pair ops are summed — so no
// tiebreak is needed either way. Several op streams are sorted by
// construction (resolved batches, single-batch journal replays, monotone
// dense translations), so a linear pre-check skips the sort for them.
// Otherwise packs into the two-word radix records from §7; with pass
// skipping the distribution sort beats a comparison sort even for
// thousand-op batches (node ids are narrow).
inline void SortOps(std::vector<EdgeOp>& ops) {
  const auto by_uv = [](const EdgeOp& a, const EdgeOp& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  if (std::is_sorted(ops.begin(), ops.end(), by_uv)) return;
  const int64_t n = static_cast<int64_t>(ops.size());
  std::vector<KeyRow2> recs(ops.size());
  for (int64_t i = 0; i < n; ++i) {
    recs[i] = {radix::Int64Key(ops[i].u), radix::Int64Key(ops[i].v),
               ops[i].op};
  }
  RadixSortKeyRows2(recs.data(), n);
  for (int64_t i = 0; i < n; ++i) {
    ops[i] = {static_cast<NodeId>(recs[i].hi ^ (uint64_t{1} << 63)),
              static_cast<NodeId>(recs[i].lo ^ (uint64_t{1} << 63)),
              static_cast<int32_t>(recs[i].row)};
  }
}

// Sorts an op list that is the transpose of a (u, v)-sorted stream (every
// record's endpoints swapped, e.g. the in-direction view of out-sorted
// ops): within equal u the v's are already ascending, so one stable
// counting pass by u suffices. Dense owner ids — the common case for
// renumbered snapshots and generated graphs — take the O(range + n)
// counting path; sparse ranges fall back to the radix sort.
inline void SortTransposedOps(std::vector<EdgeOp>& ops) {
  const int64_t n = static_cast<int64_t>(ops.size());
  if (n <= 1) return;
  NodeId lo = ops[0].u, hi = ops[0].u;
  bool sorted = true;
  for (int64_t i = 0; i < n; ++i) {
    lo = std::min(lo, ops[i].u);
    hi = std::max(hi, ops[i].u);
    if (i > 0 && (ops[i - 1].u > ops[i].u ||
                  (ops[i - 1].u == ops[i].u && ops[i - 1].v > ops[i].v))) {
      sorted = false;
    }
  }
  if (sorted) return;
  const int64_t range = hi - lo + 1;
  if (range > std::max<int64_t>(int64_t{1} << 16, 8 * n)) {
    SortOps(ops);
    return;
  }
  std::vector<int32_t> starts(range + 1, 0);
  for (int64_t i = 0; i < n; ++i) ++starts[ops[i].u - lo + 1];
  for (int64_t r = 0; r < range; ++r) starts[r + 1] += starts[r];
  static thread_local std::vector<EdgeOp> scratch;
  scratch.resize(n);
  for (int64_t i = 0; i < n; ++i) {
    scratch[starts[ops[i].u - lo]++] = ops[i];
  }
  std::copy(scratch.begin(), scratch.end(), ops.begin());
}

// Rewrites a sorted adjacency vector by merging in the net ops
// [begin, end) for this node (sorted ascending by v). Inserts are
// guaranteed absent from `vec` and deletes guaranteed present — the caller
// resolved the batch against the current adjacency — so the output size is
// exact and the merge is a single forward pass.
// The merge goes through a thread-local scratch buffer (batches touch
// thousands of nodes; a per-node allocation here dominates the merge
// itself) and is copied back with assign(), which reuses the vector's
// capacity — in steady state the whole apply loop runs allocation-free.
inline void MergeApplyRun(std::vector<NodeId>& vec, const EdgeOp* begin,
                          const EdgeOp* end) {
  static thread_local std::vector<NodeId> scratch;
  scratch.clear();
  size_t i = 0;
  const EdgeOp* o = begin;
  while (i < vec.size() || o != end) {
    if (o == end) {
      scratch.push_back(vec[i++]);
    } else if (i == vec.size()) {
      // Remaining ops must all be inserts past the tail.
      scratch.push_back(o->v);
      ++o;
    } else if (vec[i] < o->v) {
      scratch.push_back(vec[i++]);
    } else if (vec[i] == o->v) {
      // A delete consumes the element; an equal insert cannot happen.
      ++i;
      ++o;
    } else {
      scratch.push_back(o->v);
      ++o;
    }
  }
  vec.assign(scratch.begin(), scratch.end());
}

// Group boundaries of a (u, v)-sorted op list: offsets[k] is the first op
// of group k, groups keyed by `u`. Returns group-count + 1 entries.
inline std::vector<int64_t> GroupByNode(const std::vector<EdgeOp>& ops) {
  std::vector<int64_t> offsets;
  const int64_t n = static_cast<int64_t>(ops.size());
  for (int64_t i = 0; i < n; ++i) {
    if (i == 0 || ops[i].u != ops[i - 1].u) offsets.push_back(i);
  }
  offsets.push_back(n);
  return offsets;
}

}  // namespace edgebatch
}  // namespace ringo

#endif  // RINGO_GRAPH_EDGE_BATCH_H_
