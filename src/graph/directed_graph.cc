#include "graph/directed_graph.h"

#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace ringo {

DirectedGraph::DirectedGraph(const DirectedGraph& other) {
  std::shared_lock<std::shared_mutex> lk(other.structure_mu_);
  nodes_ = other.nodes_;
  num_edges_ = other.num_edges_;
  next_node_id_ = other.next_node_id_;
  stamp_.store(other.stamp_.load(std::memory_order_acquire),
               std::memory_order_release);
  journal_ = other.journal_;
}

DirectedGraph& DirectedGraph::operator=(const DirectedGraph& other) {
  if (this == &other) return *this;
  std::unique_lock<std::shared_mutex> lk_this(structure_mu_, std::defer_lock);
  std::shared_lock<std::shared_mutex> lk_other(other.structure_mu_,
                                               std::defer_lock);
  std::lock(lk_this, lk_other);
  nodes_ = other.nodes_;
  num_edges_ = other.num_edges_;
  next_node_id_ = other.next_node_id_;
  stamp_.store(other.stamp_.load(std::memory_order_acquire),
               std::memory_order_release);
  journal_ = other.journal_;
  return *this;
}

DirectedGraph::DirectedGraph(DirectedGraph&& other) noexcept {
  std::unique_lock<std::shared_mutex> lk(other.structure_mu_);
  nodes_ = std::move(other.nodes_);
  num_edges_ = other.num_edges_;
  next_node_id_ = other.next_node_id_;
  stamp_.store(other.stamp_.load(std::memory_order_acquire),
               std::memory_order_release);
  journal_ = std::move(other.journal_);
  other.num_edges_ = 0;
  other.next_node_id_ = 0;
  other.journal_.Invalidate();
}

DirectedGraph& DirectedGraph::operator=(DirectedGraph&& other) noexcept {
  if (this == &other) return *this;
  std::unique_lock<std::shared_mutex> lk_this(structure_mu_, std::defer_lock);
  std::unique_lock<std::shared_mutex> lk_other(other.structure_mu_,
                                               std::defer_lock);
  std::lock(lk_this, lk_other);
  nodes_ = std::move(other.nodes_);
  num_edges_ = other.num_edges_;
  next_node_id_ = other.next_node_id_;
  stamp_.store(other.stamp_.load(std::memory_order_acquire),
               std::memory_order_release);
  journal_ = std::move(other.journal_);
  other.num_edges_ = 0;
  other.next_node_id_ = 0;
  other.journal_.Invalidate();
  return *this;
}

bool DirectedGraph::EnsureNode(NodeId id) {
  const bool inserted = nodes_.Insert(id, NodeData{}).second;
  if (inserted) next_node_id_ = std::max(next_node_id_, id + 1);
  return inserted;
}

bool DirectedGraph::AddNodeLocked(NodeId id) {
  const bool inserted = EnsureNode(id);
  if (inserted) BumpStamp();
  return inserted;
}

bool DirectedGraph::AddNode(NodeId id) {
  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  return AddNodeLocked(id);
}

NodeId DirectedGraph::AddNode() {
  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  // The watermark is advanced by every insert path (EnsureNode), so this
  // probe is O(1) amortized; it only walks when ids were spliced in via
  // mutable_node_table() without NoteMaxNodeId.
  while (nodes_.Contains(next_node_id_)) ++next_node_id_;
  const NodeId id = next_node_id_;
  AddNodeLocked(id);
  return id;
}

bool DirectedGraph::AddEdge(NodeId src, NodeId dst) {
  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  // No stamp bumps here: if the edge already exists its endpoints do too,
  // so a failed insert below means nothing changed at all, and a
  // successful one bumps exactly once for nodes + edge together.
  EnsureNode(src);
  EnsureNode(dst);
  NodeData* s = nodes_.Find(src);
  if (!edgebatch::SortedInsert(s->out, dst)) return false;
  // Re-find dst because the EnsureNode calls above may have rehashed before
  // we took `s` — order matters: both EnsureNode calls precede both Finds.
  NodeData* d = nodes_.Find(dst);
  edgebatch::SortedInsert(d->in, src);
  ++num_edges_;
  BumpStamp();
  return true;
}

bool DirectedGraph::DelEdge(NodeId src, NodeId dst) {
  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  NodeData* s = nodes_.Find(src);
  if (s == nullptr || !edgebatch::SortedErase(s->out, dst)) return false;
  NodeData* d = nodes_.Find(dst);
  edgebatch::SortedErase(d->in, src);
  --num_edges_;
  BumpStamp();
  return true;
}

bool DirectedGraph::DelNode(NodeId id) {
  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  NodeData* nd = nodes_.Find(id);
  if (nd == nullptr) return false;
  // Detach from neighbors. Self-loop appears in both vectors; guard so the
  // edge count drops exactly once for it.
  int64_t removed = 0;
  for (NodeId dst : nd->out) {
    ++removed;
    if (dst == id) continue;
    edgebatch::SortedErase(nodes_.Find(dst)->in, id);
  }
  for (NodeId src : nd->in) {
    if (src == id) continue;  // Self-loop already counted via `out`.
    ++removed;
    edgebatch::SortedErase(nodes_.Find(src)->out, id);
  }
  num_edges_ -= removed;
  nodes_.Erase(id);
  BumpStamp();
  return true;
}

EdgeBatchStats DirectedGraph::ApplyEdgeBatch(std::vector<Edge> inserts,
                                             std::vector<Edge> deletes) {
  trace::Span span("Graph/ApplyEdgeBatch");
  span.AddAttr("inserts_raw", static_cast<int64_t>(inserts.size()));
  span.AddAttr("deletes_raw", static_cast<int64_t>(deletes.size()));
  EdgeBatchStats stats;
  {
    trace::Span s("Graph/ApplyEdgeBatch/sort_dedup");
    edgebatch::SortDedup(inserts);
    edgebatch::SortDedup(deletes);
  }

  std::unique_lock<std::shared_mutex> lk(structure_mu_);
  // Ids at or above this watermark did not exist before the batch, so
  // creating them never renumbers existing snapshot rows — the batch stays
  // journal-replayable (DESIGN.md §11).
  const NodeId pre_watermark = next_node_id_;
  std::vector<NodeId> created;

  std::vector<EdgeOp> ops;
  {
    trace::Span s("Graph/ApplyEdgeBatch/resolve");
    // Endpoints of every insert pair exist afterwards, like repeated AddEdge
    // (even for pairs that cancel against a delete in the same batch — the
    // delete removes the edge, not the nodes). One EnsureNode per distinct
    // endpoint: firsts repeat consecutively in the sorted list, seconds are
    // deduped through one radix pass.
    {
      bool have_last = false;
      NodeId last = 0;
      std::vector<NodeId> seconds;
      seconds.reserve(inserts.size());
      for (const Edge& e : inserts) {
        if (!have_last || e.first != last) {
          if (EnsureNode(e.first)) created.push_back(e.first);
          last = e.first;
          have_last = true;
        }
        seconds.push_back(e.second);
      }
      RadixSortI64(seconds);
      seconds.erase(std::unique(seconds.begin(), seconds.end()),
                    seconds.end());
      for (const NodeId v : seconds) {
        if (EnsureNode(v)) created.push_back(v);
      }
      stats.new_nodes = static_cast<int64_t>(created.size());
    }

    // Resolve against the pre-batch adjacency into net ops ("inserts first,
    // then deletes"): a pair in deletes nets to a delete iff the edge
    // pre-existed; a pair only in inserts nets to an insert iff it did not.
    // One merged walk over the two sorted lists emits the ops already in
    // (u, v) order — the out-direction grouping below then skips its sort —
    // and runs of pairs sharing a source reuse one adjacency lookup (no
    // node mutations happen past EnsureNode, so the pointer is stable).
    ops.reserve(inserts.size() + deletes.size());
    NodeId cached_u = -1;
    const NodeData* cached_nd = nullptr;
    const auto has = [&](const Edge& e) {
      if (e.first != cached_u) {
        cached_u = e.first;
        cached_nd = nodes_.Find(e.first);
      }
      return cached_nd != nullptr &&
             edgebatch::SortedContains(cached_nd->out, e.second);
    };
    size_t ii = 0, di = 0;
    while (ii < inserts.size() || di < deletes.size()) {
      const bool ins_next =
          di == deletes.size() ||
          (ii < inserts.size() && inserts[ii] < deletes[di]);
      if (ins_next) {
        if (!has(inserts[ii])) ops.push_back(
            {inserts[ii].first, inserts[ii].second, +1});
        ++ii;
      } else {
        if (ii < inserts.size() && inserts[ii] == deletes[di]) {
          ++ii;  // Delete wins over the same pair's insert.
        }
        if (has(deletes[di])) ops.push_back(
            {deletes[di].first, deletes[di].second, -1});
        ++di;
      }
    }
    for (const EdgeOp& o : ops) (o.op > 0 ? stats.inserted : stats.deleted)++;
  }

  if (!stats.Changed()) return stats;  // True no-op: the stamp stays put.

  if (!ops.empty()) {
    trace::Span apply_span("Graph/ApplyEdgeBatch/apply");
    // Out-direction: ops are keyed (src, dst) already; sort and group by
    // source, then rewrite each source's vector with one merge. Groups are
    // disjoint nodes, so the merges run in parallel (no rehash can happen:
    // all node inserts are done).
    edgebatch::SortOps(ops);
    {
      const std::vector<int64_t> groups = edgebatch::GroupByNode(ops);
      const int64_t ngroups = static_cast<int64_t>(groups.size()) - 1;
      ParallelForDynamic(0, ngroups, [&](int64_t k) {
        NodeData* nd = nodes_.Find(ops[groups[k]].u);
        edgebatch::MergeApplyRun(nd->out, ops.data() + groups[k],
                                 ops.data() + groups[k + 1]);
      });
    }
    // In-direction: the same net ops keyed (dst, src) — a transpose of the
    // (src, dst)-sorted list, so the counting sort applies.
    {
      std::vector<EdgeOp> in_ops(ops.size());
      for (size_t i = 0; i < ops.size(); ++i) {
        in_ops[i] = {ops[i].v, ops[i].u, ops[i].op};
      }
      edgebatch::SortTransposedOps(in_ops);
      const std::vector<int64_t> groups = edgebatch::GroupByNode(in_ops);
      const int64_t ngroups = static_cast<int64_t>(groups.size()) - 1;
      ParallelForDynamic(0, ngroups, [&](int64_t k) {
        NodeData* nd = nodes_.Find(in_ops[groups[k]].u);
        edgebatch::MergeApplyRun(nd->in, in_ops.data() + groups[k],
                                 in_ops.data() + groups[k + 1]);
      });
    }
    num_edges_ += stats.inserted - stats.deleted;
  }

  // One stamp bump for the whole batch. Created nodes journal alongside the
  // edge ops as long as every new id lands above the pre-batch watermark
  // (the snapshot's dense numbering only ever appends then); a batch that
  // resurrects a lower id — possible after DelNode — is not replayable and
  // invalidates instead.
  stamp_.fetch_add(1, std::memory_order_release);
  RadixSortI64(created);
  if (created.empty() || created.front() >= pre_watermark) {
    journal_.AppendBatch(stamp_.load(std::memory_order_relaxed),
                         std::move(ops), edgebatch::JournalCap(num_edges_),
                         std::move(created));
  } else {
    journal_.Invalidate();
  }

  RINGO_COUNTER_ADD("graph/edge_batches", 1);
  RINGO_COUNTER_ADD("graph/batch_inserts", stats.inserted);
  RINGO_COUNTER_ADD("graph/batch_deletes", stats.deleted);
  span.AddAttr("inserted", stats.inserted);
  span.AddAttr("deleted", stats.deleted);
  span.AddAttr("new_nodes", stats.new_nodes);
  return stats;
}

bool DirectedGraph::HasEdge(NodeId src, NodeId dst) const {
  const NodeData* s = nodes_.Find(src);
  return s != nullptr && edgebatch::SortedContains(s->out, dst);
}

int64_t DirectedGraph::OutDegree(NodeId id) const {
  const NodeData* nd = nodes_.Find(id);
  return nd == nullptr ? 0 : static_cast<int64_t>(nd->out.size());
}

int64_t DirectedGraph::InDegree(NodeId id) const {
  const NodeData* nd = nodes_.Find(id);
  return nd == nullptr ? 0 : static_cast<int64_t>(nd->in.size());
}

std::vector<NodeId> DirectedGraph::SortedNodeIds() const {
  std::vector<NodeId> ids = nodes_.Keys();
  std::sort(ids.begin(), ids.end());
  return ids;
}

int64_t DirectedGraph::MemoryUsageBytes() const {
  int64_t bytes = nodes_.MemoryUsageBytes();
  nodes_.ForEach([&](NodeId, const NodeData& nd) {
    bytes += static_cast<int64_t>((nd.in.capacity() + nd.out.capacity()) *
                                  sizeof(NodeId));
  });
  return bytes;
}

bool DirectedGraph::SameStructure(const DirectedGraph& other) const {
  if (NumNodes() != other.NumNodes() || NumEdges() != other.NumEdges()) {
    return false;
  }
  bool same = true;
  nodes_.ForEach([&](NodeId id, const NodeData& nd) {
    if (!same) return;
    const NodeData* o = other.GetNode(id);
    if (o == nullptr || o->in != nd.in || o->out != nd.out) same = false;
  });
  return same;
}

}  // namespace ringo
