#include "core/conversion.h"

#include <algorithm>
#include <cstdint>

#include "util/parallel.h"
#include "util/radix_sort.h"
#include "util/trace.h"

namespace ringo {

namespace {

// Pulls a node-id column as int64 values (pool ids for string columns),
// restricted to the physical rows in `keep` when non-null.
Status ExtractNodeColumnRows(const Table& t, std::string_view name,
                             const std::vector<int64_t>* keep,
                             std::vector<NodeId>* out) {
  RINGO_ASSIGN_OR_RETURN(const int ci, t.FindColumn(name));
  const Column& c = t.column(ci);
  const int64_t n =
      keep != nullptr ? static_cast<int64_t>(keep->size()) : t.NumRows();
  const auto row = [&](int64_t i) { return keep != nullptr ? (*keep)[i] : i; };
  out->resize(n);
  switch (c.type()) {
    case ColumnType::kInt:
      ParallelFor(0, n, [&](int64_t i) { (*out)[i] = c.GetInt(row(i)); });
      return Status::OK();
    case ColumnType::kString:
      ParallelFor(0, n, [&](int64_t i) {
        (*out)[i] = static_cast<NodeId>(c.GetStr(row(i)));
      });
      return Status::OK();
    case ColumnType::kFloat:
      return Status::TypeMismatch("node id column '" + std::string(name) +
                                  "' must be int or string, not float");
  }
  return Status::Internal("unhandled column type");
}

Status ExtractNodeColumn(const Table& t, std::string_view name,
                         std::vector<NodeId>* out) {
  return ExtractNodeColumnRows(t, name, nullptr, out);
}

// The sorted-pair scaffold shared by the directed and undirected builds.
struct SortedPairs {
  std::vector<Edge> fwd;  // Sorted by (src, dst).
  std::vector<Edge> rev;  // Sorted by (dst, src), stored as (dst, src).
  std::vector<NodeId> nodes;  // Distinct endpoint ids, ascending.

  // `phase_prefix` names the trace spans of the two phases, e.g.
  // "TableToGraph" → "TableToGraph/sort" + "TableToGraph/count".
  SortedPairs(std::vector<NodeId> src, std::vector<NodeId> dst,
              const char* sort_span, const char* count_span) {
    const int64_t n = static_cast<int64_t>(src.size());
    {
      trace::Span span(sort_span);
      span.AddAttr("rows", n);
      fwd.resize(n);
      rev.resize(n);
      ParallelFor(0, n, [&](int64_t i) {
        fwd[i] = {src[i], dst[i]};
        rev[i] = {dst[i], src[i]};
      });
      // Edge = pair<int64, int64>: the radix kernel sorts the packed
      // 128-bit (src, dst) keys directly — the hot half of the sort-first
      // conversion (§2.4).
      RadixSortI64Pairs(fwd.data(), n);
      RadixSortI64Pairs(rev.data(), n);
    }
    trace::Span span(count_span);
    // Distinct nodes = union of the two sorted first-components.
    std::vector<NodeId> a, b;
    a.reserve(n);
    for (const Edge& e : fwd) {
      if (a.empty() || a.back() != e.first) a.push_back(e.first);
    }
    b.reserve(n);
    for (const Edge& e : rev) {
      if (b.empty() || b.back() != e.first) b.push_back(e.first);
    }
    nodes.resize(a.size() + b.size());
    nodes.erase(std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                               nodes.begin()),
                nodes.end());
    span.AddAttr("distinct_nodes", static_cast<int64_t>(nodes.size()));
  }

  // Run boundaries of `key` in a (key-major) sorted pair array.
  static std::pair<int64_t, int64_t> Run(const std::vector<Edge>& v,
                                         NodeId key) {
    auto lo = std::lower_bound(v.begin(), v.end(), Edge{key, INT64_MIN});
    auto hi = std::upper_bound(v.begin(), v.end(), Edge{key, INT64_MAX});
    return {lo - v.begin(), hi - v.begin()};
  }
};

// Copies the second components of v[lo, hi) into `dst`, deduplicating
// consecutive equal values (the run is sorted).
void FillDedup(const std::vector<Edge>& v, int64_t lo, int64_t hi,
               std::vector<NodeId>* dst) {
  dst->clear();
  dst->reserve(hi - lo);
  for (int64_t i = lo; i < hi; ++i) {
    if (dst->empty() || dst->back() != v[i].second) {
      dst->push_back(v[i].second);
    }
  }
}

// Sort + count + fill over already-extracted (src, dst) pairs — the body
// TableToGraph and TableToGraphFiltered share once extraction has run.
DirectedGraph BuildDirectedFromPairs(std::vector<NodeId> src,
                                     std::vector<NodeId> dst,
                                     trace::Span* span) {
  const SortedPairs sp(std::move(src), std::move(dst), "TableToGraph/sort",
                       "TableToGraph/count");

  trace::Span fill_span("TableToGraph/fill");
  DirectedGraph g;
  const int64_t nn = static_cast<int64_t>(sp.nodes.size());
  g.ReserveNodes(nn);
  // Phase 1 (sequential, cheap): create all node entries. After this the
  // hash table never rehashes, so concurrent reads during the fill are safe.
  for (NodeId id : sp.nodes) g.AddNode(id);

  // Phase 2 (parallel, contention-free): each thread fills the adjacency
  // vectors of its own nodes.
  auto* table = &g.mutable_node_table();
  std::vector<int64_t> edge_count_per_node(nn, 0);
  ParallelForDynamic(0, nn, [&](int64_t i) {
    const NodeId id = sp.nodes[i];
    DirectedGraph::NodeData* nd = table->Find(id);
    const auto [olo, ohi] = SortedPairs::Run(sp.fwd, id);
    FillDedup(sp.fwd, olo, ohi, &nd->out);
    const auto [ilo, ihi] = SortedPairs::Run(sp.rev, id);
    FillDedup(sp.rev, ilo, ihi, &nd->in);
    edge_count_per_node[i] = static_cast<int64_t>(nd->out.size());
  });
  int64_t edges = 0;
  for (int64_t c : edge_count_per_node) edges += c;
  g.BumpEdgeCount(edges);
  fill_span.AddAttr("nodes", nn);
  fill_span.AddAttr("edges", edges);
  span->AddAttr("nodes", nn);
  span->AddAttr("edges", edges);
  return g;
}

}  // namespace

Result<DirectedGraph> TableToGraph(const Table& t, std::string_view src_col,
                                   std::string_view dst_col) {
  trace::Span span("TableToGraph");
  span.AddAttr("rows", t.NumRows());
  std::vector<NodeId> src, dst;
  {
    RINGO_TRACE_SPAN("TableToGraph/extract");
    RINGO_RETURN_NOT_OK(ExtractNodeColumn(t, src_col, &src));
    RINGO_RETURN_NOT_OK(ExtractNodeColumn(t, dst_col, &dst));
  }
  return BuildDirectedFromPairs(std::move(src), std::move(dst), &span);
}

Result<DirectedGraph> TableToGraphFiltered(const Table& t,
                                           std::string_view src_col,
                                           std::string_view dst_col,
                                           const std::vector<int64_t>& keep) {
  trace::Span span("TableToGraphFiltered");
  span.AddAttr("rows", t.NumRows());
  span.AddAttr("kept", static_cast<int64_t>(keep.size()));
  std::vector<NodeId> src, dst;
  {
    RINGO_TRACE_SPAN("TableToGraph/extract");
    RINGO_RETURN_NOT_OK(ExtractNodeColumnRows(t, src_col, &keep, &src));
    RINGO_RETURN_NOT_OK(ExtractNodeColumnRows(t, dst_col, &keep, &dst));
  }
  // Kept rows enter the sort in ascending physical order — exactly the
  // order Select's GatherRows would give them — so the resulting graph is
  // bit-identical to TableToGraph over the materialized selection.
  return BuildDirectedFromPairs(std::move(src), std::move(dst), &span);
}

Result<UndirectedGraph> TableToUndirectedGraph(const Table& t,
                                               std::string_view src_col,
                                               std::string_view dst_col) {
  trace::Span span("TableToUndirectedGraph");
  span.AddAttr("rows", t.NumRows());
  std::vector<NodeId> src, dst;
  RINGO_RETURN_NOT_OK(ExtractNodeColumn(t, src_col, &src));
  RINGO_RETURN_NOT_OK(ExtractNodeColumn(t, dst_col, &dst));
  // Undirected adjacency of u = dedup(out-run ∪ in-run).
  const SortedPairs sp(std::move(src), std::move(dst),
                       "TableToUndirectedGraph/sort",
                       "TableToUndirectedGraph/count");

  RINGO_TRACE_SPAN("TableToUndirectedGraph/fill");
  UndirectedGraph g;
  const int64_t nn = static_cast<int64_t>(sp.nodes.size());
  g.ReserveNodes(nn);
  for (NodeId id : sp.nodes) g.AddNode(id);

  auto* table = &g.mutable_node_table();
  std::vector<int64_t> half_edges(nn, 0);
  std::vector<int64_t> self_loops(nn, 0);
  ParallelForDynamic(0, nn, [&](int64_t i) {
    const NodeId id = sp.nodes[i];
    UndirectedGraph::NodeData* nd = table->Find(id);
    const auto [olo, ohi] = SortedPairs::Run(sp.fwd, id);
    const auto [ilo, ihi] = SortedPairs::Run(sp.rev, id);
    nd->nbrs.clear();
    nd->nbrs.reserve((ohi - olo) + (ihi - ilo));
    int64_t a = olo, b = ilo;
    NodeId last = INT64_MIN;
    auto push = [&](NodeId v) {
      if (nd->nbrs.empty() || last != v) {
        nd->nbrs.push_back(v);
        last = v;
      }
    };
    while (a < ohi || b < ihi) {
      if (a < ohi && (b >= ihi || sp.fwd[a].second <= sp.rev[b].second)) {
        push(sp.fwd[a].second);
        ++a;
      } else {
        push(sp.rev[b].second);
        ++b;
      }
    }
    for (NodeId v : nd->nbrs) {
      if (v == id) ++self_loops[i];
      ++half_edges[i];
    }
  });
  // Each undirected edge {u,v}, u != v, appears in two adjacency vectors; a
  // self-loop appears once.
  int64_t half = 0, loops = 0;
  for (int64_t i = 0; i < nn; ++i) {
    half += half_edges[i];
    loops += self_loops[i];
  }
  g.BumpEdgeCount((half - loops) / 2 + loops);
  return g;
}

Result<WeightedGraphResult> TableToWeightedGraph(const Table& t,
                                                 std::string_view src_col,
                                                 std::string_view dst_col,
                                                 std::string_view weight_col) {
  RINGO_ASSIGN_OR_RETURN(const int wci, t.FindColumn(weight_col));
  const Column& wc = t.column(wci);
  if (wc.type() == ColumnType::kString) {
    return Status::TypeMismatch("weight column '" + std::string(weight_col) +
                                "' must be numeric");
  }
  trace::Span span("TableToWeightedGraph");
  span.AddAttr("rows", t.NumRows());
  WeightedGraphResult out;
  RINGO_ASSIGN_OR_RETURN(out.graph, TableToGraph(t, src_col, dst_col));

  std::vector<NodeId> src, dst;
  RINGO_RETURN_NOT_OK(ExtractNodeColumn(t, src_col, &src));
  RINGO_RETURN_NOT_OK(ExtractNodeColumn(t, dst_col, &dst));
  out.weights.Reserve(out.graph.NumEdges());
  const int64_t n = t.NumRows();
  auto weight_at = [&](int64_t i) {
    return wc.type() == ColumnType::kInt ? static_cast<double>(wc.GetInt(i))
                                         : wc.GetFloat(i);
  };
  // Sort (src, dst, row) records and accumulate each run. Stability keeps
  // rows of one edge in ascending row order, so the per-edge accumulation
  // order — hence the floating-point sum — is bit-identical to a
  // sequential row-order loop.
  std::vector<KeyRow2> recs(n);
  ParallelFor(0, n, [&](int64_t i) {
    recs[i] = {radix::Int64Key(src[i]), radix::Int64Key(dst[i]), i};
  });
  RadixSortKeyRows2(recs.data(), n);
  for (int64_t i = 0; i < n;) {
    int64_t j = i;
    double acc = 0.0;
    while (j < n && recs[j].hi == recs[i].hi && recs[j].lo == recs[i].lo) {
      acc += weight_at(recs[j].row);
      ++j;
    }
    // Duplicate rows accumulate onto the single collapsed edge.
    out.weights.Set(src[recs[i].row], dst[recs[i].row], acc);
    i = j;
  }
  return out;
}

Result<DirectedGraph> TableToGraphNaive(const Table& t,
                                        std::string_view src_col,
                                        std::string_view dst_col) {
  std::vector<NodeId> src, dst;
  RINGO_RETURN_NOT_OK(ExtractNodeColumn(t, src_col, &src));
  RINGO_RETURN_NOT_OK(ExtractNodeColumn(t, dst_col, &dst));
  DirectedGraph g;
  for (int64_t i = 0; i < static_cast<int64_t>(src.size()); ++i) {
    g.AddEdge(src[i], dst[i]);
  }
  return g;
}

TablePtr GraphToEdgeTable(const DirectedGraph& g,
                          std::shared_ptr<StringPool> pool,
                          const std::string& src_name,
                          const std::string& dst_name) {
  trace::Span span("GraphToEdgeTable");
  span.AddAttr("nodes", g.NumNodes());
  span.AddAttr("edges", g.NumEdges());
  Schema schema;
  schema.AddColumn(src_name, ColumnType::kInt).Abort("GraphToEdgeTable");
  schema.AddColumn(dst_name, ColumnType::kInt).Abort("GraphToEdgeTable");
  TablePtr out = Table::Create(std::move(schema), std::move(pool));

  // Partition nodes (ascending id) and pre-compute each node's slice of the
  // output table; threads then write disjoint ranges.
  std::vector<NodeId> ids = g.NodeIds();
  RadixSortI64(ids);
  const int64_t nn = static_cast<int64_t>(ids.size());
  std::vector<int64_t> offsets(nn + 1, 0);
  ParallelFor(0, nn, [&](int64_t i) {
    offsets[i + 1] = static_cast<int64_t>(g.GetNode(ids[i])->out.size());
  });
  for (int64_t i = 0; i < nn; ++i) offsets[i + 1] += offsets[i];
  const int64_t m = offsets[nn];

  Column& src = out->mutable_column(0);
  Column& dst = out->mutable_column(1);
  src.Resize(m);
  dst.Resize(m);
  ParallelForDynamic(0, nn, [&](int64_t i) {
    int64_t row = offsets[i];
    const NodeId u = ids[i];
    for (NodeId v : g.GetNode(u)->out) {
      src.SetInt(row, u);
      dst.SetInt(row, v);
      ++row;
    }
  });
  out->SealAppendedRows(m).Abort("GraphToEdgeTable");
  return out;
}

TablePtr GraphToNodeTable(const DirectedGraph& g,
                          std::shared_ptr<StringPool> pool,
                          const std::string& id_name) {
  trace::Span span("GraphToNodeTable");
  span.AddAttr("nodes", g.NumNodes());
  Schema schema;
  schema.AddColumn(id_name, ColumnType::kInt).Abort("GraphToNodeTable");
  schema.AddColumn("InDeg", ColumnType::kInt).Abort("GraphToNodeTable");
  schema.AddColumn("OutDeg", ColumnType::kInt).Abort("GraphToNodeTable");
  TablePtr out = Table::Create(std::move(schema), std::move(pool));

  std::vector<NodeId> ids = g.NodeIds();
  RadixSortI64(ids);
  const int64_t nn = static_cast<int64_t>(ids.size());
  Column& c_id = out->mutable_column(0);
  Column& c_in = out->mutable_column(1);
  Column& c_out = out->mutable_column(2);
  c_id.Resize(nn);
  c_in.Resize(nn);
  c_out.Resize(nn);
  ParallelFor(0, nn, [&](int64_t i) {
    const DirectedGraph::NodeData* nd = g.GetNode(ids[i]);
    c_id.SetInt(i, ids[i]);
    c_in.SetInt(i, static_cast<int64_t>(nd->in.size()));
    c_out.SetInt(i, static_cast<int64_t>(nd->out.size()));
  });
  out->SealAppendedRows(nn).Abort("GraphToNodeTable");
  return out;
}

}  // namespace ringo
