// Logical planner for the query script language: AST → plan DAG with
// semantic checks (variables defined before use, known functions with the
// right arity and argument types, columns resolved against inferred
// schemas) — every error carries the source line/column. Plan nodes are
// stored in topological order (inputs precede consumers); the last
// statement's node is the root.
//
// The fusion pass (FusePlan, query/fuse.cc) rewrites the plan in place:
//   * Select → Graph: a select feeding only a graph() build becomes one
//     kFilteredGraph node — the predicate is pushed into the conversion's
//     extract phase and the filtered table is never materialized;
//   * Project below OrderBy: project(order_by(t, ...), cols) with the sort
//     columns contained in `cols` sorts the narrowed table instead of
//     gathering every column just to drop most of them;
//   * GroupBy aggregate pruning: aggregates whose outputs a following
//     project discards are never computed.
// Each rewrite fires only when the fused-away node has exactly one
// consumer, so shared intermediates keep their materialized form. RunScript
// always fuses; the unfused reference is the staged pipeline Parse →
// PlanScript → ExecutePlan without the FusePlan call. Rewrites are counted
// in query/fused_ops plus one counter per rule.
#ifndef RINGO_QUERY_PLANNER_H_
#define RINGO_QUERY_PLANNER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "query/ast.h"
#include "table/schema.h"
#include "table/table.h"
#include "util/result.h"

namespace ringo {
namespace query {

enum class OpKind : char {
  kBind,     // External table binding (the serving layer's session table).
  kLoad,     // load(path, schema[, header])
  kSelect,   // select(T, "col <op> literal")
  kProject,  // project(T, col...)
  kJoin,     // join(A, B, left_col, right_col)
  kOrderBy,  // order_by(T, col...)  ('-' prefix = descending)
  kGroupBy,  // group_by(T, "k1,k2", count(n), sum(c, n), ...)
  kTopK,     // top_k(T, col, k)  (descending, like Table::TopK)
  kUnique,   // unique(T, col...)
  kGraph,    // graph(T, src_col, dst_col)
  kFilteredGraph,  // Fused select+graph (planner-generated only).
  kPageRank,       // pagerank(G[, iters])
  kNodes,          // nodes(G)
  kEdges,          // edges(G)
};

enum class ValueKind : char { kTable, kGraph };

const char* OpKindName(OpKind op);

struct PlanNode {
  OpKind op = OpKind::kBind;
  SourcePos pos;
  std::vector<int> inputs;  // Node ids, all smaller than this node's id.

  std::string name;              // kBind: binding name; kLoad: file path.
  bool header = false;           // kLoad.
  Schema load_schema;            // kLoad: declared schema.
  PredicateExpr pred;            // kSelect / kFilteredGraph (DNF).
  std::vector<std::string> cols;  // kProject/kUnique/kOrderBy/kGroupBy keys.
  std::vector<bool> ascending;    // kOrderBy.
  std::string src_col, dst_col;   // kGraph/kFilteredGraph; kJoin keys;
                                  // kTopK: src_col is the ranked column.
  std::vector<AggSpec> aggs;      // kGroupBy.
  int64_t k = 0;                  // kTopK.
  int iters = 0;                  // kPageRank.

  ValueKind value = ValueKind::kTable;
  Schema schema;  // Inferred output schema (kTable nodes only).
};

struct Plan {
  std::vector<PlanNode> nodes;
  int root = -1;
};

// Plans a parsed script. `bindings` maps externally bound table names to
// their schemas (empty outside the serving layer).
Result<Plan> PlanScript(const Script& script,
                        const std::map<std::string, Schema>& bindings = {});

// Fusion pass; returns the number of rewrites applied. Safe to call
// repeatedly — it runs to a fixpoint.
int FusePlan(Plan* plan);

// One line per node, "#id = op(#inputs, params) [schema]", then
// "root = #id" — the representation the golden planner tests snapshot.
std::string PlanToString(const Plan& plan);

}  // namespace query
}  // namespace ringo

#endif  // RINGO_QUERY_PLANNER_H_
