// The plan fusion pass (see query/planner.h for the rule list). Rewrites
// are purely structural — they never change the result, only how much
// intermediate state is materialized — and every rule requires the
// fused-away node to have exactly one consumer.
#include "query/planner.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ringo {
namespace query {

namespace {

// Consumer counts; the root counts as one use (its value is returned).
std::vector<int> UseCounts(const Plan& plan) {
  std::vector<int> uses(plan.nodes.size(), 0);
  for (const PlanNode& n : plan.nodes) {
    for (int in : n.inputs) ++uses[in];
  }
  if (plan.root >= 0) ++uses[plan.root];
  return uses;
}

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  for (const std::string& x : v) {
    if (x == s) return true;
  }
  return false;
}

// Rule 1: select feeding only a graph() build → kFilteredGraph. The
// predicate runs inside the conversion's extract phase; the filtered
// table is never gathered.
int FuseSelectIntoGraph(Plan* plan) {
  const std::vector<int> uses = UseCounts(*plan);
  int rewrites = 0;
  for (PlanNode& g : plan->nodes) {
    if (g.op != OpKind::kGraph) continue;
    const int si = g.inputs[0];
    const PlanNode& s = plan->nodes[si];
    if (s.op != OpKind::kSelect || uses[si] != 1) continue;
    g.op = OpKind::kFilteredGraph;
    g.pred = s.pred;
    g.inputs[0] = s.inputs[0];
    RINGO_COUNTER_ADD("query/fused_select_to_graph", 1);
    ++rewrites;
  }
  return rewrites;
}

// Rule 2: project(order_by(t, cols...), pcols) with cols ⊆ pcols →
// order_by(project(t, pcols), cols...): the sort gathers only the
// projected columns. The two nodes swap places in the vector, preserving
// topological order and every consumer edge.
int PushProjectBelowOrderBy(Plan* plan) {
  const std::vector<int> uses = UseCounts(*plan);
  int rewrites = 0;
  for (size_t pi = 0; pi < plan->nodes.size(); ++pi) {
    if (plan->nodes[pi].op != OpKind::kProject) continue;
    const int oi = plan->nodes[pi].inputs[0];
    if (plan->nodes[oi].op != OpKind::kOrderBy || uses[oi] != 1) continue;
    PlanNode& p = plan->nodes[pi];
    PlanNode& o = plan->nodes[oi];
    bool covered = true;
    for (const std::string& c : o.cols) {
      if (!Contains(p.cols, c)) {
        covered = false;
        break;
      }
    }
    if (!covered) continue;
    PlanNode proj = std::move(p);
    PlanNode ord = std::move(o);
    proj.inputs = ord.inputs;  // Project reads the pre-sort table.
    ord.inputs = {static_cast<int>(oi)};
    ord.schema = proj.schema;  // Sorting the projection keeps its schema.
    plan->nodes[oi] = std::move(proj);
    plan->nodes[pi] = std::move(ord);
    RINGO_COUNTER_ADD("query/fused_project_pushdown", 1);
    ++rewrites;
  }
  return rewrites;
}

// Rule 3: project after group_by prunes aggregates whose output columns
// the projection discards — they are never computed.
int PruneGroupByAggs(Plan* plan) {
  const std::vector<int> uses = UseCounts(*plan);
  int rewrites = 0;
  for (const PlanNode& p : plan->nodes) {
    if (p.op != OpKind::kProject) continue;
    const int gi = p.inputs[0];
    PlanNode& g = plan->nodes[gi];
    if (g.op != OpKind::kGroupBy || uses[gi] != 1) continue;
    std::vector<AggSpec> kept;
    for (const AggSpec& a : g.aggs) {
      if (Contains(p.cols, a.output_name)) kept.push_back(a);
    }
    if (kept.size() == g.aggs.size()) continue;
    // Rebuild the group_by schema: keys plus the surviving aggregates.
    Schema schema;
    const Schema& in_schema = plan->nodes[g.inputs[0]].schema;
    for (const std::string& key : g.cols) {
      schema.AddColumn(key, in_schema.column(in_schema.ColumnIndex(key)).type)
          .Abort("PruneGroupByAggs");
    }
    for (const AggSpec& a : kept) {
      schema
          .AddColumn(a.output_name,
                     g.schema.column(g.schema.ColumnIndex(a.output_name))
                         .type)
          .Abort("PruneGroupByAggs");
    }
    g.aggs = std::move(kept);
    g.schema = std::move(schema);
    RINGO_COUNTER_ADD("query/fused_groupby_prune", 1);
    ++rewrites;
  }
  return rewrites;
}

}  // namespace

int FusePlan(Plan* plan) {
  if (plan == nullptr || plan->root < 0) return 0;
  RINGO_TRACE_SPAN("Query/fuse");
  int total = 0;
  for (int round = 0; round < 8; ++round) {  // To a fixpoint; 8 is plenty.
    int rewrites = 0;
    rewrites += PushProjectBelowOrderBy(plan);
    rewrites += PruneGroupByAggs(plan);
    rewrites += FuseSelectIntoGraph(plan);
    if (rewrites == 0) break;
    total += rewrites;
  }
  RINGO_COUNTER_ADD("query/fused_ops", total);
  return total;
}

}  // namespace query
}  // namespace ringo
