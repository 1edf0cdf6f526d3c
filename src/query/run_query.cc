// RunScript (the staged parse → plan → fuse → exec pipeline) and the
// Ringo::RunQuery facade method. RunQuery is declared in core/engine.h but
// defined here so ringo_core does not depend on the query library — only
// binaries that actually run scripts link it (via ringo_query or the
// umbrella target).
#include "query/query.h"

#include "core/engine.h"
#include "query/parser.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace ringo {
namespace query {

double TableChecksum(const Table& t) {
  double sum = 0.0;
  for (int c = 0; c < t.num_columns(); ++c) {
    const Column& col = t.column(c);
    switch (col.type()) {
      case ColumnType::kInt:
        for (int64_t r = 0; r < t.NumRows(); ++r) {
          sum += static_cast<double>(col.GetInt(r));
        }
        break;
      case ColumnType::kFloat:
        for (int64_t r = 0; r < t.NumRows(); ++r) sum += col.GetFloat(r);
        break;
      case ColumnType::kString:
        break;  // Interning order is run-dependent; ids stay out.
    }
  }
  return sum;
}

Result<RunResult> RunScript(std::string_view script, const RunOptions& opts) {
  trace::Span span("Query/run");
  RINGO_COUNTER_ADD("query/runs", 1);

  RINGO_ASSIGN_OR_RETURN(const Script ast, Parse(script));

  std::map<std::string, Schema> binding_schemas;
  for (const auto& [name, t] : opts.bindings) {
    if (t != nullptr) binding_schemas[name] = t->schema();
  }
  RINGO_ASSIGN_OR_RETURN(Plan plan, PlanScript(ast, binding_schemas));
  const int fused = FusePlan(&plan);
  span.AddAttr("fused", static_cast<int64_t>(fused));
  span.AddAttr("plan_nodes", static_cast<int64_t>(plan.nodes.size()));

  ExecOptions exec_opts;
  exec_opts.pool = opts.pool;
  exec_opts.bindings = opts.bindings;
  RINGO_ASSIGN_OR_RETURN(QueryValue value, ExecutePlan(plan, exec_opts));

  RunResult out;
  if (value.table != nullptr) {
    out.rows = value.table->NumRows();
    out.checksum = TableChecksum(*value.table);
    out.table = std::move(value.table);
  } else if (value.graph != nullptr) {
    out.rows = value.graph->NumNodes();
    out.checksum = static_cast<double>(value.graph->NumEdges());
    out.graph = std::move(value.graph);
  }
  span.AddAttr("rows", out.rows);
  return out;
}

}  // namespace query

Result<TablePtr> Ringo::RunQuery(std::string_view script) const {
  query::RunOptions opts;
  opts.pool = pool_;
  RINGO_ASSIGN_OR_RETURN(query::RunResult r, query::RunScript(script, opts));
  if (r.table == nullptr) {
    return Status::InvalidArgument(
        "query result is a graph; end the script with nodes(), edges(), "
        "pagerank() or another table-producing statement");
  }
  return r.table;
}

}  // namespace ringo
