// Declarative query front-end benchmark — the artifact behind
// BENCH_query.json.
//
// The pair of rows runs the SAME script — select a quarter of a wide edge
// table, build a graph, PageRank it, keep the top-k — once through
// RunScript and once through the staged pipeline without the fusion pass:
//
//   * Fused:   Select→Graph fuses to one kFilteredGraph node, so the
//              predicate feeds the conversion's extract phase directly and
//              the filtered copy of the 19-column table never exists.
//   * Unfused: Parse → PlanScript → ExecutePlan with no FusePlan call; the
//              select materializes all nineteen columns of every matching
//              row before the graph build reads two of them.
//
// The table is deliberately wide (sixteen float payload columns beyond
// src/dst) so the skipped materialization dominates; PageRank runs few
// rounds for the same reason. scripts/check_bench_query.py gates the
// structure: both rows present and error-free, identical rows/checksum
// (fusion must not change results), fused_ops > 0 only on the fused row,
// fewer plan nodes executed when fused, and fused real_time at least 1.2x
// faster. Absolute times are informational.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>

#include "bench/bench_common.h"
#include "query/parser.h"
#include "query/planner.h"
#include "query/query.h"
#include "util/metrics.h"

namespace ringo {
namespace bench {
namespace {

constexpr const char* kScript = R"(
  # Quarter of the edges, wide table -> graph -> 3 PageRank rounds -> top 100.
  g = graph(select(t, "kind = 1"), "src", "dst")
  top_k(pagerank(g, 3), "Score", 100)
)";

// LiveJournalSim's edges as a 19-column table: src, dst, a kind column the
// script filters on (kind = i % 4, so the select keeps 25%), and sixteen
// float payload columns that exist only to make materializing the
// filtered table expensive.
TablePtr WideEdgeTable() {
  const Dataset& d = LiveJournalSim();
  Schema schema{{"src", ColumnType::kInt},
                {"dst", ColumnType::kInt},
                {"kind", ColumnType::kInt}};
  for (int p = 0; p < 16; ++p) {
    schema.AddColumn("w" + std::to_string(p), ColumnType::kFloat)
        .Abort("WideEdgeTable");
  }
  TablePtr t = Table::Create(std::move(schema));
  const int64_t n = d.rows();
  for (int c = 0; c < t->num_columns(); ++c) t->mutable_column(c).Resize(n);
  const Column& src_in = d.edge_table->column(0);
  const Column& dst_in = d.edge_table->column(1);
  for (int64_t i = 0; i < n; ++i) {
    t->mutable_column(0).SetInt(i, src_in.GetInt(i));
    t->mutable_column(1).SetInt(i, dst_in.GetInt(i));
    t->mutable_column(2).SetInt(i, i % 4);
    for (int p = 0; p < 16; ++p) {
      t->mutable_column(3 + p).SetFloat(i, static_cast<double>(i + p));
    }
  }
  t->SealAppendedRows(n).Abort("WideEdgeTable");
  return t;
}

const TablePtr& SharedWideTable() {
  static const TablePtr t = WideEdgeTable();
  return t;
}

// The unfused reference: RunScript's stages minus FusePlan, summarized the
// way RunScript summarizes a table root.
Result<query::RunResult> RunUnfused(const query::RunOptions& opts) {
  RINGO_ASSIGN_OR_RETURN(const query::Script ast, query::Parse(kScript));
  std::map<std::string, Schema> schemas;
  for (const auto& [name, t] : opts.bindings) schemas[name] = t->schema();
  RINGO_ASSIGN_OR_RETURN(const query::Plan plan,
                         query::PlanScript(ast, schemas));
  RINGO_ASSIGN_OR_RETURN(
      query::QueryValue value,
      query::ExecutePlan(plan, query::ExecOptions{opts.pool, opts.bindings}));
  query::RunResult out;
  out.table = std::move(value.table);
  out.rows = out.table->NumRows();
  out.checksum = query::TableChecksum(*out.table);
  return out;
}

void RunScriptRow(benchmark::State& state, bool fused) {
  const TablePtr& t = SharedWideTable();
  query::RunOptions opts;
  opts.pool = t->pool();
  opts.bindings["t"] = t;

  int64_t rows = 0;
  int64_t fused_ops = 0;
  int64_t exec_nodes = 0;
  double checksum = 0.0;
  for (auto _ : state) {
    const int64_t f0 = metrics::CounterValue("query/fused_ops");
    const int64_t e0 = metrics::CounterValue("query/exec_nodes");
    Result<query::RunResult> r =
        fused ? query::RunScript(kScript, opts) : RunUnfused(opts);
    r.status().Abort("bench_query");
    rows = r->rows;
    checksum = r->checksum;
    fused_ops = metrics::CounterValue("query/fused_ops") - f0;
    exec_nodes = metrics::CounterValue("query/exec_nodes") - e0;
  }

  state.counters["bench_scale"] = benchmark::Counter(BenchScale());
  state.counters["table_rows"] = benchmark::Counter(double(t->NumRows()));
  state.counters["result_rows"] = benchmark::Counter(double(rows));
  state.counters["checksum"] = benchmark::Counter(checksum);
  state.counters["fused_ops"] = benchmark::Counter(double(fused_ops));
  state.counters["exec_nodes"] = benchmark::Counter(double(exec_nodes));
}

void BM_Query_ScriptFused(benchmark::State& state) {
  RunScriptRow(state, /*fused=*/true);
}
BENCHMARK(BM_Query_ScriptFused)->Unit(benchmark::kMillisecond);

void BM_Query_ScriptUnfused(benchmark::State& state) {
  RunScriptRow(state, /*fused=*/false);
}
BENCHMARK(BM_Query_ScriptUnfused)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace ringo

// Explicit main: metrics stay on so the query/* counters back the
// fused_ops / exec_nodes row counters the check script gates.
int main(int argc, char** argv) {
  ringo::metrics::SetEnabled(true);
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  ringo::bench::MaybeExportTrace();
  return 0;
}
