// End-to-end tests for RunScript / Ringo::RunQuery: fused executions are
// bit-identical to the unfused staged pipeline (including empty inputs), a
// script matches the hand-composed C++ pipeline cell for cell, join probes
// share one build side, and deadlines land between plan nodes.
#include "query/query.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "algo/pagerank.h"
#include "core/engine.h"
#include "query/parser.h"
#include "query/planner.h"
#include "table/table.h"
#include "util/cancel.h"
#include "util/metrics.h"

namespace ringo {
namespace query {
namespace {

// The unfused reference: the staged pipeline Parse → PlanScript →
// ExecutePlan without the FusePlan call that RunScript makes. Summarized
// the way RunScript summarizes its root value.
RunResult RunUnfused(const std::string& script, const RunOptions& opts) {
  Result<Script> ast = Parse(script);
  RINGO_CHECK_OK(ast.status());
  std::map<std::string, Schema> schemas;
  for (const auto& [name, t] : opts.bindings) schemas[name] = t->schema();
  Result<Plan> plan = PlanScript(*ast, schemas);
  RINGO_CHECK_OK(plan.status());
  Result<QueryValue> value =
      ExecutePlan(*plan, ExecOptions{opts.pool, opts.bindings});
  RINGO_CHECK_OK(value.status());
  RunResult out;
  if (value->table != nullptr) {
    out.table = value->table;
    out.rows = out.table->NumRows();
    out.checksum = TableChecksum(*out.table);
  } else {
    out.graph = value->graph;
    out.rows = out.graph->NumNodes();
    out.checksum = static_cast<double>(out.graph->NumEdges());
  }
  return out;
}

// Bit-identical table equality: schema, row ids, and every cell, with
// doubles compared by bits.
void ExpectSameTable(const Table& a, const Table& b, const std::string& ctx) {
  ASSERT_EQ(a.schema().ToString(), b.schema().ToString()) << ctx;
  ASSERT_EQ(a.NumRows(), b.NumRows()) << ctx;
  for (int64_t r = 0; r < a.NumRows(); ++r) {
    ASSERT_EQ(a.RowId(r), b.RowId(r)) << ctx << " row " << r;
  }
  for (int c = 0; c < a.num_columns(); ++c) {
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    for (int64_t r = 0; r < a.NumRows(); ++r) {
      switch (ca.type()) {
        case ColumnType::kFloat: {
          uint64_t ba, bb;
          const double da = ca.GetFloat(r), db = cb.GetFloat(r);
          std::memcpy(&ba, &da, sizeof(ba));
          std::memcpy(&bb, &db, sizeof(bb));
          ASSERT_EQ(ba, bb) << ctx << " col " << c << " row " << r;
          break;
        }
        case ColumnType::kInt:
          ASSERT_EQ(ca.GetInt(r), cb.GetInt(r))
              << ctx << " col " << c << " row " << r;
          break;
        case ColumnType::kString:
          ASSERT_EQ(ca.GetStr(r), cb.GetStr(r))
              << ctx << " col " << c << " row " << r;
          break;
      }
    }
  }
}

// A deterministic edge table: src/dst ids with collisions, a float weight
// with ties, and a two-value tag column so selections keep about half.
TablePtr MakeEdgeTable(int64_t rows, std::shared_ptr<StringPool> pool) {
  Schema schema{{"src", ColumnType::kInt},
                {"dst", ColumnType::kInt},
                {"w", ColumnType::kFloat},
                {"tag", ColumnType::kString}};
  TablePtr t = Table::Create(std::move(schema), std::move(pool));
  for (int64_t i = 0; i < rows; ++i) {
    RINGO_CHECK_OK(t->AppendRow(
        {i % 23, (i * 7 + 3) % 19, static_cast<double>(i % 5) / 4.0,
         std::string(i % 2 == 0 ? "java" : "cpp")}));
  }
  return t;
}

// Runs one script twice — fused through RunScript, unfused through the
// staged pipeline — and asserts the results are bit-identical tables with
// matching row/checksum summaries. Returns the fused result for further
// checks.
RunResult RunBothWays(const std::string& script, const RunOptions& opts,
                      const std::string& ctx) {
  Result<RunResult> r = RunScript(script, opts);
  RINGO_CHECK_OK(r.status());
  const RunResult fused = std::move(*r);
  const RunResult unfused = RunUnfused(script, opts);
  EXPECT_EQ(fused.rows, unfused.rows) << ctx;
  EXPECT_EQ(fused.checksum, unfused.checksum) << ctx;
  if (fused.table != nullptr || unfused.table != nullptr) {
    EXPECT_TRUE(fused.table != nullptr && unfused.table != nullptr) << ctx;
    ExpectSameTable(*fused.table, *unfused.table, ctx);
  }
  return fused;
}

const char kPipelineScript[] =
    "f = select(t, \"tag = java\")\n"
    "g = graph(f, \"src\", \"dst\")\n"
    "pr = pagerank(g, 8)\n"
    "top_k(pr, \"Score\", 10)\n";

TEST(QueryE2ETest, FusedSelectGraphIsBitIdenticalAndSkipsTheSelect) {
  metrics::SetEnabled(true);
  RunOptions opts;
  opts.bindings["t"] = MakeEdgeTable(4000, nullptr);

  const int64_t nodes0 = metrics::CounterValue("query/exec_nodes");
  RINGO_CHECK_OK(RunScript(kPipelineScript, opts).status());
  const int64_t fused_nodes =
      metrics::CounterValue("query/exec_nodes") - nodes0;
  RunUnfused(kPipelineScript, opts);
  const int64_t unfused_nodes =
      metrics::CounterValue("query/exec_nodes") - nodes0 - fused_nodes;
  // Fused: bind, filtered_graph, pagerank, top_k — the orphaned select
  // never executes, which is the "no intermediate table" guarantee.
  EXPECT_EQ(fused_nodes, 4);
  EXPECT_EQ(unfused_nodes, 5);

  RunBothWays(kPipelineScript, opts, "select+graph pipeline");
}

// Compound (and/or) predicates through both execution paths: the fused
// filtered_graph carries the whole DNF, and must keep exactly the rows
// the unfused select keeps.
TEST(QueryE2ETest, CompoundSelectFusedAndUnfusedAgree) {
  RunOptions opts;
  opts.bindings["t"] = MakeEdgeTable(4000, nullptr);
  RunBothWays(
      "f = select(t, \"tag = java and w >= 0.5 or src = 3\")\n"
      "g = graph(f, \"src\", \"dst\")\n"
      "pr = pagerank(g, 8)\n"
      "top_k(pr, \"Score\", 10)\n",
      opts, "compound select+graph pipeline");
  // Every DNF group contributes edges no other group keeps, so a fused
  // predicate that lost a group would change the edge table.
  const RunResult edges = RunBothWays(
      "g = graph(select(t, \"src = 3 and tag = java or src = 5\"), "
      "\"src\", \"dst\")\n"
      "edges(g)\n",
      opts, "compound select+graph edges");
  ASSERT_NE(edges.table, nullptr);
  EXPECT_GT(edges.rows, 0);
  const RunResult r = RunBothWays(
      "select(t, \"tag = cpp and w < 0.3 or tag = java and w > 0.8\")", opts,
      "compound select root");
  ASSERT_NE(r.table, nullptr);
  // Spot-check the DNF semantics against a hand evaluation.
  const TablePtr t = opts.bindings["t"];
  int64_t want = 0;
  for (int64_t i = 0; i < t->NumRows(); ++i) {
    const bool cpp = t->column(3).GetStr(i) == t->pool()->Find("cpp");
    const double w = t->column(2).GetFloat(i);
    if ((cpp && w < 0.3) || (!cpp && w > 0.8)) ++want;
  }
  EXPECT_EQ(r.table->NumRows(), want);
}

TEST(QueryE2ETest, ProjectPushdownAndGroupByPruneAreBitIdentical) {
  RunOptions opts;
  opts.bindings["t"] = MakeEdgeTable(3000, nullptr);
  RunBothWays("project(order_by(t, \"-w\", \"src\"), \"w\", \"src\")", opts,
              "project below order_by");
  RunBothWays(
      "g = group_by(t, \"tag\", count(\"n\"), sum(\"w\", \"total\"))\n"
      "project(g, \"tag\", \"n\")\n",
      opts, "group_by agg prune");
}

TEST(QueryE2ETest, EmptyTablesAndEmptySelectionsRunClean) {
  RunOptions opts;
  opts.bindings["t"] = MakeEdgeTable(0, nullptr);
  const RunResult empty =
      RunBothWays(kPipelineScript, opts, "empty input table");
  EXPECT_EQ(empty.rows, 0);
  EXPECT_EQ(empty.checksum, 0.0);

  // Non-empty table, but the predicate matches nothing.
  RunOptions opts2;
  opts2.bindings["t"] = MakeEdgeTable(500, nullptr);
  const RunResult none = RunBothWays(
      "g = graph(select(t, \"src = 99999\"), \"src\", \"dst\")\n"
      "top_k(pagerank(g, 4), \"Score\", 3)\n",
      opts2, "empty selection");
  EXPECT_EQ(none.rows, 0);
}

TEST(QueryE2ETest, RunQueryMatchesHandComposedPipeline) {
  Ringo ringo;
  const std::string path = ::testing::TempDir() + "/query_e2e_posts.tsv";
  {
    std::ofstream out(path, std::ios::binary);
    for (int i = 0; i < 400; ++i) {
      out << i % 13 << '\t' << (i * 5 + 1) % 17 << '\t'
          << (i % 2 == 0 ? "java" : "cpp") << '\n';
    }
  }

  const std::string script =
      "posts = load(\"" + path + "\", \"src:int,dst:int,tag:string\")\n"
      "j = select(posts, \"tag = java\")\n"
      "g = graph(j, \"src\", \"dst\")\n"
      "pr = pagerank(g, 12)\n"
      "top_k(pr, \"Score\", 7)\n";
  Result<TablePtr> scripted = ringo.RunQuery(script);
  RINGO_CHECK_OK(scripted.status());

  // The same pipeline composed by hand from the public C++ API, with the
  // exact operator configuration the executor uses (fixed rounds, tol 0).
  Schema schema{{"src", ColumnType::kInt},
                {"dst", ColumnType::kInt},
                {"tag", ColumnType::kString}};
  Result<TablePtr> posts = ringo.LoadTableTSV(schema, path);
  RINGO_CHECK_OK(posts.status());
  Result<TablePtr> j = ringo.Select(*posts, "tag = java");
  RINGO_CHECK_OK(j.status());
  Result<DirectedGraph> g = ringo.ToGraph(*j, "src", "dst");
  RINGO_CHECK_OK(g.status());
  PageRankConfig cfg;
  cfg.max_iters = 12;
  cfg.tol = 0;
  Result<NodeValues> scores = ParallelPageRank(*g, cfg);
  RINGO_CHECK_OK(scores.status());
  TablePtr pr =
      ringo.NewTable({{"NodeId", ColumnType::kInt},
                      {"Score", ColumnType::kFloat}});
  for (const auto& [id, score] : *scores) {
    RINGO_CHECK_OK(pr->AppendRow({id, score}));
  }
  Result<TablePtr> top = pr->TopK("Score", 7);
  RINGO_CHECK_OK(top.status());

  ExpectSameTable(**scripted, **top, "RunQuery vs hand pipeline");
  std::remove(path.c_str());
}

TEST(QueryE2ETest, JoinProbesReuseOneBuildSide) {
  metrics::SetEnabled(true);
  auto pool = std::make_shared<StringPool>();
  TablePtr t = MakeEdgeTable(800, pool);
  TablePtr r = Table::Create(
      Schema{{"key", ColumnType::kInt}, {"val", ColumnType::kInt}}, pool);
  for (int64_t i = 0; i < 19; ++i) {
    RINGO_CHECK_OK(r->AppendRow({i, i * 100}));
  }

  RunOptions opts;
  opts.bindings["t"] = t;
  opts.bindings["r"] = r;
  const int64_t reuse0 = metrics::CounterValue("query/join_build_reuse");
  Result<RunResult> res = RunScript(
      "j1 = join(t, r, \"dst\", \"key\")\n"
      "join(j1, r, \"dst\", \"key\")\n",
      opts);
  RINGO_CHECK_OK(res.status());
  // Both probes hit the same (right node, key column, pool): one build.
  EXPECT_EQ(metrics::CounterValue("query/join_build_reuse") - reuse0, 1);

  Result<TablePtr> j1 = Table::JoinMulti(*t, *r, {"dst"}, {"key"});
  RINGO_CHECK_OK(j1.status());
  Result<TablePtr> j2 = Table::JoinMulti(**j1, *r, {"dst"}, {"key"});
  RINGO_CHECK_OK(j2.status());
  ExpectSameTable(*res->table, **j2, "join chain vs JoinMulti");
}

TEST(QueryE2ETest, RunQueryRejectsAGraphResult) {
  Ringo ringo;
  const std::string path = ::testing::TempDir() + "/query_e2e_graph.tsv";
  {
    std::ofstream out(path, std::ios::binary);
    out << "1\t2\n2\t3\n";
  }
  const Result<TablePtr> r = ringo.RunQuery(
      "graph(load(\"" + path + "\", \"src:int,dst:int\"), \"src\", \"dst\")");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status();
  EXPECT_NE(r.status().message().find("query result is a graph"),
            std::string::npos)
      << r.status();
  std::remove(path.c_str());
}

TEST(QueryE2ETest, GraphResultsSummarizeNodesAndEdges) {
  RunOptions opts;
  opts.bindings["t"] = MakeEdgeTable(100, nullptr);
  Result<RunResult> res =
      RunScript("graph(t, \"src\", \"dst\")", opts);
  RINGO_CHECK_OK(res.status());
  ASSERT_NE(res->graph, nullptr);
  EXPECT_EQ(res->table, nullptr);
  EXPECT_EQ(res->rows, res->graph->NumNodes());
  EXPECT_EQ(res->checksum, static_cast<double>(res->graph->NumEdges()));
}

TEST(QueryE2ETest, TableChecksumSumsNumericCellsOnly) {
  auto pool = std::make_shared<StringPool>();
  TablePtr t = Table::Create(Schema{{"a", ColumnType::kInt},
                                    {"b", ColumnType::kFloat},
                                    {"s", ColumnType::kString}},
                             pool);
  RINGO_CHECK_OK(t->AppendRow({int64_t{3}, 0.5, std::string("x")}));
  RINGO_CHECK_OK(t->AppendRow({int64_t{-1}, 0.25, std::string("y")}));
  RunOptions opts;
  opts.bindings["t"] = t;
  Result<RunResult> res = RunScript("order_by(t, \"a\")", opts);
  RINGO_CHECK_OK(res.status());
  EXPECT_EQ(res->rows, 2);
  // String interning ids stay out of the checksum: 3 - 1 + 0.5 + 0.25.
  EXPECT_EQ(res->checksum, 2.75);
}

TEST(QueryE2ETest, ExpiredDeadlineCancelsBetweenPlanNodes) {
  RunOptions opts;
  opts.bindings["t"] = MakeEdgeTable(50, nullptr);

  cancel::CancelToken token;
  token.SetDeadline(cancel::NowNanos() - 1);  // Already expired.
  cancel::ScopedToken scoped(&token);
  const Result<RunResult> r = RunScript("top_k(t, \"src\", 1)", opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsDeadlineExceeded()) << r.status();
  EXPECT_NE(r.status().message().find("between plan nodes"),
            std::string::npos)
      << r.status();
}

TEST(QueryE2ETest, ExecErrorsCarryPositionAndOperator) {
  const Result<RunResult> r = RunScript(
      "load(\"/nonexistent/query_e2e_nope.tsv\", \"id:int\")", {});
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError()) << r.status();
  EXPECT_NE(r.status().message().find("line 1, col 1 (load):"),
            std::string::npos)
      << r.status();
}

}  // namespace
}  // namespace query
}  // namespace ringo
