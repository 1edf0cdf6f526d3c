// Golden tests for the logical planner and the fusion pass: PlanToString
// snapshots before and after FusePlan, and semantic errors with their
// 1-based source positions. The string form is the contract — a
// formatting change here is an intentional API change.
#include "query/planner.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "query/parser.h"
#include "util/metrics.h"
#include "util/status.h"

namespace ringo {
namespace query {
namespace {

Schema EdgeSchema() {
  return Schema{{"src", ColumnType::kInt},
                {"dst", ColumnType::kInt},
                {"w", ColumnType::kFloat},
                {"tag", ColumnType::kString}};
}

std::map<std::string, Schema> Bind() { return {{"t", EdgeSchema()}}; }

Result<Plan> PlanSrc(const std::string& src,
                     const std::map<std::string, Schema>& bindings = {}) {
  RINGO_ASSIGN_OR_RETURN(const Script ast, Parse(src));
  return PlanScript(ast, bindings);
}

Plan MustPlan(const std::string& src,
              const std::map<std::string, Schema>& bindings = {}) {
  Result<Plan> p = PlanSrc(src, bindings);
  RINGO_CHECK_OK(p.status());
  return std::move(*p);
}

void ExpectPlanError(const std::string& src, const std::string& want,
                     const std::map<std::string, Schema>& bindings = {}) {
  const Result<Plan> p = PlanSrc(src, bindings);
  ASSERT_FALSE(p.ok()) << "planned unexpectedly: " << src;
  EXPECT_TRUE(p.status().IsInvalidArgument()) << p.status();
  EXPECT_NE(p.status().message().find(want), std::string::npos)
      << "message: " << p.status().message() << "\nwant substring: " << want;
}

// ------------------------------------------------------------- goldens

TEST(PlannerTest, GoldenPipelinePlan) {
  const Plan plan = MustPlan(
      "f = select(t, \"tag = java\")\n"
      "g = graph(f, \"src\", \"dst\")\n"
      "pr = pagerank(g, 20)\n"
      "top_k(pr, \"Score\", 5)\n",
      Bind());
  EXPECT_EQ(PlanToString(plan),
            "#0 = bind(t) [src:int, dst:int, w:float, tag:string]\n"
            "#1 = select(#0, tag = \"java\") "
            "[src:int, dst:int, w:float, tag:string]\n"
            "#2 = graph(#1, src, dst) [graph]\n"
            "#3 = pagerank(#2, 20) [NodeId:int, Score:float]\n"
            "#4 = top_k(#3, Score, 5) [NodeId:int, Score:float]\n"
            "root = #4\n");
}

TEST(PlannerTest, GoldenLoadJoinGroupBy) {
  const Plan plan = MustPlan(
      "a = load(\"a.tsv\", \"id:int,w:float\", true)\n"
      "b = load(\"b.tsv\", \"id:int,tag:string\")\n"
      "j = join(a, b, \"id\", \"id\")\n"
      "group_by(j, \"tag\", count(\"n\"), mean(\"w\", \"avg\"))\n");
  EXPECT_EQ(PlanToString(plan),
            "#0 = load(\"a.tsv\", header) [id:int, w:float]\n"
            "#1 = load(\"b.tsv\") [id:int, tag:string]\n"
            "#2 = join(#0, #1, id, id) "
            "[id-1:int, w:float, id-2:int, tag:string]\n"
            "#3 = group_by(#2, tag, count(n), mean(w, avg)) "
            "[tag:string, n:int, avg:float]\n"
            "root = #3\n");
}

TEST(PlannerTest, GoldenGraphToTablesAndDefaults) {
  const Plan plan = MustPlan(
      "g = graph(t, \"src\", \"dst\")\n"
      "n = nodes(g)\n"
      "e = edges(g)\n"
      "pr = pagerank(g)\n"  // Default iteration count.
      "unique(order_by(e, \"-SrcId\"), \"SrcId\")\n",
      Bind());
  EXPECT_EQ(PlanToString(plan),
            "#0 = bind(t) [src:int, dst:int, w:float, tag:string]\n"
            "#1 = graph(#0, src, dst) [graph]\n"
            "#2 = nodes(#1) [NodeId:int, InDeg:int, OutDeg:int]\n"
            "#3 = edges(#1) [SrcId:int, DstId:int]\n"
            "#4 = pagerank(#1, 10) [NodeId:int, Score:float]\n"
            "#5 = order_by(#3, -SrcId) [SrcId:int, DstId:int]\n"
            "#6 = unique(#5, SrcId) [SrcId:int, DstId:int]\n"
            "root = #6\n");
}

// -------------------------------------------------------------- fusion

TEST(PlannerFusionTest, SelectIntoGraphBecomesFilteredGraph) {
  metrics::SetEnabled(true);
  Plan plan = MustPlan(
      "f = select(t, \"tag = java\")\n"
      "g = graph(f, \"src\", \"dst\")\n"
      "pagerank(g, 20)\n",
      Bind());
  const int64_t rule0 = metrics::CounterValue("query/fused_select_to_graph");
  const int64_t ops0 = metrics::CounterValue("query/fused_ops");
  EXPECT_EQ(FusePlan(&plan), 1);
  // The graph node now reads the *unfiltered* table with the predicate
  // inline; the select stays in the vector but is orphaned (no consumer),
  // so the executor never runs it.
  EXPECT_EQ(PlanToString(plan),
            "#0 = bind(t) [src:int, dst:int, w:float, tag:string]\n"
            "#1 = select(#0, tag = \"java\") "
            "[src:int, dst:int, w:float, tag:string]\n"
            "#2 = filtered_graph(#0, tag = \"java\", src, dst) [graph]\n"
            "#3 = pagerank(#2, 20) [NodeId:int, Score:float]\n"
            "root = #3\n");
  EXPECT_EQ(metrics::CounterValue("query/fused_select_to_graph") - rule0, 1);
  EXPECT_EQ(metrics::CounterValue("query/fused_ops") - ops0, 1);
  EXPECT_EQ(FusePlan(&plan), 0) << "fusion must be a fixpoint";
}

TEST(PlannerFusionTest, SharedSelectIsNotFused) {
  // The select feeds both the graph build and the root top_k: fusing it
  // away would force the predicate to run twice, so the rule must not fire.
  Plan plan = MustPlan(
      "f = select(t, \"tag = java\")\n"
      "g = graph(f, \"src\", \"dst\")\n"
      "top_k(f, \"w\", 3)\n",
      Bind());
  const std::string before = PlanToString(plan);
  EXPECT_EQ(FusePlan(&plan), 0);
  EXPECT_EQ(PlanToString(plan), before);
}

TEST(PlannerFusionTest, ProjectPushesBelowOrderBy) {
  metrics::SetEnabled(true);
  Plan plan = MustPlan("project(order_by(t, \"-w\", \"src\"), \"w\", \"src\")",
                       Bind());
  EXPECT_EQ(PlanToString(plan),
            "#0 = bind(t) [src:int, dst:int, w:float, tag:string]\n"
            "#1 = order_by(#0, -w, src) "
            "[src:int, dst:int, w:float, tag:string]\n"
            "#2 = project(#1, w, src) [w:float, src:int]\n"
            "root = #2\n");
  const int64_t rule0 = metrics::CounterValue("query/fused_project_pushdown");
  EXPECT_EQ(FusePlan(&plan), 1);
  EXPECT_EQ(PlanToString(plan),
            "#0 = bind(t) [src:int, dst:int, w:float, tag:string]\n"
            "#1 = project(#0, w, src) [w:float, src:int]\n"
            "#2 = order_by(#1, -w, src) [w:float, src:int]\n"
            "root = #2\n");
  EXPECT_EQ(metrics::CounterValue("query/fused_project_pushdown") - rule0, 1);
}

TEST(PlannerFusionTest, ProjectDroppingASortColumnStaysPut) {
  // The sort reads `w` but the projection drops it: sorting the narrowed
  // table would be ill-formed, so no rewrite.
  Plan plan = MustPlan("project(order_by(t, \"-w\"), \"src\")", Bind());
  const std::string before = PlanToString(plan);
  EXPECT_EQ(FusePlan(&plan), 0);
  EXPECT_EQ(PlanToString(plan), before);
}

TEST(PlannerFusionTest, GroupByAggsPrunedByProject) {
  metrics::SetEnabled(true);
  Plan plan = MustPlan(
      "g = group_by(t, \"tag\", count(\"n\"), sum(\"w\", \"total\"))\n"
      "project(g, \"tag\", \"n\")\n",
      Bind());
  const int64_t rule0 = metrics::CounterValue("query/fused_groupby_prune");
  EXPECT_EQ(FusePlan(&plan), 1);
  // sum(w, total) is discarded by the projection, so it is never computed.
  EXPECT_EQ(PlanToString(plan),
            "#0 = bind(t) [src:int, dst:int, w:float, tag:string]\n"
            "#1 = group_by(#0, tag, count(n)) [tag:string, n:int]\n"
            "#2 = project(#1, tag, n) [tag:string, n:int]\n"
            "root = #2\n");
  EXPECT_EQ(metrics::CounterValue("query/fused_groupby_prune") - rule0, 1);
}

// The unfused reference the parity suites run is the planner's own output:
// PlanScript never applies a rewrite, only FusePlan does.
TEST(PlannerFusionTest, PlanScriptAppliesNoRewrite) {
  metrics::SetEnabled(true);
  const int64_t ops0 = metrics::CounterValue("query/fused_ops");
  Plan plan = MustPlan(
      "f = select(t, \"tag = java\")\n"
      "g = graph(f, \"src\", \"dst\")\n"
      "pagerank(g, 20)\n",
      Bind());
  EXPECT_EQ(PlanToString(plan),
            "#0 = bind(t) [src:int, dst:int, w:float, tag:string]\n"
            "#1 = select(#0, tag = \"java\") "
            "[src:int, dst:int, w:float, tag:string]\n"
            "#2 = graph(#1, src, dst) [graph]\n"
            "#3 = pagerank(#2, 20) [NodeId:int, Score:float]\n"
            "root = #3\n");
  EXPECT_EQ(metrics::CounterValue("query/fused_ops"), ops0);
}

// -------------------------------------------------------------- errors

TEST(PlannerErrorTest, UndefinedVariable) {
  ExpectPlanError("graph(x, \"a\", \"b\")",
                  "line 1, col 7: undefined variable 'x'");
}

TEST(PlannerErrorTest, VariableAssignedTwice) {
  ExpectPlanError(
      "a = load(\"f.tsv\", \"x:int\")\na = load(\"f.tsv\", \"x:int\")",
      "line 2, col 1: variable 'a' is assigned twice");
}

TEST(PlannerErrorTest, UnknownFunction) {
  ExpectPlanError("frobnicate(1)", "line 1, col 1: unknown function "
                                   "'frobnicate'");
}

TEST(PlannerErrorTest, ArityMismatchQuotesTheSignature) {
  ExpectPlanError("select(t)",
                  "'select' expects (table, \"col <op> literal\"), got 1 "
                  "argument(s)",
                  Bind());
  ExpectPlanError("top_k(t, \"w\")", "'top_k' expects (table, col, k), got 2 "
                                     "argument(s)",
                  Bind());
}

TEST(PlannerErrorTest, UnknownColumnListsTheSchema) {
  ExpectPlanError("select(t, \"zz = 1\")",
                  "no column 'zz' in [src:int, dst:int, w:float, tag:string]",
                  Bind());
}

TEST(PlannerErrorTest, PredicateLiteralTypeMismatch) {
  ExpectPlanError("select(t, \"src = java\")",
                  "predicate literal type does not match int column 'src'",
                  Bind());
}

TEST(PlannerErrorTest, IntPredicateCoercesToFloatColumn) {
  // An int literal against a float column is the one allowed coercion.
  const Plan plan = MustPlan("select(t, \"w > 2\")", Bind());
  EXPECT_NE(PlanToString(plan).find("select(#0, w > 2)"), std::string::npos);
}

// ------------------------------------------- compound (and/or) predicates

TEST(PlannerCompoundTest, GoldenCompoundSelect) {
  const Plan plan =
      MustPlan("select(t, \"tag = java and w > 2 or src = 5\")", Bind());
  EXPECT_EQ(PlanToString(plan),
            "#0 = bind(t) [src:int, dst:int, w:float, tag:string]\n"
            "#1 = select(#0, tag = \"java\" and w > 2 or src = 5) "
            "[src:int, dst:int, w:float, tag:string]\n"
            "root = #1\n");
}

TEST(PlannerCompoundTest, CompoundSelectIntoGraphFuses) {
  Plan plan = MustPlan(
      "f = select(t, \"tag = java or tag = go\")\n"
      "g = graph(f, \"src\", \"dst\")\n"
      "pagerank(g, 20)\n",
      Bind());
  EXPECT_EQ(FusePlan(&plan), 1);
  EXPECT_NE(
      PlanToString(plan).find(
          "filtered_graph(#0, tag = \"java\" or tag = \"go\", src, dst)"),
      std::string::npos)
      << PlanToString(plan);
}

// Every leaf is resolved against the schema, wherever it sits in the DNF:
// diagnostics must fire for a bad column or literal in any AND-group.
TEST(PlannerCompoundTest, DiagnosticsCoverEveryLeaf) {
  ExpectPlanError("select(t, \"src = 1 and zz = 2\")",
                  "no column 'zz' in [src:int, dst:int, w:float, tag:string]",
                  Bind());
  ExpectPlanError("select(t, \"tag = java or src = go\")",
                  "predicate literal type does not match int column 'src'",
                  Bind());
  ExpectPlanError("select(t, \"src = 1 and\")", "empty clause", Bind());
}

TEST(PlannerCompoundTest, IntCoercionAppliesPerLeaf) {
  // The int→float coercion runs on each leaf independently.
  const Plan plan = MustPlan("select(t, \"w > 2 or w < 1\")", Bind());
  EXPECT_NE(PlanToString(plan).find("select(#0, w > 2 or w < 1)"),
            std::string::npos);
}

TEST(PlannerErrorTest, TableGraphKindMismatch) {
  ExpectPlanError("pagerank(t)",
                  "argument 1 of 'pagerank' is a table, expected a graph",
                  Bind());
  ExpectPlanError("g = graph(t, \"src\", \"dst\")\ntop_k(g, \"w\", 1)",
                  "argument 1 of 'top_k' is a graph, expected a table",
                  Bind());
}

TEST(PlannerErrorTest, GraphNodeIdColumnMustNotBeFloat) {
  ExpectPlanError("graph(t, \"w\", \"dst\")",
                  "node id column 'w' must be int or string, not float",
                  Bind());
}

TEST(PlannerErrorTest, JoinKeyTypesMustAgree) {
  ExpectPlanError("join(t, t, \"src\", \"tag\")",
                  "join key types differ: int vs string", Bind());
}

TEST(PlannerErrorTest, GroupByNeedsAKeyAndTypedAggs) {
  ExpectPlanError("group_by(t, \"\", count(\"n\"))",
                  "group_by needs at least one key", Bind());
  ExpectPlanError("group_by(t, \"tag\", sum(\"tag\", \"s\"))",
                  "aggregate over string column 'tag' supports only "
                  "first/count",
                  Bind());
  ExpectPlanError("group_by(t, \"tag\", 7)",
                  "expected an aggregate: count(name), or "
                  "sum/min/max/mean/first(col, name)",
                  Bind());
}

TEST(PlannerErrorTest, RangeChecksOnKAndIters) {
  ExpectPlanError("top_k(t, \"w\", -1)", "top_k k must be >= 0", Bind());
  ExpectPlanError("g = graph(t, \"src\", \"dst\")\npagerank(g, 0)",
                  "pagerank iters must be > 0", Bind());
}

TEST(PlannerErrorTest, BadLoadSchemaSpec) {
  ExpectPlanError("load(\"f.tsv\", \"id\")",
                  "schema field 'id' is not 'name:type'");
  ExpectPlanError("load(\"f.tsv\", \"\")", "empty schema spec");
}

TEST(PlannerErrorTest, EmptyScriptAndLiteralStatements) {
  ExpectPlanError("", "empty query script");
  ExpectPlanError("# nothing but a comment", "empty query script");
  ExpectPlanError("42", "statement has no effect (literal)");
}

}  // namespace
}  // namespace query
}  // namespace ringo
