#include "algo/triangles.h"

#include <gtest/gtest.h>
#include <omp.h>

#include <set>
#include <string>
#include <vector>

#include "algo/algo_view.h"
#include "algo/compactcsr_switch.h"
#include "gen/graph_gen.h"
#include "stress/stress_support.h"
#include "test_support.h"

namespace ringo {
namespace {

TEST(TriangleCountTest, SingleTriangle) {
  UndirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(1, 3);
  EXPECT_EQ(TriangleCount(g), 1);
  EXPECT_EQ(ParallelTriangleCount(g), 1);
}

TEST(TriangleCountTest, CompleteGraphFormula) {
  // K_n has C(n,3) triangles.
  for (int64_t n : {4, 6, 8}) {
    const UndirectedGraph g = gen::Complete(n);
    EXPECT_EQ(TriangleCount(g), n * (n - 1) * (n - 2) / 6) << "K_" << n;
  }
}

TEST(TriangleCountTest, TriangleFreeGraphs) {
  EXPECT_EQ(TriangleCount(gen::Star(20)), 0);
  EXPECT_EQ(TriangleCount(gen::Ring(20)), 0);
  EXPECT_EQ(TriangleCount(gen::Grid(5, 5)), 0);
}

TEST(TriangleCountTest, SelfLoopsIgnored) {
  UndirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(1, 3);
  g.AddEdge(1, 1);
  g.AddEdge(2, 2);
  EXPECT_EQ(TriangleCount(g), 1);
}

// Property: fast counters match brute force across random graphs.
class TriangleProperty
    : public ::testing::TestWithParam<std::tuple<int64_t, uint64_t>> {};

TEST_P(TriangleProperty, MatchesBruteForce) {
  const auto [m, seed] = GetParam();
  UndirectedGraph g = testing::RandomUndirected(40, m, seed);
  const int64_t expect = testing::BruteTriangles(g);
  EXPECT_EQ(TriangleCount(g), expect);
  EXPECT_EQ(ParallelTriangleCount(g), expect);
}

INSTANTIATE_TEST_SUITE_P(
    Density, TriangleProperty,
    ::testing::Combine(::testing::Values<int64_t>(30, 100, 300),
                       ::testing::Values<uint64_t>(1, 2, 3)));

TEST(NodeTrianglesTest, SumIsThreeTimesTotal) {
  UndirectedGraph g = testing::RandomUndirected(60, 400, 9);
  const int64_t total = TriangleCount(g);
  int64_t node_sum = 0;
  for (const auto& [id, t] : NodeTriangles(g)) node_sum += t;
  EXPECT_EQ(node_sum, 3 * total);
}

TEST(NodeTrianglesTest, KnownValues) {
  // Two triangles sharing the edge {1,2}.
  UndirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  g.AddEdge(2, 3);
  g.AddEdge(1, 4);
  g.AddEdge(2, 4);
  FlatHashMap<NodeId, int64_t> tri;
  for (const auto& [id, t] : NodeTriangles(g)) tri.Insert(id, t);
  EXPECT_EQ(*tri.Find(1), 2);
  EXPECT_EQ(*tri.Find(2), 2);
  EXPECT_EQ(*tri.Find(3), 1);
  EXPECT_EQ(*tri.Find(4), 1);
}

TEST(ClusteringTest, CompleteIsOne) {
  EXPECT_DOUBLE_EQ(AverageClusteringCoefficient(gen::Complete(6)), 1.0);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(gen::Complete(6)), 1.0);
}

TEST(ClusteringTest, TriangleFreeIsZero) {
  EXPECT_DOUBLE_EQ(AverageClusteringCoefficient(gen::Star(10)), 0.0);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(gen::Ring(10)), 0.0);
}

TEST(ClusteringTest, LocalValuesKnownGraph) {
  // Triangle {1,2,3} plus pendant 4 on node 1.
  UndirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(1, 3);
  g.AddEdge(1, 4);
  FlatHashMap<NodeId, double> cc;
  for (const auto& [id, c] : LocalClusteringCoefficients(g)) cc.Insert(id, c);
  EXPECT_NEAR(*cc.Find(1), 1.0 / 3.0, 1e-12);  // 1 triangle / C(3,2).
  EXPECT_DOUBLE_EQ(*cc.Find(2), 1.0);
  EXPECT_DOUBLE_EQ(*cc.Find(4), 0.0);  // Degree 1.
}

TEST(ClusteringTest, GlobalOnPathKnown) {
  // Path 0-1-2: one wedge, no triangle.
  UndirectedGraph g;
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 0.0);
  g.AddEdge(0, 2);  // Close it: 3 wedges, 1 triangle → 3*1/3 = 1.
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 1.0);
}

// Called by the members of an enclosing OpenMP team, each call runs its
// loops inline or in a one-thread nested team and must use a marker slot
// of its own.
TEST(TriangleCountTest, CallsFromInsideAnOpenMpTeam) {
  const UndirectedGraph g = testing::RandomUndirected(300, 2500, 0x0E);
  const int64_t total = testing::BruteTriangles(g);
  const NodeInts node = testing::BruteNodeTriangles(g);
  std::vector<int> ok(3, 0);
#pragma omp parallel num_threads(3)
  {
    const int t = omp_get_thread_num();
    ok[t] = TriangleCount(g) == total && ParallelTriangleCount(g) == total &&
            NodeTriangles(g) == node;
  }
  EXPECT_EQ(ok, std::vector<int>(3, 1));
}

TEST(TriangleCountTest, RMatGraphSequentialEqualsParallel) {
  const auto edges = gen::RMatEdges(9, 6000, 4).ValueOrDie();
  const UndirectedGraph g = gen::BuildUndirected(edges);
  EXPECT_EQ(TriangleCount(g), ParallelTriangleCount(g));
}

// ---------------------------------------------------------------- shapes
//
// Every triangle API against the brute-force references and the tests/
// merge-kernel oracles, exactly (clustering included: the references use
// the kernel's formulas on the brute-force counts, so the doubles must be
// bit-identical), at 1 and 4 threads, on the plain, compact and
// delta-patched snapshot layouts.

enum class Layout { kPlain, kCompact, kDelta };

struct Shape {
  std::string name;
  std::vector<NodeId> nodes;  // Added first, so isolated nodes stay.
  std::vector<Edge> edges;
};

UndirectedGraph BuildShape(const std::vector<NodeId>& nodes,
                           const std::vector<Edge>& edges) {
  UndirectedGraph g;
  for (const NodeId id : nodes) g.AddNode(id);
  for (const auto& [u, v] : edges) g.AddEdge(u, v);
  return g;
}

// Windmill: `blades` triangles {0, 2b+1, 2b+2} sharing hub 0.
Shape Windmill(int64_t blades) {
  Shape s{"windmill", {}, {}};
  for (int64_t b = 0; b < blades; ++b) {
    s.edges.push_back({0, 2 * b + 1});
    s.edges.push_back({0, 2 * b + 2});
    s.edges.push_back({2 * b + 1, 2 * b + 2});
  }
  return s;
}

// A star on hub 0 with `leaves` leaves, plus a `k`-clique whose first
// vertex is also a leaf of the star.
Shape StarPlusClique(int64_t leaves, int64_t k) {
  Shape s{"star_plus_clique", {}, {}};
  for (int64_t l = 1; l <= leaves; ++l) s.edges.push_back({0, l});
  for (int64_t a = 0; a < k; ++a) {
    for (int64_t b = a + 1; b < k; ++b) {
      s.edges.push_back({leaves + a, leaves + b});
    }
  }
  return s;
}

// The edges of a random simple graph on ids 0..n-1.
std::vector<Edge> RandomEdges(int64_t n, int64_t m, uint64_t seed) {
  const std::set<Edge> edges =
      testing::EdgeSet(testing::RandomUndirected(n, m, seed));
  return {edges.begin(), edges.end()};
}

// A random graph beside isolated nodes.
Shape WithIsolated() {
  Shape s{"isolated", {}, RandomEdges(60, 300, 0x150)};
  for (NodeId id = 0; id < 90; ++id) s.nodes.push_back(id);
  return s;
}

// A random graph with a self-loop on every node.
Shape SelfLoopEverywhere() {
  Shape s{"self_loops", {}, RandomEdges(50, 250, 0x5E1F)};
  for (NodeId id = 0; id < 50; ++id) s.edges.push_back({id, id});
  return s;
}

// A random graph on sparse, non-contiguous ids (including negative ones).
Shape NonContiguousIds() {
  Shape s{"sparse_ids", {}, RandomEdges(70, 400, 0x1D5)};
  for (auto& [u, v] : s.edges) {
    u = u * 7919 - 100000 + u % 3;
    v = v * 7919 - 100000 + v % 3;
  }
  return s;
}

std::vector<Shape> Shapes() {
  return {Windmill(40),
          StarPlusClique(60, 9),
          WithIsolated(),
          SelfLoopEverywhere(),
          NonContiguousIds(),
          {"empty", {}, {}},
          {"one_node", {42}, {}},
          {"one_self_loop", {}, {{7, 7}}}};
}

// Builds `shape` so that its snapshot has the requested layout. kDelta
// caches a snapshot of a nearby graph first (the lightest edge missing, a
// non-edge present), then applies the difference as one edge batch, so the
// kernels read a patched view. Returns whether the view is patched.
bool MakeGraph(const Shape& shape, Layout layout, UndirectedGraph* g) {
  if (layout != Layout::kDelta || shape.edges.empty()) {
    *g = BuildShape(shape.nodes, shape.edges);
    return false;
  }
  const UndirectedGraph full = BuildShape(shape.nodes, shape.edges);
  auto weight = [&](const Edge& e) {
    return full.Degree(e.first) + full.Degree(e.second);
  };
  const Edge light = *std::min_element(
      shape.edges.begin(), shape.edges.end(),
      [&](const Edge& a, const Edge& b) { return weight(a) < weight(b); });
  std::vector<Edge> initial;
  for (const Edge& e : shape.edges) {
    if (e != light) initial.push_back(e);
  }
  // A self-loop on the light edge's first endpoint is absent from every
  // shape except the all-self-loops one, where it is already an edge.
  const Edge extra{light.first, light.first};
  const bool add_extra = !full.HasEdge(extra.first, extra.second);
  if (add_extra) initial.push_back(extra);
  *g = BuildShape(shape.nodes, initial);
  for (const auto& [u, v] : shape.edges) {  // Same node set as `full`.
    g->AddNode(u);
    g->AddNode(v);
  }
  (void)AlgoView::Of(*g);
  g->ApplyEdgeBatch({light},
                    add_extra ? std::vector<Edge>{extra} : std::vector<Edge>{});
  return AlgoView::Of(*g)->PatchedNodes() > 0;
}

void ExpectTrianglesExact(const UndirectedGraph& g, const std::string& ctx) {
  const int64_t total = testing::BruteTriangles(g);
  ASSERT_EQ(testing::RefForwardTriangles(g), total) << ctx;
  const NodeInts node = testing::BruteNodeTriangles(g);
  ASSERT_EQ(testing::RefNodeTriangleCounts(g), node) << ctx;
  NodeValues local;
  double local_sum = 0.0;
  int64_t triangles3 = 0, wedges = 0;
  for (const auto& [id, t] : node) {
    int64_t deg = 0;
    for (const NodeId v : g.GetNode(id)->nbrs) deg += v != id;
    const double pairs = static_cast<double>(deg) * (deg - 1) / 2.0;
    local.emplace_back(id, pairs > 0 ? static_cast<double>(t) / pairs : 0.0);
    local_sum += local.back().second;
    triangles3 += t;
    wedges += deg * (deg - 1) / 2;
  }
  const double average =
      local.empty() ? 0.0 : local_sum / static_cast<double>(local.size());
  const double global = wedges > 0 ? static_cast<double>(triangles3) /
                                         static_cast<double>(wedges)
                                   : 0.0;
  for (const int tc : {1, 4}) {
    testing::ScopedNumThreads threads(tc);
    const std::string at = ctx + " tc=" + std::to_string(tc);
    EXPECT_EQ(TriangleCount(g), total) << at;
    EXPECT_EQ(ParallelTriangleCount(g), total) << at;
    EXPECT_EQ(NodeTriangles(g), node) << at;
    EXPECT_EQ(LocalClusteringCoefficients(g), local) << at;
    EXPECT_EQ(AverageClusteringCoefficient(g), average) << at;
    EXPECT_EQ(GlobalClusteringCoefficient(g), global) << at;
  }
}

class TriangleShapes : public ::testing::TestWithParam<Layout> {};

TEST_P(TriangleShapes, EveryShapeMatchesReferences) {
  compactcsr::ScopedEnable compact(GetParam() == Layout::kCompact);
  for (const Shape& shape : Shapes()) {
    UndirectedGraph g;
    const bool patched = MakeGraph(shape, GetParam(), &g);
    // Shapes with enough arcs must really reach the kernels patched.
    if (GetParam() == Layout::kDelta && shape.edges.size() >= 100) {
      EXPECT_TRUE(patched) << shape.name;
    }
    ExpectTrianglesExact(g, shape.name);
  }
}

// Calls in a row on graphs that alternate between larger and smaller node
// counts stay exact: no marker residue carries from one call to the next.
TEST_P(TriangleShapes, CallsInARowOnDifferentSizes) {
  compactcsr::ScopedEnable compact(GetParam() == Layout::kCompact);
  const std::vector<Shape> sequence = {StarPlusClique(300, 20), Windmill(5),
                                       StarPlusClique(120, 12),
                                       {"one_node", {3}, {}}, Windmill(60)};
  for (const Shape& shape : sequence) {
    UndirectedGraph g;
    MakeGraph(shape, GetParam(), &g);
    ExpectTrianglesExact(g, shape.name);
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, TriangleShapes,
                         ::testing::Values(Layout::kPlain, Layout::kCompact,
                                           Layout::kDelta),
                         [](const auto& info) {
                           switch (info.param) {
                             case Layout::kPlain:
                               return std::string("Plain");
                             case Layout::kCompact:
                               return std::string("Compact");
                             case Layout::kDelta:
                               return std::string("Delta");
                           }
                           return std::string();
                         });

}  // namespace
}  // namespace ringo
