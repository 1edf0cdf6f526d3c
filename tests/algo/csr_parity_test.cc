// Parity suite for the algorithm library on AlgoView spans (DESIGN.md
// §10). Every algorithm reads dense neighbor spans from the cached
// snapshot; the hash-of-vectors adjacency is the source of truth. Three
// kinds of checks tie the two together across a matrix of graph families
// (random, R-MAT, star, chain, disconnected, self-loops, isolated nodes,
// directed and undirected):
//   * Span structure: AlgoView::Of(g) numbers nodes in ascending id order,
//     and each node's Out/In span (and ForEachOut/ForEachIn visit) equals
//     its hash adjacency mapped to dense indices, in the same order. The
//     kernels that only consume spans (PageRank, HITS, Louvain, the
//     BFS-per-node centralities, label propagation, ANF) therefore see
//     exactly the graph's adjacency.
//   * Self-loop invariance: the span kernels skip self-loop entries in
//     place, so on the self-loop families they must return exactly what
//     they return on the same graph with its self-loops removed.
//   * Brute-force references (tests/test_support.h) for the algorithms
//     with their own counting logic: triangles, clustering, core numbers
//     and k-cores, modularity, degree and the BFS-distance centralities.
// Each algorithm also pins a hand-computed golden value on a small
// deterministic graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "algo/algo_view.h"
#include "algo/anf.h"
#include "algo/centrality.h"
#include "algo/community.h"
#include "algo/hits.h"
#include "algo/kcore.h"
#include "algo/louvain.h"
#include "algo/pagerank.h"
#include "algo/triangles.h"
#include "gen/graph_gen.h"
#include "test_support.h"

namespace ringo {
namespace {

constexpr double kTol = 1e-12;

// ------------------------------------------------------------ family matrix

struct UndirectedFamily {
  std::string name;
  UndirectedGraph g;
};

std::vector<UndirectedFamily> UndirectedFamilies() {
  std::vector<UndirectedFamily> fams;
  fams.push_back({"random", testing::RandomUndirected(300, 900, 0xC0FFEE)});
  fams.push_back(
      {"rmat",
       gen::BuildUndirected(gen::RMatEdges(7, 1500, 0xBEEF).ValueOrDie())});
  fams.push_back({"star", gen::Star(64)});
  {
    UndirectedGraph chain;
    for (NodeId i = 0; i < 50; ++i) chain.AddNode(i);
    for (NodeId i = 0; i + 1 < 50; ++i) chain.AddEdge(i, i + 1);
    fams.push_back({"chain", std::move(chain)});
  }
  {
    // Two components with an id gap between them.
    UndirectedGraph disc = testing::RandomUndirected(120, 300, 0xD15C);
    for (NodeId i = 0; i < 40; ++i) disc.AddNode(1000 + i);
    for (NodeId i = 0; i + 1 < 40; ++i) disc.AddEdge(1000 + i, 1000 + i + 1);
    disc.AddEdge(1039, 1000);
    fams.push_back({"disconnected", std::move(disc)});
  }
  {
    UndirectedGraph loops = testing::RandomUndirected(100, 250, 0x100F);
    for (NodeId i = 0; i < 100; i += 7) loops.AddEdge(i, i);
    fams.push_back({"self_loops", std::move(loops)});
  }
  {
    UndirectedGraph iso = testing::RandomUndirected(80, 160, 0x150);
    for (NodeId i = 500; i < 510; ++i) iso.AddNode(i);
    fams.push_back({"isolated", std::move(iso)});
  }
  return fams;
}

struct DirectedFamily {
  std::string name;
  DirectedGraph g;
};

std::vector<DirectedFamily> DirectedFamilies() {
  std::vector<DirectedFamily> fams;
  fams.push_back({"random", testing::RandomDirected(300, 1200, 0xFEED)});
  fams.push_back(
      {"rmat",
       gen::BuildDirected(gen::RMatEdges(7, 1500, 0xACE).ValueOrDie())});
  {
    DirectedGraph star;  // Leaves point at the hub; hub points at leaf 1.
    for (NodeId i = 0; i <= 32; ++i) star.AddNode(i);
    for (NodeId i = 1; i <= 32; ++i) star.AddEdge(i, 0);
    star.AddEdge(0, 1);
    fams.push_back({"star", std::move(star)});
  }
  {
    DirectedGraph chain;
    for (NodeId i = 0; i < 50; ++i) chain.AddNode(i);
    for (NodeId i = 0; i + 1 < 50; ++i) chain.AddEdge(i, i + 1);
    fams.push_back({"chain", std::move(chain)});
  }
  {
    DirectedGraph disc = testing::RandomDirected(120, 400, 0xD00D);
    for (NodeId i = 0; i < 40; ++i) disc.AddNode(1000 + i);
    for (NodeId i = 0; i + 1 < 40; ++i) disc.AddEdge(1000 + i, 1000 + i + 1);
    fams.push_back({"disconnected", std::move(disc)});
  }
  fams.push_back({"self_loops", testing::RandomDirected(100, 300, 0x5E1F,
                                                        /*self_loops=*/true)});
  {
    DirectedGraph iso = testing::RandomDirected(80, 200, 0x1507);
    for (NodeId i = 500; i < 510; ++i) iso.AddNode(i);
    fams.push_back({"isolated", std::move(iso)});
  }
  return fams;
}

// ----------------------------------------------------------------- helpers

void ExpectValuesNear(const NodeValues& got, const NodeValues& want,
                      double tol = kTol) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first) << "slot " << i;
    EXPECT_NEAR(got[i].second, want[i].second, tol)
        << "node " << want[i].first;
  }
}

double ValueOf(const NodeValues& vals, NodeId id) {
  for (const auto& [vid, v] : vals) {
    if (vid == id) return v;
  }
  ADD_FAILURE() << "node " << id << " missing";
  return 0;
}

int64_t IntOf(const NodeInts& vals, NodeId id) {
  for (const auto& [vid, v] : vals) {
    if (vid == id) return v;
  }
  ADD_FAILURE() << "node " << id << " missing";
  return 0;
}

// `ids` mapped to dense view indices, order preserved.
std::vector<int64_t> Dense(const AlgoView& view,
                           const std::vector<NodeId>& ids) {
  std::vector<int64_t> out;
  out.reserve(ids.size());
  for (NodeId id : ids) out.push_back(view.IndexOf(id));
  return out;
}

std::vector<int64_t> SpanVec(const NbrSpan& s) {
  return std::vector<int64_t>(s.begin(), s.end());
}

template <typename ForEachFn>
std::vector<int64_t> Visited(ForEachFn&& for_each) {
  std::vector<int64_t> out;
  for_each([&](int64_t v) { out.push_back(v); });
  return out;
}

// Ascending-id dense numbering, shared by both graph kinds.
template <typename Graph>
void ExpectAscendingNumbering(const AlgoView& view, const Graph& g) {
  const std::vector<NodeId> ids = g.SortedNodeIds();
  ASSERT_EQ(view.NumNodes(), static_cast<int64_t>(ids.size()));
  for (int64_t i = 0; i < view.NumNodes(); ++i) {
    EXPECT_EQ(view.IdOf(i), ids[i]) << "index " << i;
    EXPECT_EQ(view.IndexOf(ids[i]), i) << "id " << ids[i];
  }
}

// A copy of `g` with every self-loop removed. The node set is unchanged,
// so the dense numbering is too.
UndirectedGraph WithoutSelfLoops(const UndirectedGraph& g, int64_t* removed) {
  UndirectedGraph out = g;
  *removed = 0;
  for (NodeId id : g.SortedNodeIds()) {
    if (g.HasEdge(id, id) && out.DelEdge(id, id)) ++*removed;
  }
  return out;
}

DirectedGraph WithoutSelfLoops(const DirectedGraph& g, int64_t* removed) {
  DirectedGraph out = g;
  *removed = 0;
  for (NodeId id : g.SortedNodeIds()) {
    if (g.HasEdge(id, id) && out.DelEdge(id, id)) ++*removed;
  }
  return out;
}

// The self_loops family plus a sparse graph with a loop on every node,
// where a loop that leaked into a distance, vote or sum would show.
std::vector<UndirectedFamily> UndirectedSelfLoopGraphs() {
  std::vector<UndirectedFamily> out;
  for (auto& fam : UndirectedFamilies()) {
    if (fam.name == "self_loops") out.push_back(std::move(fam));
  }
  UndirectedGraph looped = testing::RandomUndirected(60, 90, 0x100E);
  for (NodeId i = 0; i < 60; ++i) looped.AddEdge(i, i);
  out.push_back({"every_node_looped", std::move(looped)});
  return out;
}

std::vector<DirectedFamily> DirectedSelfLoopGraphs() {
  std::vector<DirectedFamily> out;
  for (auto& fam : DirectedFamilies()) {
    if (fam.name == "self_loops") out.push_back(std::move(fam));
  }
  DirectedGraph looped = testing::RandomDirected(60, 120, 0x100D);
  for (NodeId i = 0; i < 60; ++i) looped.AddEdge(i, i);
  out.push_back({"every_node_looped", std::move(looped)});
  return out;
}

// --------------------------------------------------------- span structure

TEST(CsrParity, SpanStructureUndirected) {
  for (const auto& fam : UndirectedFamilies()) {
    SCOPED_TRACE(fam.name);
    const std::shared_ptr<const AlgoView> view = AlgoView::Of(fam.g);
    EXPECT_FALSE(view->directed());
    ExpectAscendingNumbering(*view, fam.g);
    for (int64_t i = 0; i < view->NumNodes(); ++i) {
      const std::vector<int64_t> want =
          Dense(*view, fam.g.GetNode(view->IdOf(i))->nbrs);
      EXPECT_EQ(SpanVec(view->Out(i)), want) << "Out " << i;
      EXPECT_EQ(SpanVec(view->In(i)), want) << "In " << i;
      EXPECT_EQ(view->OutDegree(i), static_cast<int64_t>(want.size()));
      EXPECT_EQ(Visited([&](auto&& fn) { view->ForEachOut(i, fn); }), want);
      EXPECT_EQ(Visited([&](auto&& fn) { view->ForEachIn(i, fn); }), want);
    }
  }
}

TEST(CsrParity, SpanStructureDirected) {
  for (const auto& fam : DirectedFamilies()) {
    SCOPED_TRACE(fam.name);
    const std::shared_ptr<const AlgoView> view = AlgoView::Of(fam.g);
    EXPECT_TRUE(view->directed());
    ExpectAscendingNumbering(*view, fam.g);
    for (int64_t i = 0; i < view->NumNodes(); ++i) {
      const DirectedGraph::NodeData* nd = fam.g.GetNode(view->IdOf(i));
      const std::vector<int64_t> out = Dense(*view, nd->out);
      const std::vector<int64_t> in = Dense(*view, nd->in);
      EXPECT_EQ(SpanVec(view->Out(i)), out) << "Out " << i;
      EXPECT_EQ(SpanVec(view->In(i)), in) << "In " << i;
      EXPECT_EQ(view->OutDegree(i), static_cast<int64_t>(out.size()));
      EXPECT_EQ(view->InDegree(i), static_cast<int64_t>(in.size()));
      EXPECT_EQ(Visited([&](auto&& fn) { view->ForEachOut(i, fn); }), out);
      EXPECT_EQ(Visited([&](auto&& fn) { view->ForEachIn(i, fn); }), in);
    }
  }
}

// ---------------------------------------------------- self-loop invariance

TEST(CsrParity, SelfLoopInvarianceUndirected) {
  const std::vector<UndirectedFamily> fams = UndirectedSelfLoopGraphs();
  ASSERT_EQ(fams.size(), 2u);
  for (const auto& fam : fams) {
    SCOPED_TRACE(fam.name);
    int64_t removed = 0;
    const UndirectedGraph clean = WithoutSelfLoops(fam.g, &removed);
    ASSERT_GT(removed, 0);
    ASSERT_EQ(clean.NumEdges(), fam.g.NumEdges() - removed);
    const UndirectedGraph& g = fam.g;

    EXPECT_EQ(ClosenessCentrality(g), ClosenessCentrality(clean));
    EXPECT_EQ(HarmonicCentrality(g), HarmonicCentrality(clean));
    EXPECT_EQ(BetweennessCentrality(g), BetweennessCentrality(clean));
    EXPECT_EQ(ApproxClosenessCentrality(g, 16, 0x5EED),
              ApproxClosenessCentrality(clean, 16, 0x5EED));
    EXPECT_EQ(ApproxBetweennessCentrality(g, 16, 0x5EED),
              ApproxBetweennessCentrality(clean, 16, 0x5EED));
    EXPECT_EQ(EigenvectorCentrality(g).ValueOrDie(),
              EigenvectorCentrality(clean).ValueOrDie());
    EXPECT_EQ(Eccentricities(g), Eccentricities(clean));
    EXPECT_EQ(LabelPropagation(g, 50, 0x1A8E1),
              LabelPropagation(clean, 50, 0x1A8E1));
    const AnfResult a =
        ApproxNeighborhoodFunction(g, 4, 32, 0xA11F).ValueOrDie();
    const AnfResult b =
        ApproxNeighborhoodFunction(clean, 4, 32, 0xA11F).ValueOrDie();
    EXPECT_EQ(a.neighborhood, b.neighborhood);
    EXPECT_EQ(a.effective_diameter, b.effective_diameter);
  }
}

TEST(CsrParity, SelfLoopInvarianceDirected) {
  const std::vector<DirectedFamily> fams = DirectedSelfLoopGraphs();
  ASSERT_EQ(fams.size(), 2u);
  for (const auto& fam : fams) {
    SCOPED_TRACE(fam.name);
    int64_t removed = 0;
    const DirectedGraph clean = WithoutSelfLoops(fam.g, &removed);
    ASSERT_GT(removed, 0);
    ASSERT_EQ(clean.NumEdges(), fam.g.NumEdges() - removed);
    EXPECT_EQ(ClosenessCentralityDirected(fam.g),
              ClosenessCentralityDirected(clean));
    EXPECT_EQ(BetweennessCentralityDirected(fam.g),
              BetweennessCentralityDirected(clean));
  }
}

// -------------------------------------------------------------- PageRank

// Span structure covers the family matrix; these pin the arithmetic.
TEST(CsrParity, PageRankGoldenCycle) {
  // Directed 4-cycle: by symmetry every node has rank exactly 1/4.
  DirectedGraph g;
  for (NodeId i = 0; i < 4; ++i) g.AddNode(i);
  for (NodeId i = 0; i < 4; ++i) g.AddEdge(i, (i + 1) % 4);
  const NodeValues pr = PageRank(g, {}).ValueOrDie();
  ASSERT_EQ(pr.size(), 4u);
  for (const auto& [id, v] : pr) EXPECT_NEAR(v, 0.25, 1e-9) << id;
}

// Named regression: rank mass parked on dangling (out-degree-0) nodes is
// redistributed, so total rank stays exactly 1.
TEST(CsrParity, PageRankDanglingMassConserved) {
  DirectedGraph g = testing::RandomDirected(200, 500, 0xDA41);
  for (NodeId i = 900; i < 910; ++i) g.AddNode(i);  // Dangling sinks.
  for (NodeId i = 0; i < 10; ++i) g.AddEdge(i, 900 + i);
  PageRankConfig config;
  config.max_iters = 60;
  config.tol = 0.0;
  const NodeValues pr = PageRank(g, config).ValueOrDie();
  double sum = 0;
  for (const auto& [id, v] : pr) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// ------------------------------------------------------------------ HITS

TEST(CsrParity, HitsGoldenStar) {
  // Hub 0 points at 4 leaves: hub(0) = 1, auth(leaf) = 1/2 under L2 norm.
  DirectedGraph g;
  for (NodeId i = 0; i <= 4; ++i) g.AddNode(i);
  for (NodeId i = 1; i <= 4; ++i) g.AddEdge(0, i);
  const HitsScores s = Hits(g, {}).ValueOrDie();
  EXPECT_NEAR(ValueOf(s.hubs, 0), 1.0, 1e-9);
  for (NodeId i = 1; i <= 4; ++i) {
    EXPECT_NEAR(ValueOf(s.authorities, i), 0.5, 1e-9) << i;
    EXPECT_NEAR(ValueOf(s.hubs, i), 0.0, 1e-9) << i;
  }
  EXPECT_NEAR(ValueOf(s.authorities, 0), 0.0, 1e-9);
}

// ------------------------------------------------------------- triangles

TEST(CsrParity, TrianglesMatchBruteForce) {
  for (const auto& fam : UndirectedFamilies()) {
    SCOPED_TRACE(fam.name);
    const int64_t total = testing::BruteTriangles(fam.g);
    EXPECT_EQ(TriangleCount(fam.g), total);
    EXPECT_EQ(ParallelTriangleCount(fam.g), total);
    const NodeInts node_tri = testing::BruteNodeTriangles(fam.g);
    EXPECT_EQ(NodeTriangles(fam.g), node_tri);

    // Clustering from the brute-force counts; degrees exclude self-loops.
    NodeValues local;
    int64_t closed = 0, wedges = 0;
    double local_sum = 0.0;
    for (const auto& [id, t] : node_tri) {
      const int64_t deg = fam.g.Degree(id) - (fam.g.HasEdge(id, id) ? 1 : 0);
      const int64_t pairs = deg * (deg - 1) / 2;
      const double c =
          pairs > 0 ? static_cast<double>(t) / static_cast<double>(pairs)
                    : 0.0;
      local.emplace_back(id, c);
      local_sum += c;
      closed += t;
      wedges += pairs;
    }
    ExpectValuesNear(LocalClusteringCoefficients(fam.g), local);
    EXPECT_NEAR(AverageClusteringCoefficient(fam.g),
                local_sum / static_cast<double>(local.size()), kTol);
    EXPECT_NEAR(GlobalClusteringCoefficient(fam.g),
                wedges > 0 ? static_cast<double>(closed) /
                                 static_cast<double>(wedges)
                           : 0.0,
                kTol);
  }
}

// Named regression: self-loops are not wedges and close no triangles.
TEST(CsrParity, TrianglesGoldenSelfLoops) {
  UndirectedGraph k5 = gen::Complete(5);
  EXPECT_EQ(TriangleCount(k5), 10);
  for (NodeId i = 0; i < 5; ++i) k5.AddEdge(i, i);
  EXPECT_EQ(TriangleCount(k5), 10);
  EXPECT_EQ(ParallelTriangleCount(k5), 10);
  const NodeInts nt = NodeTriangles(k5);
  for (const auto& [id, t] : nt) EXPECT_EQ(t, 6) << id;  // C(4,2).
  // Self-loops are excluded from the degree, so K5's coefficient is 1.
  for (const auto& [id, c] : LocalClusteringCoefficients(k5)) {
    EXPECT_NEAR(c, 1.0, kTol) << id;
  }
  EXPECT_NEAR(GlobalClusteringCoefficient(k5), 1.0, kTol);
}

// ---------------------------------------------------------------- k-core

TEST(CsrParity, KCoreMatchesNaivePeeling) {
  for (const auto& fam : UndirectedFamilies()) {
    SCOPED_TRACE(fam.name);
    const NodeInts cores = testing::NaiveCoreNumbers(fam.g);
    EXPECT_EQ(CoreNumbers(fam.g), cores);
    int64_t degeneracy = 0;
    for (const auto& [id, c] : cores) degeneracy = std::max(degeneracy, c);
    EXPECT_EQ(Degeneracy(fam.g), degeneracy);
    for (const int64_t k : {1, 2, 3}) {
      const UndirectedGraph got = KCoreSubgraph(fam.g, k);
      const UndirectedGraph want = testing::NaiveKCore(fam.g, k);
      EXPECT_EQ(got.SortedNodeIds(), want.SortedNodeIds()) << "k=" << k;
      EXPECT_EQ(testing::EdgeSet(got), testing::EdgeSet(want)) << "k=" << k;
    }
  }
}

// Named regression: isolated nodes have core number 0 and a pendant keeps
// core 1 while the clique keeps 3.
TEST(CsrParity, KCoreGoldenPendantAndIsolated) {
  UndirectedGraph g = gen::Complete(4);  // Nodes 0..3.
  g.AddNode(4);
  g.AddEdge(3, 4);  // Pendant.
  g.AddNode(5);     // Isolated.
  const NodeInts cores = CoreNumbers(g);
  for (NodeId i = 0; i < 4; ++i) EXPECT_EQ(IntOf(cores, i), 3) << i;
  EXPECT_EQ(IntOf(cores, 4), 1);
  EXPECT_EQ(IntOf(cores, 5), 0);
  EXPECT_EQ(Degeneracy(g), 3);
  const UndirectedGraph three_core = KCoreSubgraph(g, 3);
  EXPECT_EQ(three_core.NumNodes(), 4);
  EXPECT_EQ(three_core.NumEdges(), 6);
}

// ------------------------------------------------------------ centrality

TEST(CsrParity, DegreeCentralityMatchesDefinition) {
  auto expect = [](const NodeValues& got, const std::vector<NodeId>& ids,
                   auto&& degree_of) {
    const int64_t n = static_cast<int64_t>(ids.size());
    const double denom = n > 1 ? static_cast<double>(n - 1) : 1.0;
    NodeValues want;
    for (NodeId id : ids) {
      want.emplace_back(id, static_cast<double>(degree_of(id)) / denom);
    }
    EXPECT_EQ(got, want);
  };
  for (const auto& fam : UndirectedFamilies()) {
    SCOPED_TRACE(fam.name);
    expect(DegreeCentrality(fam.g), fam.g.SortedNodeIds(),
           [&](NodeId id) { return fam.g.Degree(id); });
  }
  for (const auto& fam : DirectedFamilies()) {
    SCOPED_TRACE(fam.name);
    expect(InDegreeCentrality(fam.g), fam.g.SortedNodeIds(),
           [&](NodeId id) { return fam.g.InDegree(id); });
    expect(OutDegreeCentrality(fam.g), fam.g.SortedNodeIds(),
           [&](NodeId id) { return fam.g.OutDegree(id); });
  }
}

// Closeness, harmonic and eccentricity from all-pairs distances.
TEST(CsrParity, DistanceCentralitiesMatchBruteForce) {
  for (const auto& fam : UndirectedFamilies()) {
    SCOPED_TRACE(fam.name);
    const std::vector<NodeId> ids = fam.g.SortedNodeIds();
    const int64_t n = static_cast<int64_t>(ids.size());
    const auto d = testing::BruteAllPairs(fam.g);
    constexpr int64_t kInf = INT64_MAX / 4;
    NodeValues closeness, harmonic;
    NodeInts ecc;
    for (int64_t u = 0; u < n; ++u) {
      int64_t total = 0, r = 0, e = 0;
      double h = 0.0;
      for (int64_t v = 0; v < n; ++v) {
        if (d[u][v] >= kInf) continue;
        ++r;
        total += d[u][v];
        e = std::max(e, d[u][v]);
        if (v != u) h += 1.0 / static_cast<double>(d[u][v]);
      }
      double c = 0.0;
      if (total > 0 && n > 1) {
        c = (static_cast<double>(r - 1) / total) *
            (static_cast<double>(r - 1) / static_cast<double>(n - 1));
      }
      closeness.emplace_back(ids[u], c);
      harmonic.emplace_back(ids[u],
                            n > 1 ? h / static_cast<double>(n - 1) : 0.0);
      ecc.emplace_back(ids[u], e);
    }
    ExpectValuesNear(ClosenessCentrality(fam.g), closeness);
    ExpectValuesNear(HarmonicCentrality(fam.g), harmonic);
    EXPECT_EQ(Eccentricities(fam.g), ecc);
  }
}

TEST(CsrParity, CentralityGoldenPath) {
  // Path 0-1-2-3-4: betweenness {0,3,4,3,0}; closeness(2) = 2/3.
  UndirectedGraph g;
  for (NodeId i = 0; i < 5; ++i) g.AddNode(i);
  for (NodeId i = 0; i + 1 < 5; ++i) g.AddEdge(i, i + 1);
  const double want_bc[] = {0, 3, 4, 3, 0};
  const NodeValues bc = BetweennessCentrality(g);
  for (NodeId i = 0; i < 5; ++i) {
    EXPECT_NEAR(ValueOf(bc, i), want_bc[i], 1e-9) << i;
  }
  EXPECT_NEAR(ValueOf(ClosenessCentrality(g), 2), 2.0 / 3.0, 1e-9);
  const NodeInts ecc = Eccentricities(g);
  EXPECT_EQ(IntOf(ecc, 0), 4);
  EXPECT_EQ(IntOf(ecc, 2), 2);
}

// ------------------------------------------------------------- community

TEST(CsrParity, ModularityMatchesDefinition) {
  for (const auto& fam : UndirectedFamilies()) {
    SCOPED_TRACE(fam.name);
    const NodeInts lp = LabelPropagation(fam.g, 50, 0x1A8E1);
    EXPECT_NEAR(Modularity(fam.g, lp), testing::BruteModularity(fam.g, lp),
                1e-9);
    const LouvainResult lv = Louvain(fam.g, {}).ValueOrDie();
    EXPECT_NEAR(lv.modularity,
                testing::BruteModularity(fam.g, lv.communities), 1e-9);
    // An arbitrary partition with negative, sparse labels and one node
    // left unlabeled.
    NodeInts odd;
    for (NodeId id : fam.g.SortedNodeIds()) {
      if (id % 11 == 5) continue;
      odd.emplace_back(id, id % 3 == 0 ? -9 : (int64_t{1} << 50) + id % 4);
    }
    EXPECT_NEAR(Modularity(fam.g, odd), testing::BruteModularity(fam.g, odd),
                1e-9);
  }
}

TEST(CsrParity, CommunityGoldenTwoTriangles) {
  UndirectedGraph g;
  for (NodeId i = 0; i < 6; ++i) g.AddNode(i);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  g.AddEdge(3, 4);
  g.AddEdge(4, 5);
  g.AddEdge(3, 5);
  const NodeInts labels = LabelPropagation(g);
  EXPECT_EQ(IntOf(labels, 0), IntOf(labels, 1));
  EXPECT_EQ(IntOf(labels, 1), IntOf(labels, 2));
  EXPECT_EQ(IntOf(labels, 3), IntOf(labels, 4));
  EXPECT_EQ(IntOf(labels, 4), IntOf(labels, 5));
  EXPECT_NE(IntOf(labels, 0), IntOf(labels, 3));
  // Perfect split of two disjoint triangles: Q = 1/2.
  EXPECT_NEAR(Modularity(g, labels), 0.5, 1e-9);
}

// Named regression: a self-loop counts 2 in both degree and internal sum
// (A_uu = 2), so a single node with a self-loop scores Q = 0, not 0.25.
TEST(CsrParity, ModularityGoldenSelfLoop) {
  UndirectedGraph g;
  g.AddNode(0);
  g.AddEdge(0, 0);
  const NodeInts labels = {{0, 0}};
  EXPECT_NEAR(Modularity(g, labels), 0.0, kTol);
  EXPECT_NEAR(testing::BruteModularity(g, labels), 0.0, kTol);
  // And a self-loop on a clique node must not change the perfect-split
  // optimum's ordering: Q(two K4 split) stays the maximum.
  UndirectedGraph two;
  for (NodeId i = 0; i < 8; ++i) two.AddNode(i);
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = i + 1; j < 4; ++j) {
      two.AddEdge(i, j);
      two.AddEdge(i + 4, j + 4);
    }
  }
  NodeInts split;
  for (NodeId i = 0; i < 8; ++i) split.push_back({i, i < 4 ? 0 : 1});
  EXPECT_NEAR(Modularity(two, split), 0.5, 1e-9);
}

// --------------------------------------------------------------- Louvain

TEST(CsrParity, LouvainGoldenTwoCliques) {
  UndirectedGraph g;
  for (NodeId i = 0; i < 8; ++i) g.AddNode(i);
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = i + 1; j < 4; ++j) {
      g.AddEdge(i, j);
      g.AddEdge(i + 4, j + 4);
    }
  }
  const LouvainResult r = Louvain(g, {}).ValueOrDie();
  EXPECT_NEAR(r.modularity, 0.5, 1e-9);
  EXPECT_EQ(IntOf(r.communities, 0), IntOf(r.communities, 3));
  EXPECT_EQ(IntOf(r.communities, 4), IntOf(r.communities, 7));
  EXPECT_NE(IntOf(r.communities, 0), IntOf(r.communities, 4));
}

// ------------------------------------------------------------------- ANF

// Named regression ("ANF seed stability"): a fixed seed gives a single,
// reproducible estimate — run twice, get bit-identical results — and on a
// complete graph the neighborhood plateaus at h = 1 (effective diameter in
// (0, 1]) with a monotone curve.
TEST(CsrParity, AnfGoldenCompleteGraphSeedStable) {
  const UndirectedGraph k8 = gen::Complete(8);
  const AnfResult once =
      ApproxNeighborhoodFunction(k8, 3, 64, 0x5EED).ValueOrDie();
  const AnfResult twice =
      ApproxNeighborhoodFunction(k8, 3, 64, 0x5EED).ValueOrDie();
  ASSERT_EQ(once.neighborhood, twice.neighborhood);
  ASSERT_EQ(once.effective_diameter, twice.effective_diameter);
  for (size_t h = 1; h < once.neighborhood.size(); ++h) {
    EXPECT_GE(once.neighborhood[h], once.neighborhood[h - 1]) << h;
  }
  // Diameter 1: every pair is reached at the first hop.
  EXPECT_EQ(once.neighborhood[1], once.neighborhood[2]);
  EXPECT_GT(once.effective_diameter, 0.0);
  EXPECT_LE(once.effective_diameter, 1.0);
}

}  // namespace
}  // namespace ringo
