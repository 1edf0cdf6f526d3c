// Stress: parallel graph algorithms across every stress thread count.
// PageRank's blocked reductions make the parallel path bit-identical to
// the sequential one, so these tests assert *exact* equality of doubles —
// any reintroduction of a team-size-dependent reduction fails loudly.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "algo/anf.h"
#include "algo/centrality.h"
#include "algo/community.h"
#include "algo/connectivity.h"
#include "algo/hits.h"
#include "algo/kcore.h"
#include "algo/louvain.h"
#include "algo/pagerank.h"
#include "algo/triangles.h"
#include "stress/stress_support.h"
#include "test_support.h"
#include "util/parallel.h"

namespace ringo {
namespace {

using testing::ScopedNumThreads;
using testing::StressThreadCounts;

TEST(PageRankStress, ParallelIsBitIdenticalToSequential) {
  const DirectedGraph g = testing::RandomDirected(8000, 60000, 0xFACE);
  PageRankConfig config;
  config.max_iters = 30;
  config.tol = 0.0;  // Fixed iteration count: no convergence-path variance.
  ScopedNumThreads seq(1);
  const NodeValues reference = PageRank(g, config).ValueOrDie();
  ASSERT_EQ(static_cast<int64_t>(reference.size()), g.NumNodes());
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    const NodeValues got = ParallelPageRank(g, config).ValueOrDie();
    ASSERT_EQ(got.size(), reference.size()) << "tc=" << tc;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].first, reference[i].first) << "tc=" << tc;
      // Exact double equality, not a tolerance.
      ASSERT_EQ(got[i].second, reference[i].second)
          << "tc=" << tc << " node=" << got[i].first;
    }
  }
}

TEST(ConnectivityStress, ComponentLabelsAreThreadCountInvariant) {
  const DirectedGraph g = testing::RandomDirected(6000, 9000, 0xCAB);
  const UndirectedGraph ug = testing::RandomUndirected(6000, 4500, 0xCAC);
  const ComponentLabels reference = testing::RefWeakComponents(g);
  const ComponentLabels undirected_reference = testing::RefWeakComponents(ug);
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    ASSERT_EQ(WeaklyConnectedComponents(g), reference) << "tc=" << tc;
    ASSERT_EQ(ConnectedComponents(ug), undirected_reference) << "tc=" << tc;
    ASSERT_EQ(StronglyConnectedComponents(g),
              StronglyConnectedComponents(g))
        << "tc=" << tc;
  }
}

TEST(ConnectivityStress, MatchesBruteForceReachabilityOnSmallGraph) {
  const UndirectedGraph g = testing::RandomUndirected(60, 70, 0x60D);
  const auto dist = testing::BruteAllPairs(g);
  const ComponentLabels labels = ConnectedComponents(g);
  constexpr int64_t kInf = INT64_MAX / 4;
  ASSERT_EQ(static_cast<int64_t>(labels.size()), g.NumNodes());
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    const ComponentLabels got = ConnectedComponents(g);
    ASSERT_EQ(got, labels) << "tc=" << tc;
    // Same component <=> finite brute-force distance.
    for (size_t i = 0; i < got.size(); ++i) {
      for (size_t j = 0; j < got.size(); ++j) {
        EXPECT_EQ(got[i].second == got[j].second, dist[i][j] < kInf)
            << "nodes " << got[i].first << "," << got[j].first;
      }
    }
  }
}

// Each ported CSR algorithm computes a single-threaded reference, then
// must reproduce it *bit-identically* at every stress thread count —
// blocked reductions, fixed-block merges, and unique-by-construction
// outputs (core numbers) make that a hard guarantee, not a tolerance.

TEST(HitsStress, ScoresAreThreadCountInvariant) {
  const DirectedGraph g = testing::RandomDirected(4000, 30000, 0x4175);
  HitsConfig config;
  config.max_iters = 20;
  config.tol = 0.0;
  ScopedNumThreads seq(1);
  const HitsScores reference = Hits(g, config).ValueOrDie();
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    const HitsScores got = Hits(g, config).ValueOrDie();
    ASSERT_EQ(got.hubs, reference.hubs) << "tc=" << tc;
    ASSERT_EQ(got.authorities, reference.authorities) << "tc=" << tc;
  }
}

TEST(TriangleStress, NodeCountsAndCoefficientsAreThreadCountInvariant) {
  const UndirectedGraph g = testing::RandomUndirected(3000, 20000, 0x7121);
  ScopedNumThreads seq(1);
  const NodeInts tri = NodeTriangles(g);
  ASSERT_EQ(tri, testing::RefNodeTriangleCounts(g));
  const NodeValues cc = LocalClusteringCoefficients(g);
  const double global = GlobalClusteringCoefficient(g);
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    ASSERT_EQ(NodeTriangles(g), tri) << "tc=" << tc;
    ASSERT_EQ(LocalClusteringCoefficients(g), cc) << "tc=" << tc;
    ASSERT_EQ(GlobalClusteringCoefficient(g), global) << "tc=" << tc;
  }
}

TEST(KCoreStress, CoreNumbersAreThreadCountInvariant) {
  const UndirectedGraph g = testing::RandomUndirected(5000, 40000, 0xC04E);
  ScopedNumThreads seq(1);
  const NodeInts reference = CoreNumbers(g);
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    ASSERT_EQ(CoreNumbers(g), reference) << "tc=" << tc;
  }
}

TEST(CentralityStress, BetweennessAndClosenessAreThreadCountInvariant) {
  // Small graph: exact Brandes is O(n·m) per run and this repeats per
  // thread count (and runs under TSan in the sanitizer gate).
  const UndirectedGraph g = testing::RandomUndirected(600, 2400, 0xBC);
  ScopedNumThreads seq(1);
  const NodeValues bc = BetweennessCentrality(g);
  const NodeValues closeness = ClosenessCentrality(g);
  const NodeValues approx = ApproxBetweennessCentrality(g, 64, 0x5EED);
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    ASSERT_EQ(BetweennessCentrality(g), bc) << "tc=" << tc;
    ASSERT_EQ(ClosenessCentrality(g), closeness) << "tc=" << tc;
    ASSERT_EQ(ApproxBetweennessCentrality(g, 64, 0x5EED), approx)
        << "tc=" << tc;
  }
}

TEST(CommunityStress, LabelsAndModularityAreThreadCountInvariant) {
  const UndirectedGraph g = testing::RandomUndirected(3000, 12000, 0x1A8);
  ScopedNumThreads seq(1);
  const NodeInts labels = LabelPropagation(g, 30, 0xBEE);
  const double q = Modularity(g, labels);
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    ASSERT_EQ(LabelPropagation(g, 30, 0xBEE), labels) << "tc=" << tc;
    ASSERT_EQ(Modularity(g, labels), q) << "tc=" << tc;
  }
}

TEST(LouvainStress, CommunitiesAreThreadCountInvariant) {
  const UndirectedGraph g = testing::RandomUndirected(2000, 10000, 0x10);
  LouvainConfig config;
  config.max_levels = 3;
  ScopedNumThreads seq(1);
  const LouvainResult reference = Louvain(g, config).ValueOrDie();
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    const LouvainResult got = Louvain(g, config).ValueOrDie();
    ASSERT_EQ(got.communities, reference.communities) << "tc=" << tc;
    ASSERT_EQ(got.modularity, reference.modularity) << "tc=" << tc;
  }
}

TEST(AnfStress, EstimatesAreThreadCountInvariant) {
  const UndirectedGraph g = testing::RandomUndirected(3000, 15000, 0xA2F);
  ScopedNumThreads seq(1);
  const AnfResult reference =
      ApproxNeighborhoodFunction(g, 5, 32, 0x5EED).ValueOrDie();
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    const AnfResult got =
        ApproxNeighborhoodFunction(g, 5, 32, 0x5EED).ValueOrDie();
    ASSERT_EQ(got.neighborhood, reference.neighborhood) << "tc=" << tc;
    ASSERT_EQ(got.effective_diameter, reference.effective_diameter)
        << "tc=" << tc;
  }
}

// Calls from several threads at once (serving workers do this) each own
// their markers, so no call sees another's marks.
TEST(TriangleStress, ConcurrentCallsOnDifferentGraphsStayExact) {
  std::vector<UndirectedGraph> graphs;
  for (int k = 0; k < 3; ++k) {
    graphs.push_back(
        testing::RandomUndirected(500 + 700 * k, 4000 + 3000 * k, 0x3C + k));
  }
  std::vector<int64_t> totals;
  std::vector<NodeInts> nodes;
  for (const UndirectedGraph& g : graphs) {
    totals.push_back(testing::RefForwardTriangles(g));
    nodes.push_back(testing::RefNodeTriangleCounts(g));
  }
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    std::vector<int> ok(graphs.size(), 0);
    std::vector<std::thread> callers;
    for (size_t k = 0; k < graphs.size(); ++k) {
      callers.emplace_back([&, k] {
        bool same = true;
        for (int rep = 0; rep < 3; ++rep) {
          same = same && ParallelTriangleCount(graphs[k]) == totals[k] &&
                 TriangleCount(graphs[k]) == totals[k] &&
                 NodeTriangles(graphs[k]) == nodes[k];
        }
        ok[k] = same;
      });
    }
    for (std::thread& t : callers) t.join();
    EXPECT_EQ(ok, std::vector<int>(graphs.size(), 1)) << "tc=" << tc;
  }
}

TEST(TriangleStress, ParallelCountMatchesSequentialAndBrute) {
  const UndirectedGraph small = testing::RandomUndirected(120, 400, 0x3A3);
  const int64_t brute = testing::BruteTriangles(small);
  const UndirectedGraph big = testing::RandomUndirected(4000, 30000, 0x7A7);
  // The merge-kernel oracle shares no code with the library's kernel.
  const int64_t big_reference = testing::RefForwardTriangles(big);
  ScopedNumThreads seq(1);
  ASSERT_EQ(TriangleCount(big), big_reference);
  for (int tc : StressThreadCounts()) {
    ScopedNumThreads threads(tc);
    EXPECT_EQ(ParallelTriangleCount(small), brute) << "tc=" << tc;
    EXPECT_EQ(TriangleCount(small), brute) << "tc=" << tc;
    EXPECT_EQ(ParallelTriangleCount(big), big_reference) << "tc=" << tc;
  }
}

}  // namespace
}  // namespace ringo
