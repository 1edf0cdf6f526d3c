#include "algo/connectivity.h"

#include <gtest/gtest.h>

#include "algo/bfs.h"
#include "gen/graph_gen.h"
#include "stress/stress_support.h"
#include "test_support.h"

namespace ringo {
namespace {

TEST(WccTest, TwoIslands) {
  DirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(10, 11);
  const ComponentLabels labels = WeaklyConnectedComponents(g);
  ASSERT_EQ(labels.size(), 5u);
  // Component 0 holds the smallest node id (1).
  EXPECT_EQ(labels[0].second, 0);  // Node 1.
  EXPECT_EQ(labels[1].second, 0);  // Node 2.
  EXPECT_EQ(labels[2].second, 0);  // Node 3.
  EXPECT_EQ(labels[3].second, 1);  // Node 10.
  EXPECT_EQ(labels[4].second, 1);  // Node 11.
  EXPECT_EQ(ComponentSizes(labels), (std::vector<int64_t>{3, 2}));
}

TEST(WccTest, DirectionIgnored) {
  DirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(3, 2);  // Different directions, same weak component.
  EXPECT_EQ(ComponentSizes(WeaklyConnectedComponents(g)).size(), 1u);
  EXPECT_TRUE(IsWeaklyConnected(g));
}

TEST(WccTest, IsolatedNodesAreSingletons) {
  DirectedGraph g;
  g.AddNode(1);
  g.AddNode(2);
  EXPECT_EQ(ComponentSizes(WeaklyConnectedComponents(g)).size(), 2u);
  EXPECT_FALSE(IsWeaklyConnected(g));
}

// Exact labels against the tests/ reference, at 1 and 4 threads, on
// graphs that stress the sampled giant component: edges that only point
// into a node (an out-star's leaves have no out-arcs), a giant component
// beside many small ones, isolated nodes, and no edges at all.
TEST(WccTest, MatchesReferenceLabels) {
  std::vector<DirectedGraph> directed;
  DirectedGraph out_star = testing::RandomDirected(400, 600, 0x51);
  for (NodeId leaf = 1000; leaf < 1600; ++leaf) out_star.AddEdge(999, leaf);
  directed.push_back(std::move(out_star));
  DirectedGraph in_star;
  for (NodeId leaf = 1; leaf < 700; ++leaf) in_star.AddEdge(leaf, 0);
  in_star.AddEdge(5000, 5001);
  directed.push_back(std::move(in_star));
  directed.push_back(testing::RandomDirected(3000, 2200, 0x52));
  directed.push_back(testing::RandomDirected(50, 0, 0x53));
  directed.push_back(DirectedGraph());
  std::vector<UndirectedGraph> undirected;
  undirected.push_back(testing::RandomUndirected(3000, 1800, 0x54));
  undirected.push_back(gen::Star(900));
  undirected.push_back(testing::RandomUndirected(40, 0, 0x55));
  for (const int tc : {1, 4}) {
    testing::ScopedNumThreads threads(tc);
    for (size_t k = 0; k < directed.size(); ++k) {
      EXPECT_EQ(WeaklyConnectedComponents(directed[k]),
                testing::RefWeakComponents(directed[k]))
          << "directed " << k << " tc=" << tc;
    }
    for (size_t k = 0; k < undirected.size(); ++k) {
      EXPECT_EQ(ConnectedComponents(undirected[k]),
                testing::RefWeakComponents(undirected[k]))
          << "undirected " << k << " tc=" << tc;
    }
  }
}

TEST(SccTest, CycleIsOneComponent) {
  DirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(3, 1);
  g.AddEdge(3, 4);  // 4 hangs off the cycle.
  const ComponentLabels labels = StronglyConnectedComponents(g);
  const std::vector<int64_t> sizes = ComponentSizes(labels);
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(*std::max_element(sizes.begin(), sizes.end()), 3);
}

TEST(SccTest, DagIsAllSingletons) {
  DirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  g.AddEdge(1, 3);
  EXPECT_EQ(ComponentSizes(StronglyConnectedComponents(g)).size(), 3u);
}

TEST(SccTest, SelfLoopSingletonStillOneComponent) {
  DirectedGraph g;
  g.AddEdge(1, 1);
  g.AddEdge(1, 2);
  EXPECT_EQ(ComponentSizes(StronglyConnectedComponents(g)).size(), 2u);
}

TEST(SccTest, DeepChainDoesNotOverflowStack) {
  // 200k-node chain would blow a recursive Tarjan.
  DirectedGraph g;
  for (NodeId i = 0; i < 200000; ++i) g.AddEdge(i, i + 1);
  const std::vector<int64_t> sizes =
      ComponentSizes(StronglyConnectedComponents(g));
  EXPECT_EQ(sizes.size(), 200001u);
}

// Property: two nodes share an SCC iff they reach each other.
class SccProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SccProperty, MatchesMutualReachability) {
  DirectedGraph g = testing::RandomDirected(40, 90, GetParam());
  const ComponentLabels labels = StronglyConnectedComponents(g);
  FlatHashMap<NodeId, int64_t> label_of;
  for (const auto& [id, c] : labels) label_of.Insert(id, c);

  const std::vector<NodeId> ids = g.SortedNodeIds();
  // Forward reachability sets.
  std::vector<FlatHashSet<NodeId>> reach(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    for (NodeId v : BfsReachable(g, ids[i])) reach[i].Insert(v);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      const bool mutual =
          reach[i].Contains(ids[j]) && reach[j].Contains(ids[i]);
      const bool same = *label_of.Find(ids[i]) == *label_of.Find(ids[j]);
      EXPECT_EQ(mutual, same) << ids[i] << " vs " << ids[j];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SccProperty, ::testing::Values(1, 2, 3, 4, 5));

// Property: WCC labels match BFS-both reachability.
class WccProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WccProperty, MatchesUndirectedReachability) {
  DirectedGraph g = testing::RandomDirected(60, 80, GetParam());
  const ComponentLabels labels = WeaklyConnectedComponents(g);
  FlatHashMap<NodeId, int64_t> label_of;
  for (const auto& [id, c] : labels) label_of.Insert(id, c);
  for (const auto& [id, c] : labels) {
    for (NodeId v : BfsReachable(g, id, BfsDir::kBoth)) {
      EXPECT_EQ(*label_of.Find(v), c);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WccProperty, ::testing::Values(6, 7, 8));

TEST(LargestComponentTest, PicksBiggest) {
  UndirectedGraph g;
  g.AddEdge(1, 2);
  g.AddEdge(10, 11);
  g.AddEdge(11, 12);
  const auto largest = LargestComponent(ConnectedComponents(g));
  EXPECT_EQ(largest, (std::vector<NodeId>{10, 11, 12}));
}

TEST(ConnectedTest, UndirectedVariants) {
  EXPECT_TRUE(IsConnected(gen::Ring(10)));
  UndirectedGraph g = gen::Ring(10);
  g.AddNode(99);
  EXPECT_FALSE(IsConnected(g));
  UndirectedGraph empty;
  EXPECT_TRUE(IsConnected(empty));
}

}  // namespace
}  // namespace ringo
