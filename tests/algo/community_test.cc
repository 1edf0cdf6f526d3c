#include "algo/community.h"

#include <gtest/gtest.h>

#include "gen/graph_gen.h"
#include "test_support.h"

namespace ringo {
namespace {

// Two k-cliques connected by one bridge edge.
UndirectedGraph TwoCliques(int64_t k) {
  UndirectedGraph g;
  for (NodeId u = 0; u < k; ++u) {
    for (NodeId v = u + 1; v < k; ++v) g.AddEdge(u, v);
  }
  for (NodeId u = k; u < 2 * k; ++u) {
    for (NodeId v = u + 1; v < 2 * k; ++v) g.AddEdge(u, v);
  }
  g.AddEdge(0, k);  // Bridge.
  return g;
}

TEST(LabelPropagationTest, SeparatesTwoCliques) {
  const UndirectedGraph g = TwoCliques(8);
  const NodeInts labels = LabelPropagation(g);
  FlatHashMap<NodeId, int64_t> m;
  for (const auto& [id, l] : labels) m.Insert(id, l);
  // All members of each clique share a label; the two cliques differ.
  for (NodeId v = 1; v < 8; ++v) EXPECT_EQ(*m.Find(v), *m.Find(1));
  for (NodeId v = 9; v < 16; ++v) EXPECT_EQ(*m.Find(v), *m.Find(9));
  EXPECT_NE(*m.Find(1), *m.Find(9));
}

TEST(LabelPropagationTest, LabelsAreDense) {
  UndirectedGraph g = testing::RandomUndirected(50, 100, 3);
  const NodeInts labels = LabelPropagation(g);
  int64_t max_label = 0;
  FlatHashSet<int64_t> distinct;
  for (const auto& [id, l] : labels) {
    EXPECT_GE(l, 0);
    max_label = std::max(max_label, l);
    distinct.Insert(l);
  }
  EXPECT_EQ(distinct.size(), max_label + 1) << "labels must be dense";
}

TEST(LabelPropagationTest, DeterministicPerSeed) {
  UndirectedGraph g = testing::RandomUndirected(60, 200, 5);
  EXPECT_EQ(LabelPropagation(g, 100, 9), LabelPropagation(g, 100, 9));
}

TEST(ModularityTest, TwoCliquePartitionScoresHigh) {
  const UndirectedGraph g = TwoCliques(8);
  NodeInts good, bad;
  for (NodeId v = 0; v < 16; ++v) {
    good.emplace_back(v, v < 8 ? 0 : 1);
    bad.emplace_back(v, v % 2);  // Random-ish split.
  }
  const double q_good = Modularity(g, good);
  const double q_bad = Modularity(g, bad);
  EXPECT_GT(q_good, 0.4);
  EXPECT_GT(q_good, q_bad);
}

TEST(ModularityTest, SingleCommunityIsZero) {
  const UndirectedGraph g = gen::Complete(6);
  NodeInts one;
  for (NodeId v = 0; v < 6; ++v) one.emplace_back(v, 0);
  EXPECT_NEAR(Modularity(g, one), 0.0, 1e-12);
}

TEST(ModularityTest, LabelPropagationBeatsSingletons) {
  const UndirectedGraph g = TwoCliques(10);
  const NodeInts lp = LabelPropagation(g);
  NodeInts singletons;
  for (NodeId v = 0; v < 20; ++v) singletons.emplace_back(v, v);
  EXPECT_GT(Modularity(g, lp), Modularity(g, singletons));
}

// Labels matter only by equality: negative and huge sparse values score
// exactly like the dense {0, 1} partition (no out-of-bounds slot, no
// max_label + 1 allocation).
TEST(ModularityTest, LabelValuesMatterOnlyByEquality) {
  const UndirectedGraph g = TwoCliques(5);
  NodeInts dense, odd;
  for (NodeId v = 0; v < 10; ++v) {
    dense.emplace_back(v, v < 5 ? 0 : 1);
    odd.emplace_back(v, v < 5 ? int64_t{-7} : int64_t{1} << 40);
  }
  EXPECT_EQ(Modularity(g, odd), Modularity(g, dense));
  EXPECT_GT(Modularity(g, dense), 0.3);
}

// A graph node missing from `labels` is its own singleton community, not
// silently merged into community 0; labels for ids outside the graph are
// ignored.
TEST(ModularityTest, UnlabeledNodeIsItsOwnCommunity) {
  const UndirectedGraph g = TwoCliques(5);
  NodeInts partial, explicit_singleton, nine_in_zero;
  for (NodeId v = 0; v < 10; ++v) {
    const int64_t l = v < 5 ? 0 : 1;
    if (v != 9) partial.emplace_back(v, l);
    explicit_singleton.emplace_back(v, v == 9 ? 2 : l);
    nine_in_zero.emplace_back(v, v == 9 ? 0 : l);
  }
  EXPECT_EQ(Modularity(g, partial), Modularity(g, explicit_singleton));
  EXPECT_NE(Modularity(g, partial), Modularity(g, nine_in_zero));
  NodeInts with_stranger = explicit_singleton;
  with_stranger.emplace_back(1000, 1);  // Not a graph node.
  EXPECT_EQ(Modularity(g, with_stranger), Modularity(g, explicit_singleton));
  // No labels at all: every node is a singleton.
  NodeInts singletons;
  for (NodeId v = 0; v < 10; ++v) singletons.emplace_back(v, v);
  EXPECT_EQ(Modularity(g, {}), Modularity(g, singletons));
}

TEST(ModularityTest, EmptyGraphIsZero) {
  UndirectedGraph g;
  EXPECT_DOUBLE_EQ(Modularity(g, {}), 0.0);
}

}  // namespace
}  // namespace ringo
