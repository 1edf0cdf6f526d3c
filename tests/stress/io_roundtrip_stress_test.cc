// Stress: graph persistence round-trips as properties over seeded random
// graphs. Text and binary save→load must reproduce the exact structure —
// including the cases the plain SNAP edge-list format silently loses
// (isolated nodes, preserved here via "# Node:" markers) — and the parser
// must accept any whitespace-run tokenization while rejecting malformed
// lines with a Corruption status. Table TSV loads running at once into one
// shared StringPool, as serving sessions do, must each equal a serial load.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "graph/graph_io.h"
#include "table/table_io.h"
#include "test_support.h"
#include "util/rng.h"

namespace ringo {
namespace {

class IoRoundtripStress : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& f : files_) std::remove(f.c_str());
  }

  std::string TempPath(const std::string& name) {
    const std::string path = ::testing::TempDir() + "/" + name;
    files_.push_back(path);
    return path;
  }

  std::vector<std::string> files_;
};

// Random graph guaranteed to contain the awkward structures: isolated
// nodes (no in- or out-edges), self-loops, and sparse high ids.
DirectedGraph AwkwardGraph(int64_t nodes, int64_t edges, uint64_t seed) {
  Rng rng(seed);
  DirectedGraph g = testing::RandomDirected(nodes, edges, seed);
  for (int i = 0; i < 5; ++i) g.AddNode(1000000 + rng.UniformInt(0, 1000) * 7);
  g.AddEdge(0, 0);  // Self-loop on an existing node.
  return g;
}

TEST_F(IoRoundtripStress, TextRoundTripExactAcrossSeeds) {
  for (const uint64_t seed : {1u, 17u, 5000u, 424242u}) {
    const DirectedGraph g = AwkwardGraph(200, 900, seed);
    const std::string path = TempPath("t" + std::to_string(seed) + ".txt");
    ASSERT_TRUE(SaveEdgeList(g, path).ok());
    auto back = LoadEdgeList(path);
    ASSERT_TRUE(back.ok()) << back.status();
    // Isolated nodes survive via the "# Node:" markers — exact structure.
    EXPECT_TRUE(back->SameStructure(g)) << "seed=" << seed;
  }
}

TEST_F(IoRoundtripStress, BinaryRoundTripExactAcrossSeeds) {
  for (const uint64_t seed : {1u, 17u, 5000u, 424242u}) {
    const DirectedGraph g = AwkwardGraph(300, 1500, seed);
    const std::string path = TempPath("b" + std::to_string(seed) + ".bin");
    ASSERT_TRUE(SaveGraphBinary(g, path).ok());
    auto back = LoadGraphBinary(path);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_TRUE(back->SameStructure(g)) << "seed=" << seed;
  }
}

TEST_F(IoRoundtripStress, EmptyGraphBothFormats) {
  const DirectedGraph g;
  const std::string tpath = TempPath("empty.txt");
  ASSERT_TRUE(SaveEdgeList(g, tpath).ok());
  auto tback = LoadEdgeList(tpath);
  ASSERT_TRUE(tback.ok());
  EXPECT_EQ(tback->NumNodes(), 0);
  EXPECT_EQ(tback->NumEdges(), 0);

  const std::string bpath = TempPath("empty.bin");
  ASSERT_TRUE(SaveGraphBinary(g, bpath).ok());
  auto bback = LoadGraphBinary(bpath);
  ASSERT_TRUE(bback.ok());
  EXPECT_EQ(bback->NumNodes(), 0);
  EXPECT_EQ(bback->NumEdges(), 0);
}

TEST_F(IoRoundtripStress, IsolatedNodesOnlyGraph) {
  DirectedGraph g;
  for (NodeId id : {NodeId{3}, NodeId{99}, NodeId{100000}}) g.AddNode(id);
  const std::string path = TempPath("iso.txt");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  auto back = LoadEdgeList(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(back->SameStructure(g));
  EXPECT_EQ(back->NumEdges(), 0);
  EXPECT_EQ(back->NumNodes(), 3);
}

TEST_F(IoRoundtripStress, PlainSnapFileWithoutNodeSectionStillLoads) {
  // Backward compatibility: files written by SNAP (or an older Ringo) have
  // no "# Node:" section and arbitrary comment headers.
  const std::string path = TempPath("snap.txt");
  std::ofstream(path) << "# Directed graph: web-Foo.txt\n"
                      << "# Nodes: 4 Edges: 3\n"
                      << "# FromNodeId\tToNodeId\n"
                      << "0\t1\n1\t2\n2\t3\n";
  auto g = LoadEdgeList(path);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->NumNodes(), 4);
  EXPECT_EQ(g->NumEdges(), 3);
  EXPECT_TRUE(g->HasEdge(0, 1));
  EXPECT_TRUE(g->HasEdge(2, 3));
}

TEST_F(IoRoundtripStress, WhitespaceRunTokenization) {
  // SNAP mirrors mix tabs, spaces, and runs of both; all must parse to the
  // same graph.
  const std::string variants[] = {
      "1\t2\n3\t4\n",          // Single tabs.
      "1 2\n3 4\n",            // Single spaces.
      "1   2\n3 \t 4\n",       // Runs and mixes.
      "  1\t2  \n\t3 4\t\n",   // Leading/trailing whitespace.
  };
  for (const std::string& body : variants) {
    const std::string path = TempPath("ws.txt");
    std::ofstream(path) << body;
    auto g = LoadEdgeList(path);
    ASSERT_TRUE(g.ok()) << g.status() << " for body " << body;
    EXPECT_EQ(g->NumEdges(), 2) << body;
    EXPECT_TRUE(g->HasEdge(1, 2)) << body;
    EXPECT_TRUE(g->HasEdge(3, 4)) << body;
  }
}

TEST_F(IoRoundtripStress, MalformedLinesAreCorruptionWithLineNumbers) {
  struct Case {
    const char* body;
    const char* line_tag;  // Expected "line N" fragment in the message.
  };
  const Case cases[] = {
      {"1\t2\n1\t2\t3\n", "line 2"},        // Too many fields.
      {"1\n", "line 1"},                    // Too few fields.
      {"a\tb\n", "line 1"},                 // Unparsable ids.
      {"1\t2\n# Node: x\n", "line 2"},      // Bad node marker.
      {"# Node: 1 2\n", "line 1"},          // Marker with extra field.
  };
  for (const Case& c : cases) {
    const std::string path = TempPath("bad.txt");
    std::ofstream(path) << c.body;
    const Status s = LoadEdgeList(path).status();
    EXPECT_TRUE(s.IsCorruption()) << c.body << " -> " << s.ToString();
    EXPECT_NE(s.ToString().find(c.line_tag), std::string::npos)
        << c.body << " -> " << s.ToString();
  }
}

TEST_F(IoRoundtripStress, DoubleRoundTripIsIdempotent) {
  // save(load(save(g))) must byte-identically reproduce the first file —
  // the writer is deterministic (sorted ids, fixed header).
  const DirectedGraph g = AwkwardGraph(150, 600, 0xD00D);
  const std::string p1 = TempPath("rt1.txt");
  const std::string p2 = TempPath("rt2.txt");
  ASSERT_TRUE(SaveEdgeList(g, p1).ok());
  auto mid = LoadEdgeList(p1);
  ASSERT_TRUE(mid.ok());
  ASSERT_TRUE(SaveEdgeList(*mid, p2).ok());
  auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(slurp(p1), slurp(p2));
}

// Several threads load different TSV files into one shared pool at the
// same time, each load itself chunk-parallel. Every result equals a serial
// load of its file into a pool of its own, cell by cell with strings
// compared by bytes, and the shared pool holds each distinct string once.
TEST_F(IoRoundtripStress, ConcurrentTsvLoadsIntoOneSharedPool) {
  constexpr int kLoaders = 4;
  const Schema schema{{"user", ColumnType::kString},
                      {"score", ColumnType::kFloat},
                      {"tag", ColumnType::kString},
                      {"id", ColumnType::kInt}};
  std::vector<std::string> paths;
  std::set<std::string> distinct = {"resident"};
  for (int f = 0; f < kLoaders; ++f) {
    Rng rng(0x7A8 + f);
    std::string body;
    for (int i = 0; i < 20000; ++i) {
      // Users overlap between files; tags are file-specific.
      const std::string user = "u" + std::to_string(rng.UniformInt(0, 3000));
      const std::string tag =
          "f" + std::to_string(f) + "t" + std::to_string(i % 50);
      distinct.insert(user);
      distinct.insert(tag);
      body += user + "\t" + std::to_string(rng.UniformReal()) + "\t" + tag +
              "\t" + std::to_string(i) + "\n";
    }
    paths.push_back(TempPath("shared" + std::to_string(f) + ".tsv"));
    std::ofstream(paths.back(), std::ios::binary) << body;
  }
  std::vector<TablePtr> serial;
  for (const std::string& p : paths) {
    serial.push_back(LoadTableTSV(schema, p).ValueOrDie());
  }

  for (int round = 0; round < 3; ++round) {
    auto pool = std::make_shared<StringPool>();
    pool->GetOrAdd("resident");
    std::vector<TablePtr> got(kLoaders);
    std::vector<Status> status(kLoaders);
    std::vector<std::thread> loaders;
    for (int f = 0; f < kLoaders; ++f) {
      loaders.emplace_back([&, f] {
        Result<TablePtr> r = LoadTableTSV(schema, paths[f], pool);
        status[f] = r.status();
        if (r.ok()) got[f] = *r;
      });
    }
    for (std::thread& t : loaders) t.join();

    EXPECT_EQ(pool->size(), static_cast<int64_t>(distinct.size()));
    for (int f = 0; f < kLoaders; ++f) {
      ASSERT_TRUE(status[f].ok()) << status[f];
      const Table& a = *got[f];
      const Table& b = *serial[f];
      ASSERT_EQ(a.NumRows(), b.NumRows());
      for (int64_t r = 0; r < a.NumRows(); ++r) {
        ASSERT_EQ(a.pool()->Get(a.column(0).GetStr(r)),
                  b.pool()->Get(b.column(0).GetStr(r)))
            << "file " << f << " row " << r;
        ASSERT_EQ(std::bit_cast<uint64_t>(a.column(1).GetFloat(r)),
                  std::bit_cast<uint64_t>(b.column(1).GetFloat(r)));
        ASSERT_EQ(a.pool()->Get(a.column(2).GetStr(r)),
                  b.pool()->Get(b.column(2).GetStr(r)));
        ASSERT_EQ(a.column(3).GetInt(r), b.column(3).GetInt(r));
      }
    }
  }
}

}  // namespace
}  // namespace ringo
