#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "test_support.h"
#include "util/rng.h"

namespace ringo {
namespace {

class GraphIoTest : public ::testing::Test {
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

TEST_F(GraphIoTest, EdgeListRoundTrip) {
  const DirectedGraph g = testing::RandomDirected(60, 300, 7);
  const std::string path = TempPath("g.txt");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  auto back = LoadEdgeList(path);
  ASSERT_TRUE(back.ok()) << back.status();
  // Edge lists cannot carry isolated nodes; this graph has none w.h.p.
  EXPECT_EQ(back->NumEdges(), g.NumEdges());
  g.ForEachEdge([&](NodeId u, NodeId v) { EXPECT_TRUE(back->HasEdge(u, v)); });
}

TEST_F(GraphIoTest, EdgeListSkipsCommentsAndBlanks) {
  const std::string path = TempPath("c.txt");
  std::ofstream(path) << "# header\n\n1\t2\n# mid\n2\t3\n";
  auto g = LoadEdgeList(path);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->NumEdges(), 2);
}

TEST_F(GraphIoTest, EdgeListRejectsMalformed) {
  // Malformed persisted data is Corruption (not InvalidArgument), and the
  // message carries the 1-based line number for debugging.
  const std::string path = TempPath("bad.txt");
  std::ofstream(path) << "1\t2\t3\n";
  {
    const Status s = LoadEdgeList(path).status();
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.ToString().find("line 1"), std::string::npos) << s.ToString();
  }
  std::ofstream(path) << "1\t2\nx\ty\n";
  {
    const Status s = LoadEdgeList(path).status();
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.ToString().find("line 2"), std::string::npos) << s.ToString();
  }
  EXPECT_TRUE(LoadEdgeList("/no/such/file").status().IsIOError());
}

TEST_F(GraphIoTest, BinaryRoundTripExact) {
  DirectedGraph g = testing::RandomDirected(80, 400, 3);
  g.AddNode(9999);  // Isolated nodes must survive the binary format.
  g.AddEdge(5, 5);  // Self-loop too.
  const std::string path = TempPath("g.bin");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  auto back = LoadGraphBinary(path);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(back->SameStructure(g));
}

TEST_F(GraphIoTest, BinaryEmptyGraph) {
  DirectedGraph g;
  const std::string path = TempPath("empty.bin");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  auto back = LoadGraphBinary(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumNodes(), 0);
  EXPECT_EQ(back->NumEdges(), 0);
}

TEST_F(GraphIoTest, BinaryRejectsForeignFile) {
  const std::string path = TempPath("foreign.bin");
  std::ofstream(path) << "this is not a graph";
  EXPECT_TRUE(LoadGraphBinary(path).status().IsIOError());
}

TEST_F(GraphIoTest, BinaryRejectsTruncation) {
  DirectedGraph g = testing::RandomDirected(20, 60, 1);
  const std::string path = TempPath("trunc.bin");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  // Truncate the file to half.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path, std::ios::binary)
      << bytes.substr(0, bytes.size() / 2);
  EXPECT_TRUE(LoadGraphBinary(path).status().IsIOError());
}

TEST_F(GraphIoTest, BinaryLargeGraphFaithful) {
  const DirectedGraph g = testing::RandomDirected(500, 5000, 9);
  const std::string path = TempPath("big.bin");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  auto back = LoadGraphBinary(path);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->SameStructure(g));
}

// Hand-assembled binary graph files: magic, header counts, then one
// (id, degree, neighbours...) block per node.
std::string BinaryHeader(int64_t num_nodes, int64_t num_edges) {
  std::string bytes = "RNGOGRF1";
  bytes.append(reinterpret_cast<const char*>(&num_nodes), sizeof(num_nodes));
  bytes.append(reinterpret_cast<const char*>(&num_edges), sizeof(num_edges));
  return bytes;
}

void AppendNodeBlock(std::string* bytes, NodeId id,
                     const std::vector<NodeId>& out) {
  const int64_t deg = static_cast<int64_t>(out.size());
  bytes->append(reinterpret_cast<const char*>(&id), sizeof(id));
  bytes->append(reinterpret_cast<const char*>(&deg), sizeof(deg));
  bytes->append(reinterpret_cast<const char*>(out.data()),
                out.size() * sizeof(NodeId));
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// Header counts claiming far more than the file holds must be rejected
// before anything is allocated for them, not end in bad_alloc or the OOM
// killer.
TEST_F(GraphIoTest, BinaryRejectsHeaderCountsBeyondFileSize) {
  const std::string path = TempPath("huge.bin");
  WriteBytes(path, BinaryHeader(int64_t{1} << 40, 0));
  Status s = LoadGraphBinary(path).status();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();

  WriteBytes(path, BinaryHeader(1, int64_t{1} << 40));
  s = LoadGraphBinary(path).status();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();

  // A degree larger than the bytes left, under an edge count that allows
  // it.
  std::string bytes = BinaryHeader(1, 4);
  AppendNodeBlock(&bytes, 7, {});
  const int64_t huge_deg = int64_t{1} << 40;
  std::memcpy(&bytes[bytes.size() - sizeof(int64_t)], &huge_deg,
              sizeof(huge_deg));
  bytes.append(4 * sizeof(NodeId), '\0');
  WriteBytes(path, bytes);
  s = LoadGraphBinary(path).status();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

// A repeated neighbour would load as a parallel edge: NumEdges counting it
// twice and HasEdge staying true after DelEdge.
TEST_F(GraphIoTest, BinaryRejectsDuplicateNeighbours) {
  const std::string path = TempPath("dup.bin");
  std::string bytes = BinaryHeader(2, 2);
  AppendNodeBlock(&bytes, 1, {5, 5});
  AppendNodeBlock(&bytes, 5, {});
  WriteBytes(path, bytes);
  const Status s = LoadGraphBinary(path).status();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();

  // The same file with strictly ascending neighbours loads.
  bytes = BinaryHeader(3, 2);
  AppendNodeBlock(&bytes, 1, {5, 6});
  AppendNodeBlock(&bytes, 5, {});
  AppendNodeBlock(&bytes, 6, {});
  WriteBytes(path, bytes);
  auto g = LoadGraphBinary(path);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->NumEdges(), 2);
  ASSERT_TRUE(g->DelEdge(1, 5));
  EXPECT_FALSE(g->HasEdge(1, 5));
  EXPECT_EQ(g->NumEdges(), 1);
}

// Fixed-seed byte mutations of a saved file: every load ends in OK or
// IOError, never a crash, and an OK load is a consistent graph.
TEST_F(GraphIoTest, BinaryMutatedFilesLoadOrFailCleanly) {
  DirectedGraph g = testing::RandomDirected(30, 90, 11);
  g.AddEdge(4, 4);
  const std::string path = TempPath("mutated.bin");
  ASSERT_TRUE(SaveGraphBinary(g, path).ok());
  const std::string original = ReadBytes(path);
  constexpr size_t kHeaderBytes = 24;  // Magic + two counts.

  Rng rng(0x6A5E);
  int loaded = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::string bytes = original;
    const int flips = static_cast<int>(rng.UniformInt(1, 4));
    for (int f = 0; f < flips; ++f) {
      // Half the mutations land in the header and first node blocks,
      // where the counts and degrees live.
      const size_t limit =
          rng.UniformInt(0, 1) == 0 ? kHeaderBytes + 48 : bytes.size();
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(limit) - 1));
      bytes[pos] = static_cast<char>(rng.UniformInt(0, 255));
    }
    if (iter % 10 == 0) {
      bytes.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bytes.size()))));
    }
    WriteBytes(path, bytes);
    const Result<DirectedGraph> r = LoadGraphBinary(path);
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsIOError())
          << "iter " << iter << ": " << r.status().ToString();
      continue;
    }
    ++loaded;
    int64_t out_arcs = 0, in_arcs = 0;
    for (NodeId u : r->SortedNodeIds()) {
      const auto* nd = r->GetNode(u);
      out_arcs += static_cast<int64_t>(nd->out.size());
      in_arcs += static_cast<int64_t>(nd->in.size());
      EXPECT_TRUE(std::adjacent_find(nd->out.begin(), nd->out.end(),
                                     std::greater_equal<NodeId>()) ==
                  nd->out.end())
          << "iter " << iter;
      for (NodeId v : nd->out) EXPECT_TRUE(r->HasNode(v)) << "iter " << iter;
    }
    EXPECT_EQ(out_arcs, r->NumEdges()) << "iter " << iter;
    EXPECT_EQ(in_arcs, r->NumEdges()) << "iter " << iter;
  }
  // Some mutations (e.g. neighbour ids rewritten to other node ids) still
  // describe a valid graph.
  EXPECT_GT(loaded, 0);
}

}  // namespace
}  // namespace ringo
