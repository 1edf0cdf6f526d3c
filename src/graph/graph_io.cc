#include "graph/graph_io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <vector>

#include "util/string_util.h"

namespace ringo {

namespace {

constexpr char kMagic[8] = {'R', 'N', 'G', 'O', 'G', 'R', 'F', '1'};

template <typename T>
void WritePod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

Status SaveEdgeList(const DirectedGraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  out << "# Directed graph saved by Ringo\n";
  out << "# Nodes: " << g.NumNodes() << " Edges: " << g.NumEdges() << "\n";
  // Isolated (degree-0) nodes appear on no edge line, so the plain
  // edge-list format would drop them on reload. They are written as
  // "# Node: <id>" marker lines: Ringo's loader parses them back while
  // SNAP-style readers skip them as comments. Nodes with at least one
  // incident edge are recovered from the edge lines themselves.
  for (NodeId u : g.SortedNodeIds()) {
    const auto* nd = g.GetNode(u);
    if (nd->out.empty() && nd->in.empty()) {
      out << "# Node: " << u << '\n';
    }
  }
  out << "# SrcNId\tDstNId\n";
  for (NodeId u : g.SortedNodeIds()) {
    for (NodeId v : g.GetNode(u)->out) {
      out << u << '\t' << v << '\n';
    }
  }
  if (!out) {
    return Status::IOError("write failure on '" + path + "'");
  }
  return Status::OK();
}

Result<DirectedGraph> LoadEdgeList(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  DirectedGraph g;
  std::string line;
  int64_t lineno = 0;
  constexpr std::string_view kNodeMarker = "# Node:";
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# Node: <id>" markers carry isolated nodes; other '#' lines are
      // comments (backward compatible with files that lack the section).
      if (StartsWith(line, kNodeMarker)) {
        const auto fields =
            SplitWhitespace(std::string_view(line).substr(kNodeMarker.size()));
        if (fields.size() != 1) {
          return Status::Corruption("line " + std::to_string(lineno) +
                                    ": expected '# Node: <id>'");
        }
        const auto id = ParseInt64(fields[0]);
        if (!id.ok()) {
          return Status::Corruption("line " + std::to_string(lineno) +
                                    ": bad node id '" + std::string(fields[0]) +
                                    "'");
        }
        g.AddNode(id.value());
      }
      continue;
    }
    // Edge lines tokenize on any run of spaces/tabs, like SNAP datasets.
    const auto fields = SplitWhitespace(line);
    if (fields.size() != 2) {
      return Status::Corruption("line " + std::to_string(lineno) +
                                ": expected 'src dst', got " +
                                std::to_string(fields.size()) + " fields");
    }
    const auto src = ParseInt64(fields[0]);
    const auto dst = ParseInt64(fields[1]);
    if (!src.ok() || !dst.ok()) {
      return Status::Corruption("line " + std::to_string(lineno) +
                                ": cannot parse edge '" + line + "'");
    }
    g.AddEdge(src.value(), dst.value());
  }
  return g;
}

Status SaveGraphBinary(const DirectedGraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, g.NumNodes());
  WritePod(out, g.NumEdges());
  for (NodeId u : g.SortedNodeIds()) {
    const auto* nd = g.GetNode(u);
    WritePod(out, u);
    WritePod(out, static_cast<int64_t>(nd->out.size()));
    out.write(reinterpret_cast<const char*>(nd->out.data()),
              static_cast<std::streamsize>(nd->out.size() * sizeof(NodeId)));
  }
  if (!out) {
    return Status::IOError("write failure on '" + path + "'");
  }
  return Status::OK();
}

Result<DirectedGraph> LoadGraphBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (!in || !std::equal(magic, magic + sizeof(magic), kMagic)) {
    return Status::IOError("'" + path + "' is not a Ringo binary graph");
  }
  int64_t num_nodes = 0, num_edges = 0;
  if (!ReadPod(in, &num_nodes) || !ReadPod(in, &num_edges) || num_nodes < 0 ||
      num_edges < 0) {
    return Status::IOError("corrupt header in '" + path + "'");
  }
  // Header counts are untrusted: every node block takes at least 16 bytes
  // (id + degree) and every edge 8 more, so counts the remaining bytes
  // cannot hold are rejected before anything is allocated for them.
  const std::streamoff body_start = in.tellg();
  in.seekg(0, std::ios::end);
  int64_t bytes_left = static_cast<int64_t>(in.tellg() - body_start);
  in.seekg(body_start);
  constexpr int64_t kNodeHeader = sizeof(NodeId) + sizeof(int64_t);
  if (!in || num_nodes > bytes_left / kNodeHeader ||
      num_edges > bytes_left / static_cast<int64_t>(sizeof(NodeId))) {
    return Status::IOError("header counts exceed the size of '" + path + "'");
  }

  DirectedGraph g;
  g.ReserveNodes(num_nodes);
  // First pass: create nodes and their out-vectors.
  std::vector<std::pair<NodeId, std::vector<NodeId>>> nodes;
  nodes.reserve(num_nodes);
  int64_t edges_seen = 0;
  for (int64_t i = 0; i < num_nodes; ++i) {
    NodeId id = 0;
    int64_t deg = 0;
    bytes_left -= kNodeHeader;
    if (!ReadPod(in, &id) || !ReadPod(in, &deg) || deg < 0 ||
        deg > num_edges - edges_seen ||
        deg > bytes_left / static_cast<int64_t>(sizeof(NodeId))) {
      return Status::IOError("corrupt node block in '" + path + "'");
    }
    bytes_left -= deg * static_cast<int64_t>(sizeof(NodeId));
    std::vector<NodeId> out(deg);
    in.read(reinterpret_cast<char*>(out.data()),
            static_cast<std::streamsize>(deg * sizeof(NodeId)));
    if (!in) {
      return Status::IOError("truncated adjacency in '" + path + "'");
    }
    // Strictly ascending: a repeated neighbour would load as a parallel
    // edge that NumEdges counts twice and DelEdge removes only once.
    if (std::adjacent_find(out.begin(), out.end(),
                           std::greater_equal<NodeId>()) != out.end()) {
      return Status::IOError("unsorted or duplicate adjacency in '" + path +
                             "'");
    }
    edges_seen += deg;
    if (!g.AddNode(id)) {
      return Status::IOError("duplicate node id in '" + path + "'");
    }
    nodes.emplace_back(id, std::move(out));
  }
  if (edges_seen != num_edges) {
    return Status::IOError("edge count mismatch in '" + path + "'");
  }

  // Second pass: install out-vectors and build in-vectors.
  auto& table = g.mutable_node_table();
  for (auto& [id, out] : nodes) {
    for (NodeId v : out) {
      DirectedGraph::NodeData* vd = table.Find(v);
      if (vd == nullptr) {
        return Status::IOError("edge to unknown node in '" + path + "'");
      }
      vd->in.push_back(id);
    }
  }
  for (auto& [id, out] : nodes) {
    DirectedGraph::NodeData* nd = table.Find(id);
    nd->out = std::move(out);
    std::sort(nd->in.begin(), nd->in.end());
  }
  g.BumpEdgeCount(num_edges);
  return g;
}

}  // namespace ringo
