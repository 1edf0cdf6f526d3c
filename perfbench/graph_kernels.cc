// graph_kernels: a Table-3-style battery over a LiveJournalSim-shaped edge
// table. One battery converts the table to a directed and an undirected
// graph, builds both cold AlgoView snapshots, and runs PageRank, triangle
// counting, 16 BFS and WCC, and ranks the PageRank scores into a top-10
// table. Conversion, the algo kernels and util/parallel fork/join do
// nearly all of the work; nothing is parsed or served.
#include <cstdio>
#include <string>
#include <vector>

#include "algo/algo_view.h"
#include "algo/bfs.h"
#include "algo/connectivity.h"
#include "algo/pagerank.h"
#include "algo/triangles.h"
#include "common.h"
#include "core/conversion.h"
#include "core/engine.h"
#include "gen/graph_gen.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr double kScale = 1.0;  // 2^17 nodes, 1M edges.
constexpr int kBfsSources = 16;
constexpr int kSetupReps = 5;
constexpr int kTopK = 10;
// The tail percentile job_tail_ms reports: the highest with at least ten
// batteries beyond it in a 25-second run.
constexpr double kTailPct = 75;

struct Layers {
  Layer tograph{"bench/core.tograph", kCore};
  Layer toundirected{"bench/core.toundirected", kCore};
  Layer view_build{"bench/algo.view_build", kAlgo};
  Layer pagerank{"bench/algo.pagerank", kAlgo};
  Layer triangles{"bench/algo.triangles", kAlgo};
  Layer bfs{"bench/algo.bfs", kAlgo};
  Layer wcc{"bench/algo.wcc", kAlgo};
  Layer rank{"bench/table.rank", kTable};
  std::vector<Layer*> All() {
    return {&tograph, &toundirected, &view_build, &pagerank,
            &triangles, &bfs, &wcc, &rank};
  }
};

// The results the thread-count check compares.
struct BatteryOut {
  int64_t nodes = 0;
  int64_t edges = 0;
  int64_t triangles = 0;
  ringo::ComponentLabels wcc;
  std::vector<ringo::NodeInts> bfs;
  double pagerank_mass = 0;
  int64_t top_rows = 0;
};

BatteryOut Battery(const ringo::Ringo& ringo, const ringo::Table& edges,
                   const std::vector<ringo::NodeId>& sources, Layers& L) {
  BatteryOut out;
  auto g = Timed(L.tograph, [&] {
    return ringo::TableToGraph(edges, "src", "dst").ValueOrDie();
  });
  auto ug = Timed(L.toundirected, [&] {
    return ringo::TableToUndirectedGraph(edges, "src", "dst").ValueOrDie();
  });
  Timed(L.view_build, [&] {
    return ringo::AlgoView::Of(g)->NumNodes() + ringo::AlgoView::Of(ug)->NumNodes();
  });
  ringo::PageRankConfig cfg;
  cfg.max_iters = 10;  // The paper times exactly ten iterations.
  cfg.tol = 0;
  const ringo::NodeValues pr = Timed(L.pagerank, [&] {
    return ringo::ParallelPageRank(g, cfg).ValueOrDie();
  });
  out.triangles =
      Timed(L.triangles, [&] { return ringo::ParallelTriangleCount(ug); });
  for (const ringo::NodeId s : sources) {
    out.bfs.push_back(
        Timed(L.bfs, [&] { return ringo::BfsDistances(g, s); }));
  }
  out.wcc = Timed(L.wcc, [&] { return ringo::WeaklyConnectedComponents(g); });
  // The PageRank answer as a table of the top nodes, as a user reads it.
  out.top_rows = Timed(L.rank, [&] {
    return ringo.TableFromMap(pr, "Node", "Score")
        ->TopK("Score", kTopK)
        .ValueOrDie()
        ->NumRows();
  });
  out.nodes = g.NumNodes();
  out.edges = g.NumEdges();
  for (const auto& [id, s] : pr) out.pagerank_mass += s;
  return out;
}

}  // namespace

void RunGraphKernels(const Options& opts, Report* report) {
  namespace metrics = ringo::metrics;
  metrics::SetEnabled(false);
  ringo::SetNumThreads(opts.nproc);
  ringo::Ringo ringo;

  Samples setup_s;
  ringo::TablePtr edges;
  std::vector<ringo::NodeId> sources;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = NowS();
    const std::vector<ringo::Edge> list =
        ringo::gen::LiveJournalSimEdges(kScale, opts.seed);
    edges = EdgeTable(list);
    ringo::Rng rng(opts.seed);
    sources.clear();
    for (int i = 0; i < kBfsSources; ++i) {
      sources.push_back(
          list[rng.UniformInt(0, static_cast<int64_t>(list.size()) - 1)].first);
    }
    setup_s.Add(NowS() - t0);
  }

  Layers L;
  Samples battery_s, untraced_s, traced_s;
  BatteryOut first;
  const double start = NowS();
  bool tracing = false;
  while (NowS() - start < opts.seconds || battery_s.size() < 3) {
    if (opts.trace && !tracing && NowS() - start >= opts.seconds / 2 &&
        !untraced_s.empty()) {
      tracing = true;
      ringo::trace::Clear();
      metrics::SetEnabled(true);
      for (Layer* l : L.All()) l->per_iter_ms = Samples();
    }
    const double t0 = NowS();
    BatteryOut out = Battery(ringo, *edges, sources, L);
    const double dt = NowS() - t0;
    battery_s.Add(dt);
    (tracing ? traced_s : untraced_s).Add(dt);
    for (Layer* l : L.All()) l->EndIteration();
    report->attempted += 6 + kBfsSources;
    report->Check(std::fabs(out.pagerank_mass - 1.0) <= 1e-9,
                  "PageRank mass != 1");
    report->Check(out.top_rows == kTopK, "PageRank top-k size");
    if (battery_s.size() == 1) first = std::move(out);
  }

  // Answer check, untimed: the same battery on one thread gives identical
  // triangle, WCC and BFS results. In the traced run its layer times are
  // the single-thread side of the speedups.
  ringo::SetNumThreads(1);
  Layers one;
  const BatteryOut single = Battery(ringo, *edges, sources, one);
  for (Layer* l : one.All()) l->EndIteration();
  ringo::SetNumThreads(opts.nproc);
  metrics::SetEnabled(false);
  report->attempted += 3;
  report->Check(single.triangles == first.triangles,
                "triangles differ between 1 and nproc threads");
  report->Check(single.wcc == first.wcc,
                "WCC labels differ between 1 and nproc threads");
  report->Check(single.bfs == first.bfs,
                "BFS distances differ between 1 and nproc threads");

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "input: %lld edge rows, graph %lld nodes / %lld edges, "
                "%lld triangles, %d BFS sources",
                static_cast<long long>(edges->NumRows()),
                static_cast<long long>(first.nodes),
                static_cast<long long>(first.edges),
                static_cast<long long>(first.triangles), kBfsSources);
  report->Info(buf);
  report->Describe("setup_s", setup_s, "s");
  report->Describe("battery_s", battery_s, "s");
  if (!opts.trace) {
    Samples job_ms;
    for (double s : battery_s.values()) job_ms.Add(s * 1e3);
    report->EndToEnd(setup_s, job_ms, kTailPct,
                     static_cast<double>(battery_s.size()) / battery_s.Sum());
    return;
  }
  report->Describe("battery_s, untraced", untraced_s, "s");
  report->Describe("battery_s, traced", traced_s, "s");
  double layer_ms[kNumBuckets] = {};
  SumBuckets(L.All(), layer_ms);
  report->PerLayer(layer_ms, static_cast<double>(traced_s.size()),
                   traced_s.Sum() * 1e3,
                   (traced_s.Median() - untraced_s.Median()) * 1e3);
  report->Info("per-call layer figures (median per battery, traced run; "
               "speedup = 1 thread / nproc threads):");
  report->Detail("core.tograph_ms", L.tograph.per_iter_ms.Median(), "ms");
  report->Detail("core.toundirected_ms", L.toundirected.per_iter_ms.Median(),
                 "ms");
  report->Detail("core.edges", static_cast<double>(first.edges), "count");
  report->Detail("algo.view_build_ms", L.view_build.per_iter_ms.Median(),
                 "ms");
  const std::pair<const char*, Layer Layers::*> kernels[] = {
      {"pagerank", &Layers::pagerank},
      {"triangles", &Layers::triangles},
      {"bfs", &Layers::bfs},
      {"wcc", &Layers::wcc}};
  for (const auto& [name, member] : kernels) {
    const double ms = (L.*member).per_iter_ms.Median();
    report->Detail(std::string("algo.") + name + "_ms", ms, "ms");
    report->Detail(std::string("algo.") + name + "_speedup",
                   (one.*member).per_iter_ms.Median() / ms, "x");
  }
  report->Detail("table.rank_ms", L.rank.per_iter_ms.Median(), "ms");
}

}  // namespace perfbench
