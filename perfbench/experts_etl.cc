// experts_etl: the paper's §4.1 StackOverflow-experts workflow, load paid
// once per iteration. One iteration loads the generated posts TSV, then for
// every tag runs select -> select -> select -> join -> ToGraph -> PageRank
// -> rank through the Ringo C++ API. Parsing, select and join do almost all
// of the work; the acceptance graphs are small, so kernel changes should
// barely move this workload while table-side changes should.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "algo/pagerank.h"
#include "common.h"
#include "core/engine.h"
#include "gen/stackoverflow_gen.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace perfbench {
namespace {

constexpr int64_t kQuestions = 400'000;
constexpr int64_t kUsers = 40'000;
constexpr int kSetupReps = 5;
constexpr int kTopK = 10;
constexpr int kPageRankIters = 20;
// The tail percentile job_tail_ms reports: the highest with about ten
// iterations beyond it in a 25-second run.
constexpr double kTailPct = 60;

const char* const kSchema =
    "PostId:int,Type:string,UserId:int,Tag:string,AcceptedAnswerId:int,"
    "ParentId:int,Time:int";

ringo::Schema PostsSchema() {
  using ringo::ColumnType;
  return ringo::Schema({{"PostId", ColumnType::kInt},
                        {"Type", ColumnType::kString},
                        {"UserId", ColumnType::kInt},
                        {"Tag", ColumnType::kString},
                        {"AcceptedAnswerId", ColumnType::kInt},
                        {"ParentId", ColumnType::kInt},
                        {"Time", ColumnType::kInt}});
}

ringo::gen::StackOverflowConfig PostsConfig(uint64_t seed) {
  ringo::gen::StackOverflowConfig cfg;
  cfg.num_questions = kQuestions;
  cfg.num_users = kUsers;
  cfg.seed = seed;
  return cfg;
}

ringo::PageRankConfig RankConfig() {
  ringo::PageRankConfig cfg;
  cfg.max_iters = kPageRankIters;
  cfg.tol = 0;  // Fixed round count, the same as the script's pagerank().
  return cfg;
}

struct Layers {
  Layer load{"bench/table.load", kTable};
  Layer select{"bench/table.select", kTable};
  Layer join{"bench/table.join", kTable};
  Layer tograph{"bench/core.tograph", kCore};
  Layer pagerank{"bench/algo.pagerank", kAlgo};
  Layer rank{"bench/table.rank", kTable};
  Samples join_rows;
  Samples edges;
  std::vector<Layer*> All() {
    return {&load, &select, &join, &tograph, &pagerank, &rank};
  }
};

// One tag's experts question: the top-k users by PageRank over the graph of
// askers -> accepted answerers. Returns the ranked table and the raw scores
// (kept for the mass check, which runs after the clock stops).
struct TagResult {
  ringo::TablePtr top;
  ringo::NodeValues scores;
  int64_t join_rows = 0;
  int64_t edges = 0;
};

ringo::Result<TagResult> ExpertsForTag(const ringo::Ringo& ringo,
                                       const ringo::TablePtr& posts,
                                       const std::string& tag, Layers& L) {
  TagResult out;
  ringo::TablePtr jp, q, a, qa;
  RINGO_ASSIGN_OR_RETURN(
      jp, Timed(L.select, [&] { return ringo.Select(posts, "Tag = " + tag); }));
  RINGO_ASSIGN_OR_RETURN(
      q, Timed(L.select, [&] { return ringo.Select(jp, "Type = question"); }));
  RINGO_ASSIGN_OR_RETURN(
      a, Timed(L.select, [&] { return ringo.Select(jp, "Type = answer"); }));
  RINGO_ASSIGN_OR_RETURN(qa, Timed(L.join, [&] {
                           return ringo.Join(q, a, "AcceptedAnswerId",
                                             "PostId");
                         }));
  out.join_rows = qa->NumRows();
  RINGO_ASSIGN_OR_RETURN(ringo::DirectedGraph g, Timed(L.tograph, [&] {
                           return ringo.ToGraph(qa, "UserId-1", "UserId-2");
                         }));
  out.edges = g.NumEdges();
  RINGO_ASSIGN_OR_RETURN(out.scores, Timed(L.pagerank, [&] {
                           return ringo::ParallelPageRank(g, RankConfig());
                         }));
  RINGO_ASSIGN_OR_RETURN(out.top, Timed(L.rank, [&] {
                           return ringo.TableFromMap(out.scores, "User", "Scr")
                               ->TopK("Scr", kTopK);
                         }));
  return out;
}

// The same question through the declarative front-end, loading the file
// itself, as a user of Ringo::RunQuery would write it.
std::string ExpertsScript(const std::string& path, const std::string& tag) {
  return "posts = load(\"" + path + "\", \"" + kSchema + "\")\n" +
         "jp = select(posts, \"Tag = " + tag + "\")\n" +
         "q = select(jp, \"Type = question\")\n" +
         "a = select(jp, \"Type = answer\")\n" +
         "qa = join(q, a, \"AcceptedAnswerId\", \"PostId\")\n" +
         "g = graph(qa, \"UserId-1\", \"UserId-2\")\n" +
         "top_k(pagerank(g, " + std::to_string(kPageRankIters) +
         "), \"Score\", " + std::to_string(kTopK) + ")\n";
}

// Top-k tables are equal when ids match exactly and scores within 1e-9.
bool SameTopK(const ringo::Table& a, const ringo::Table& b) {
  if (a.NumRows() != b.NumRows() || a.NumRows() != kTopK) return false;
  for (int64_t i = 0; i < a.NumRows(); ++i) {
    if (a.column(0).GetInt(i) != b.column(0).GetInt(i)) return false;
    if (!NearlyEqual(a.column(1).GetFloat(i), b.column(1).GetFloat(i))) {
      return false;
    }
  }
  return true;
}

}  // namespace

void RunExpertsEtl(const Options& opts, Report* report) {
  namespace metrics = ringo::metrics;
  metrics::SetEnabled(false);
  ringo::SetNumThreads(opts.nproc);
  const std::string path = opts.workdir + "/posts.tsv";
  const std::vector<std::string> tags = PostsConfig(opts.seed).tags;
  ringo::Ringo ringo;

  // Set-up: generate the posts and write them as TSV, several times; the
  // last copy is the input.
  Samples setup_s;
  int64_t gen_rows = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double t0 = NowS();
    ringo::TablePtr posts = ringo::gen::GenerateStackOverflowPosts(
        PostsConfig(opts.seed), ringo.pool());
    ringo.SaveTableTSV(*posts, path).Abort("save posts");
    gen_rows = posts->NumRows();
    posts.reset();
    setup_s.Add(NowS() - t0);
  }
  const ringo::Schema schema = PostsSchema();
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "input: %lld posts rows (%lld questions), %lld TSV bytes, "
                "%zu tags",
                static_cast<long long>(gen_rows),
                static_cast<long long>(kQuestions),
                static_cast<long long>(std::filesystem::file_size(path)),
                tags.size());
  report->Info(buf);

  // Answer check, untimed and once per run: the C++ pipeline's top-k for
  // one seeded tag equals the same pipeline run through Ringo::RunQuery.
  {
    const std::string& tag = tags[opts.seed % tags.size()];
    Layers scratch;
    auto posts = ringo.LoadTableTSV(schema, path);
    posts.status().Abort("load posts");
    auto api = ExpertsForTag(ringo, *posts, tag, scratch);
    auto script = ringo.RunQuery(ExpertsScript(path, tag));
    ++report->attempted;
    report->Check(api.ok() && script.ok() && SameTopK(*api->top, **script),
                  "experts top-k: C++ API vs RunQuery for tag " + tag);
  }

  // Measured iterations: load once, then every tag's question.
  Layers L;
  Samples load_s, pipeline_s, untraced_job_s, traced_job_s;
  const double start = NowS();
  const double untraced_until = opts.trace ? start + opts.seconds / 2 : 1e300;
  bool tracing = false;
  int64_t rows_loaded = 0;
  while (NowS() - start < opts.seconds || load_s.size() < 2) {
    if (opts.trace && !tracing && NowS() >= untraced_until &&
        !untraced_job_s.empty()) {
      tracing = true;
      ringo::trace::Clear();
      metrics::SetEnabled(true);
      for (Layer* l : L.All()) l->per_iter_ms = Samples();
      L.join_rows = Samples();
      L.edges = Samples();
    }
    std::vector<TagResult> results;
    const double t0 = NowS();
    auto posts =
        Timed(L.load, [&] { return ringo.LoadTableTSV(schema, path); });
    const double t1 = NowS();
    bool ok = posts.ok();
    if (ok) {
      for (const std::string& tag : tags) {
        auto r = ExpertsForTag(ringo, *posts, tag, L);
        if (!r.ok()) {
          ok = false;
          break;
        }
        results.push_back(std::move(*r));
      }
    }
    const double t2 = NowS();
    report->attempted += 1 + static_cast<int64_t>(tags.size());
    report->Check(ok, "experts iteration failed");
    if (!ok) break;
    rows_loaded = (*posts)->NumRows();

    // Untimed checks: each tag's PageRank mass sums to 1.
    int64_t join_rows = 0, edges = 0;
    for (const TagResult& r : results) {
      double mass = 0;
      for (const auto& [id, s] : r.scores) mass += s;
      report->Check(std::fabs(mass - 1.0) <= 1e-9, "PageRank mass != 1");
      report->Check(r.top->NumRows() == kTopK, "experts top-k size");
      join_rows += r.join_rows;
      edges += r.edges;
    }
    load_s.Add(t1 - t0);
    pipeline_s.Add(t2 - t1);
    (tracing ? traced_job_s : untraced_job_s).Add(t2 - t0);
    for (Layer* l : L.All()) l->EndIteration();
    L.join_rows.Add(static_cast<double>(join_rows));
    L.edges.Add(static_cast<double>(edges));
  }
  metrics::SetEnabled(false);

  report->Describe("setup_s", setup_s, "s");
  report->Describe("load_s", load_s, "s");
  report->Describe("pipeline_s", pipeline_s, "s");
  if (!opts.trace) {
    Samples job_ms;
    double job_s = 0;
    for (double s : untraced_job_s.values()) {
      job_ms.Add(s * 1e3);
      job_s += s;
    }
    report->EndToEnd(setup_s, job_ms, kTailPct,
                     static_cast<double>(job_ms.size()) / job_s);
    return;
  }
  report->Describe("job_s, untraced", untraced_job_s, "s");
  report->Describe("job_s, traced", traced_job_s, "s");
  double layer_ms[kNumBuckets] = {};
  SumBuckets(L.All(), layer_ms);
  report->PerLayer(layer_ms, static_cast<double>(traced_job_s.size()),
                   traced_job_s.Sum() * 1e3,
                   (traced_job_s.Median() - untraced_job_s.Median()) * 1e3);
  report->Info("per-call layer figures (median per iteration, traced run):");
  report->Detail("table.load_ms", L.load.per_iter_ms.Median(), "ms");
  report->Detail("table.load_rows_per_s",
                 static_cast<double>(rows_loaded) /
                     (L.load.per_iter_ms.Median() / 1e3),
                 "1/s");
  report->Detail("table.select_ms", L.select.per_iter_ms.Median(), "ms");
  report->Detail("table.join_ms", L.join.per_iter_ms.Median(), "ms");
  report->Detail("table.join_rows", L.join_rows.Median(), "count");
  report->Detail("table.rank_ms", L.rank.per_iter_ms.Median(), "ms");
  report->Detail("core.tograph_ms", L.tograph.per_iter_ms.Median(), "ms");
  report->Detail("core.edges", L.edges.Median(), "count");
  report->Detail("algo.pagerank_ms", L.pagerank.per_iter_ms.Median(), "ms");
}

}  // namespace perfbench
