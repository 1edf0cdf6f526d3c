// serve_mixed: an open loop from one generator thread into serve::Engine
// (nproc - 1 workers, default options) over a LiveJournalSim-0.1 graph and
// a posts session table loaded from TSV. The mix is 70% BFS, 10% table
// top-k, 8% PageRank and 12% experts scripts; the same thread applies a
// 1%-of-E edge batch on a fixed schedule that swaps two sets of absent
// edges back and forth, so only two graph states ever exist and every
// answer can be checked against a precomputed one for its state. After
// the fixed-rate phase, one thread keeps the workers saturated closed-loop
// to measure throughput.
// This is the only workload with queueing, the query front-end, snapshot
// pinning, and delta patches with writes beside reads.
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/bfs.h"
#include "common.h"
#include "core/conversion.h"
#include "core/engine.h"
#include "gen/graph_gen.h"
#include "gen/stackoverflow_gen.h"
#include "query/query.h"
#include "serve/engine.h"
#include "serve/session.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using ringo::serve::Query;
using ringo::serve::QueryKind;
using ringo::serve::QueryResult;

constexpr double kGraphScale = 0.1;
constexpr int64_t kQuestions = 50'000;
constexpr int64_t kUsers = 5'000;
constexpr int kSetupReps = 5;
constexpr int kBfsSources = 256;
constexpr double kBatchFraction = 0.01;  // Edges per write, of E.
constexpr double kWritePeriodS = 0.05;
// The fixed rate the latency metrics are taken at: about a quarter of the
// seed build's saturation throughput on a 4-core machine. Nearer half,
// the median request sits on the edge between un-queued BFS and queued
// requests and jumps 2x from run to run.
constexpr double kFixedQps = 300;
// The share of the run spent at the fixed rate; the rest measures the
// saturation throughput with this many requests in flight per worker.
constexpr double kFixedShare = 0.6;
constexpr int kInFlightPerWorker = 4;
constexpr double kWarmupS = 1;
// The tail percentile job_tail_ms reports.
constexpr double kTailPct = 99;
constexpr const char* kPhaseSpan = "bench/serve.phase";

// The closed universe of queries the mix draws from; each has one answer
// per graph state.
struct Universe {
  std::vector<Query> queries;
  std::vector<int> bfs, pagerank, topk, script;
};

std::string TagScript(const std::string& tag) {
  return "jp = select(t, \"Tag = " + tag + "\")\n" +
         "q = select(jp, \"Type = question\")\n" +
         "a = select(jp, \"Type = answer\")\n" +
         "qa = join(q, a, \"AcceptedAnswerId\", \"PostId\")\n" +
         "g = graph(qa, \"UserId-1\", \"UserId-2\")\n" +
         "top_k(pagerank(g, 10), \"Score\", 10)\n";
}

Universe MakeUniverse(const std::vector<ringo::NodeId>& sources,
                      const std::vector<std::string>& tags) {
  Universe u;
  auto add = [&u](Query q, std::vector<int>* group) {
    group->push_back(static_cast<int>(u.queries.size()));
    u.queries.push_back(std::move(q));
  };
  for (const ringo::NodeId s : sources) {
    Query q;
    q.kind = QueryKind::kBfs;
    q.source = s;
    add(q, &u.bfs);
  }
  {
    Query q;
    q.kind = QueryKind::kPageRank;
    q.iters = 10;
    add(q, &u.pagerank);
  }
  for (const char* col : {"Time", "PostId"}) {
    Query q;
    q.kind = QueryKind::kTableTopK;
    q.column = col;
    q.k = 100;
    add(q, &u.topk);
  }
  for (const std::string& tag : tags) {
    Query q;
    q.kind = QueryKind::kScript;
    q.script = TagScript(tag);
    add(q, &u.script);
  }
  return u;
}

// Seeded 70/10/8/12 draw over the universe.
int Draw(const Universe& u, ringo::Rng& rng) {
  const double x = rng.UniformReal();
  const std::vector<int>& group = x < 0.70   ? u.bfs
                                  : x < 0.80 ? u.topk
                                  : x < 0.88 ? u.pagerank
                                             : u.script;
  return group[rng.UniformInt(0, static_cast<int64_t>(group.size()) - 1)];
}

struct Answer {
  int64_t rows = 0;
  double checksum = 0;
};

// The served world: the live graph, its session and the two edge sets the
// writes swap. State A holds `x1` and not `x2`; state B the reverse. Every
// write inserts one set and deletes the other, so all writes have the same
// shape and only two graph states ever exist.
struct World {
  std::unique_ptr<ringo::DirectedGraph> graph;
  std::unique_ptr<ringo::serve::Session> session;
  std::vector<ringo::Edge> x1, x2;
  std::vector<ringo::NodeId> sources;
  int64_t posts_rows = 0;
  bool in_b = false;
  std::map<uint64_t, int> state_of_stamp;

  // Applies the next write and records the stamp of the state it produced.
  void Write() {
    if (in_b) {
      graph->ApplyEdgeBatch(x1, x2);
    } else {
      graph->ApplyEdgeBatch(x2, x1);
    }
    in_b = !in_b;
    state_of_stamp[graph->MutationStamp()] = in_b ? 1 : 0;
  }
};

World Setup(const Options& opts, const std::string& posts_path) {
  World w;
  const std::vector<ringo::Edge> list =
      ringo::gen::LiveJournalSimEdges(kGraphScale, opts.seed);
  w.graph = std::make_unique<ringo::DirectedGraph>(
      ringo::TableToGraph(*EdgeTable(list), "src", "dst").ValueOrDie());

  ringo::gen::StackOverflowConfig cfg;
  cfg.num_questions = kQuestions;
  cfg.num_users = kUsers;
  cfg.seed = opts.seed;
  ringo::Ringo ringo;
  const ringo::TablePtr posts =
      ringo::gen::GenerateStackOverflowPosts(cfg, ringo.pool());
  ringo.SaveTableTSV(*posts, posts_path).Abort("save posts");
  auto session = ringo::serve::Session::WithTableFile(
      "serve_mixed", w.graph.get(), posts->schema(), posts_path, ringo.pool());
  session.status().Abort("session");
  w.session = std::make_unique<ringo::serve::Session>(std::move(*session));
  w.posts_rows = w.session->table()->NumRows();

  ringo::Rng rng(opts.seed ^ 0x5e77e);
  const std::vector<ringo::NodeId> ids = w.graph->SortedNodeIds();
  auto pick = [&] {
    return ids[rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1)];
  };
  for (int i = 0; i < kBfsSources; ++i) w.sources.push_back(pick());
  const int64_t want =
      static_cast<int64_t>(kBatchFraction * w.graph->NumEdges());
  std::set<ringo::Edge> absent;
  while (static_cast<int64_t>(absent.size()) < want) {
    const ringo::Edge e{pick(), pick()};
    if (e.first != e.second && !w.graph->HasEdge(e.first, e.second)) {
      absent.insert(e);
    }
  }
  for (const ringo::Edge& e : absent) {
    (w.x1.size() < w.x2.size() ? w.x1 : w.x2).push_back(e);
  }
  w.graph->ApplyEdgeBatch(w.x1, {});  // State A.
  w.state_of_stamp[w.graph->MutationStamp()] = 0;
  return w;
}

// One submitted request.
struct Sent {
  int query = 0;
  double due = 0;
  double submitted = 0;
  std::future<QueryResult> fut;
};

struct PhaseStats {
  Samples latency_ms;  // From due time to completion, answered requests.
  Samples queue_ms, lag_ms, write_ms, apply_ms;
  std::map<QueryKind, Samples> run_ms;
  double run_ms_total = 0;
  double wall_s = 0;
  int64_t sent = 0;
  int64_t shed = 0;
  int64_t errors = 0;  // Non-OK answers other than shedding.
  int64_t wrong = 0;
};

// Waits for one request's answer and records it in `st`: shed, failed,
// wrong for its pinned stamp's graph state, or answered with its latency
// from the due time.
void Record(Sent& s, const World& w,
            const std::vector<std::vector<Answer>>& answers, PhaseStats* st) {
  const QueryResult r = s.fut.get();
  if (r.status.code() == ringo::StatusCode::kOverloaded) {
    ++st->shed;
    return;
  }
  if (!r.status.ok()) {
    ++st->errors;
    std::fprintf(stderr, "query failed: %s\n", r.status.ToString().c_str());
    return;
  }
  const auto state = w.state_of_stamp.find(r.snapshot_stamp);
  const Answer* want = state == w.state_of_stamp.end()
                           ? nullptr
                           : &answers[state->second][s.query];
  if (want == nullptr || r.rows != want->rows ||
      !NearlyEqual(r.checksum, want->checksum)) {
    ++st->wrong;
    std::fprintf(stderr, "wrong answer: query %d (%s) at stamp %llu\n",
                 s.query, ringo::serve::QueryKindName(r.kind),
                 static_cast<unsigned long long>(r.snapshot_stamp));
    return;
  }
  st->latency_ms.Add((s.submitted - s.due) * 1e3 + r.latency_ms);
  st->queue_ms.Add(r.queue_ms);
  st->run_ms[r.kind].Add(r.run_ms);
  st->run_ms_total += r.run_ms;
}

// Drives the engine at `rate` for `seconds` on a fixed schedule: requests
// due every 1/rate, writes every kWritePeriodS. Latency runs from each
// request's due time, so a stalled generator shows up as latency.
PhaseStats RunPhase(ringo::serve::Engine& engine, World& w, const Universe& u,
                    const std::vector<std::vector<Answer>>& answers,
                    double rate, double seconds, uint64_t seed) {
  PhaseStats st;
  ringo::Rng rng(seed);
  std::vector<Sent> sent;
  const int64_t n = static_cast<int64_t>(rate * seconds);
  sent.reserve(n);
  const double t0 = NowS() + 0.001;
  double next_write = t0 + kWritePeriodS / 2;
  for (int64_t i = 0; i < n;) {
    const double due_q = t0 + static_cast<double>(i) / rate;
    const bool write = next_write <= due_q;
    const double due = write ? next_write : due_q;
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(due))));
    const double now = NowS();
    st.lag_ms.Add((now - due) * 1e3);
    if (write) {
      w.Write();
      const double done = NowS();
      st.apply_ms.Add((done - now) * 1e3);
      st.write_ms.Add((done - due) * 1e3);
      next_write += kWritePeriodS;
      continue;
    }
    Sent s;
    s.query = Draw(u, rng);
    s.due = due;
    s.submitted = now;
    s.fut = engine.Submit(*w.session, u.queries[s.query]);
    sent.push_back(std::move(s));
    ++i;
  }
  for (Sent& s : sent) Record(s, w, answers, &st);
  st.wall_s = NowS() - t0;
  st.sent = n;
  return st;
}

// Drives the engine closed-loop for `seconds`: one thread keeps
// `in_flight` requests outstanding, waiting for the oldest before sending
// the next, so the workers never idle and the admission queue never
// fills. Writes go in on the open loop's schedule. Answered requests per
// wall second is the saturation throughput.
PhaseStats RunSaturated(ringo::serve::Engine& engine, World& w,
                        const Universe& u,
                        const std::vector<std::vector<Answer>>& answers,
                        int in_flight, double seconds, uint64_t seed) {
  PhaseStats st;
  ringo::Rng rng(seed);
  std::deque<Sent> pending;
  auto send = [&] {
    Sent s;
    s.query = Draw(u, rng);
    s.due = s.submitted = NowS();
    s.fut = engine.Submit(*w.session, u.queries[s.query]);
    pending.push_back(std::move(s));
    ++st.sent;
  };
  const double t0 = NowS();
  double next_write = t0 + kWritePeriodS / 2;
  while (static_cast<int>(pending.size()) < in_flight) send();
  while (!pending.empty()) {
    Record(pending.front(), w, answers, &st);
    pending.pop_front();
    const double now = NowS();
    if (now - t0 >= seconds) continue;  // Drain.
    if (now >= next_write) {
      w.Write();
      st.write_ms.Add((NowS() - now) * 1e3);
      next_write += kWritePeriodS;
    }
    send();
  }
  st.wall_s = NowS() - t0;
  return st;
}

// Answers for both graph states, one query at a time on a one-worker
// engine with no writer running; BFS row counts are cross-checked against
// the algo layer's own BFS.
std::vector<std::vector<Answer>> Precompute(World& w, const Universe& u,
                                            Report* report) {
  std::vector<std::vector<Answer>> answers(2);
  ringo::serve::EngineOptions eo;
  eo.workers = 1;
  ringo::serve::Engine ref(eo);
  for (int state = 0; state < 2; ++state) {
    for (const Query& q : u.queries) {
      const QueryResult r = ref.Submit(*w.session, q).get();
      r.status.Abort("reference answer");
      if (q.kind == QueryKind::kBfs) {
        const int64_t reached = static_cast<int64_t>(
            ringo::BfsDistances(*w.graph, q.source).size());
        ++report->attempted;
        report->Check(reached == r.rows, "engine BFS rows vs algo BFS");
      }
      answers[state].push_back({r.rows, r.checksum});
    }
    w.Write();  // A -> B, then B -> A: the timed run starts from A.
  }
  return answers;
}

// Adds a phase's requests and writes to the report; every non-OK or wrong
// answer is a failure.
void Tally(const PhaseStats& st, Report* report) {
  report->attempted += st.sent + static_cast<int64_t>(st.write_ms.size());
  report->failed += st.errors + st.wrong + st.shed;
  if (st.wrong > 0 || st.errors > 0) report->correct = false;
}

// The layer a script operator's Query/exec/<op> span belongs to, or -1.
int ScriptOpLayer(const std::string& span) {
  static const std::map<std::string, int> kOps = {
      {"Query/exec/load", kTable},       {"Query/exec/select", kTable},
      {"Query/exec/project", kTable},    {"Query/exec/join", kTable},
      {"Query/exec/order_by", kTable},   {"Query/exec/group_by", kTable},
      {"Query/exec/top_k", kTable},      {"Query/exec/unique", kTable},
      {"Query/exec/graph", kCore},       {"Query/exec/filtered_graph", kCore},
      {"Query/exec/nodes", kCore},       {"Query/exec/edges", kCore},
      {"Query/exec/pagerank", kAlgo}};
  const auto it = kOps.find(span);
  return it == kOps.end() ? -1 : it->second;
}

}  // namespace

void RunServeMixed(const Options& opts, Report* report) {
  namespace metrics = ringo::metrics;
  metrics::SetEnabled(opts.trace);  // Keeps the set-up conversion spans.
  const std::string posts_path = opts.workdir + "/session_posts.tsv";

  Samples setup_s;
  World w;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w = World();
    const double t0 = NowS();
    w = Setup(opts, posts_path);
    setup_s.Add(NowS() - t0);
  }
  const Universe u =
      MakeUniverse(w.sources, ringo::gen::StackOverflowConfig().tags);
  const auto answers = Precompute(w, u, report);
  metrics::SetEnabled(false);

  // One OpenMP thread per query: nproc - 1 workers each forking
  // nproc-thread teams for table operators oversubscribe the cores, and
  // with the default spin-wait the same seed's queue p99 then swings
  // between ~4 and ~100 ms from run to run.
  ringo::SetNumThreads(1);
  ringo::serve::EngineOptions eo;
  eo.workers = std::max(1, opts.nproc - 1);
  ringo::serve::Engine engine(eo);

  char buf[256];
  std::snprintf(buf, sizeof buf,
                "input: graph %lld nodes / %lld edges, session table %lld "
                "rows, write batch %zu edges every %.0f ms, %d workers",
                static_cast<long long>(w.graph->NumNodes()),
                static_cast<long long>(w.graph->NumEdges()),
                static_cast<long long>(w.posts_rows), w.x1.size() + w.x2.size(),
                kWritePeriodS * 1e3, eo.workers);
  report->Info(buf);

  // A short warm-up: answers checked, timings dropped.
  Tally(RunPhase(engine, w, u, answers, kFixedQps, kWarmupS, opts.seed), report);

  if (opts.trace) {
    // Untraced then traced halves at the fixed rate; the difference in
    // median latency is the tracing overhead.
    const PhaseStats plain = RunPhase(engine, w, u, answers, kFixedQps,
                                      opts.seconds / 2, opts.seed * 2 + 1);
    Tally(plain, report);
    metrics::SetEnabled(true);
    const char* const kViewCounters[] = {"algo_view/hit", "algo_view/build",
                                         "algo_view/delta_apply",
                                         "algo_view/compact"};
    std::map<std::string, int64_t> before;
    for (const char* c : kViewCounters) before[c] = metrics::CounterValue(c);
    // The traced phase runs inside one harness span; its interval picks
    // the phase's spans out of those the workers recorded.
    PhaseStats st;
    {
      ringo::trace::Span phase(kPhaseSpan);
      st = RunPhase(engine, w, u, answers, kFixedQps, opts.seconds / 2,
                    opts.seed * 2 + 2);
    }
    auto delta = [&](const char* name) {
      return static_cast<double>(metrics::CounterValue(name) - before[name]);
    };
    Tally(st, report);

    double layer_ms[kNumBuckets] = {};
    layer_ms[kTable] = st.run_ms[QueryKind::kTableTopK].Sum();
    layer_ms[kAlgo] = st.run_ms[QueryKind::kBfs].Sum() +
                      st.run_ms[QueryKind::kPageRank].Sum();
    const std::vector<ringo::trace::SpanEvent> spans =
        ringo::trace::Spans();
    int64_t from_ns = 0, to_ns = 0;
    for (const ringo::trace::SpanEvent& e : spans) {
      if (e.name == kPhaseSpan) {
        from_ns = e.start_ns;
        to_ns = e.start_ns + e.dur_ns;
      }
    }
    for (const ringo::trace::SpanEvent& e : spans) {
      if (e.start_ns < from_ns || e.start_ns > to_ns) continue;
      const int b = ScriptOpLayer(e.name);
      if (b >= 0) layer_ms[b] += static_cast<double>(e.dur_ns) / 1e6;
    }
    report->Describe("latency_ms, untraced", plain.latency_ms);
    report->Describe("latency_ms, traced", st.latency_ms);
    report->PerLayer(layer_ms, static_cast<double>(st.latency_ms.size()),
                     st.latency_ms.Sum(),
                     st.latency_ms.Median() - plain.latency_ms.Median());

    // The scripts alone, one at a time on this thread.
    Samples script_ms;
    for (const int qi : u.script) {
      ringo::query::RunOptions ro;
      ro.pool = w.session->table()->pool();
      ro.bindings["t"] = w.session->table();
      for (int rep = 0; rep < 3; ++rep) {
        const double t0 = NowS();
        ringo::query::RunScript(u.queries[qi].script, ro).status().Abort(
            "script");
        script_ms.Add((NowS() - t0) * 1e3);
      }
    }
    report->Info("per-call layer figures (traced phase, per request):");
    report->Detail("serve.queue_p50_ms", st.queue_ms.Median(), "ms");
    report->Detail("serve.queue_p99_ms", st.queue_ms.Percentile(99), "ms");
    for (const auto& [kind, s] : st.run_ms) {
      report->Detail(std::string("serve.run_ms.") +
                         ringo::serve::QueryKindName(kind),
                     s.Median(), "ms");
    }
    report->Detail("serve.worker_busy_frac",
                   st.run_ms_total / 1e3 / (eo.workers * st.wall_s), "1");
    report->Detail("query.script_run_ms", script_ms.Median(), "ms");
    report->Detail("graph.apply_batch_ms", st.apply_ms.Median(), "ms");
    const double hits = delta("algo_view/hit");
    const double misses = delta("algo_view/build") +
                          delta("algo_view/delta_apply") +
                          delta("algo_view/compact");
    report->Detail("algo.view_hit_ratio", hits / (hits + misses), "1");
    report->Detail("algo.view_compact", delta("algo_view/compact"), "count");
    report->Detail("gen.lag_p99_ms", st.lag_ms.Percentile(99), "ms");
    metrics::SetEnabled(false);
    return;
  }

  // The fixed-rate phase, then the saturation throughput.
  const PhaseStats fixed =
      RunPhase(engine, w, u, answers, kFixedQps, opts.seconds * kFixedShare,
               opts.seed * 2 + 1);
  Tally(fixed, report);
  report->Describe("write_ms", fixed.write_ms);
  report->Describe("gen_lag_ms", fixed.lag_ms);
  const PhaseStats sat = RunSaturated(
      engine, w, u, answers, kInFlightPerWorker * eo.workers,
      opts.seconds * (1 - kFixedShare), opts.seed * 2 + 2);
  Tally(sat, report);
  const double sat_qps = static_cast<double>(sat.latency_ms.size()) / sat.wall_s;
  std::snprintf(buf, sizeof buf,
                "saturation: %zu answered in %.3f s, %d in flight, worker "
                "busy %.3f",
                sat.latency_ms.size(), sat.wall_s,
                kInFlightPerWorker * eo.workers,
                sat.run_ms_total / 1e3 / (eo.workers * sat.wall_s));
  report->Info(buf);

  report->Describe("setup_s", setup_s, "s");
  // A request is a job: job times are latencies at the fixed rate, and the
  // work completed per second is the saturation throughput.
  report->EndToEnd(setup_s, fixed.latency_ms, kTailPct, sat_qps);
  report->Detail("write_p50_ms", fixed.write_ms.Median(), "ms");
}

}  // namespace perfbench
