// Shared pieces of the benchmark harness: options, clocks, sample
// statistics, layer timers and the report every workload fills in.
//
// Layer timing happens here, outside the library: each call into a layer's
// public function is bracketed by a steady_clock read and, for the traced
// run, by a trace::Span named after the layer, so the exported Chrome trace
// nests the program's own spans under the harness's layer spans.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph_defs.h"
#include "table/table.h"
#include "util/trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  // Scratch directory for generated input files.
  int nproc = 1;
};

inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A set of timings (or other values) with the order statistics the report
// needs.
class Samples {
 public:
  void Add(double v) { v_.push_back(v); }
  size_t size() const { return v_.size(); }
  const std::vector<double>& values() const { return v_; }
  bool empty() const { return v_.empty(); }
  double Sum() const {
    double s = 0;
    for (double x : v_) s += x;
    return s;
  }
  // Linear-interpolated percentile, p in [0, 100].
  double Percentile(double p) const {
    if (v_.empty()) return 0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double pos = p / 100.0 * static_cast<double>(s.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
  }
  double Median() const { return Percentile(50); }
  // The highest of the usual tail percentiles that still has at least ten
  // samples beyond it; 0 when the sample is too small for any of them.
  double TailPercentile() const {
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
      if (static_cast<double>(v_.size()) * (1 - p / 100.0) >= 10) return p;
    }
    return 0;
  }

 private:
  std::vector<double> v_;
};

// The layers every workload's jobs pass through: the per-layer metrics are
// each one's busy time per job. table: relational operators, including
// loading and ranking; core: table-to-graph conversion; algo: AlgoView
// snapshots and graph kernels.
enum Bucket { kTable, kCore, kAlgo, kNumBuckets };
inline const char* const kBucketMetric[kNumBuckets] = {
    "table.busy_ms", "core.busy_ms", "algo.busy_ms"};

// Per-layer accumulator: total time within one job iteration, plus the
// per-iteration totals across iterations.
struct Layer {
  const char* span;  // Trace span name, e.g. "bench/table.select".
  Bucket bucket;
  double iter_ms = 0;
  Samples per_iter_ms;

  void EndIteration() {
    per_iter_ms.Add(iter_ms);
    iter_ms = 0;
  }
};

// Each layer bucket's busy time over all recorded iterations of `layers`.
inline void SumBuckets(const std::vector<Layer*>& layers,
                       double (&ms)[kNumBuckets]) {
  for (const Layer* l : layers) ms[l->bucket] += l->per_iter_ms.Sum();
}

// Runs fn() as one call into `layer`: timed, and traced as a span.
template <typename Fn>
auto Timed(Layer& layer, Fn&& fn) {
  ringo::trace::Span span(layer.span);
  const double t0 = NowS();
  auto result = fn();
  layer.iter_ms += (NowS() - t0) * 1e3;
  return result;
}

// What a workload hands back to main(): named metric values with units,
// informational lines, and the correctness tallies.
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> info;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void Info(const std::string& line) { info.push_back(line); }
  // A workload-specific figure, printed as an info line only.
  void Detail(const std::string& name, double value, const char* unit) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "  %-28s %14.6g %s", name.c_str(), value,
                  unit);
    Info(buf);
  }

  // The end-to-end metrics every workload reports (--trace 0), bar
  // peak_rss_mb and ok_frac, which main() adds. `job_ms` holds one sample
  // per job; `tail_pct` is the workload's fixed tail percentile;
  // `jobs_per_s` its work completed per second.
  void EndToEnd(const Samples& setup_s, const Samples& job_ms,
                double tail_pct, double jobs_per_s) {
    Describe("job_ms", job_ms, "ms", tail_pct);
    Metric("setup_s", setup_s.Median(), "s");
    Metric("job_p50_ms", job_ms.Median(), "ms");
    Metric("job_tail_ms", job_ms.Percentile(tail_pct), "ms");
    Metric("jobs_per_s", jobs_per_s, "1/s");
  }

  // The per-layer metrics every workload reports (--trace 1): `layer_ms`
  // holds each layer's busy time summed over the traced run's `jobs` jobs,
  // which took `job_ms` in all; `overhead_ms` is the traced minus the
  // untraced median job time.
  void PerLayer(const double (&layer_ms)[kNumBuckets], double jobs,
                double job_ms, double overhead_ms) {
    double attributed = 0;
    for (int b = 0; b < kNumBuckets; ++b) {
      Metric(kBucketMetric[b], layer_ms[b] / jobs, "ms");
      attributed += layer_ms[b];
    }
    Metric("unattributed_frac", 1.0 - attributed / job_ms, "1");
    Metric("trace.overhead_ms", overhead_ms, "ms");
  }
  // Records one answer check; a mismatch is a failed operation and makes
  // the run incorrect.
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      ++failed;
      correct = false;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  // A timing series as "median ms, pNN ms, n samples" for the info lines.
  void Describe(const std::string& name, const Samples& s,
                const char* unit = "ms", double tail_pct = -1) {
    char buf[256];
    const double tail = tail_pct >= 0 ? tail_pct : s.TailPercentile();
    if (tail > 0) {
      std::snprintf(buf, sizeof buf, "%s: median %.4g %s, p%g %.4g %s, n=%zu",
                    name.c_str(), s.Median(), unit, tail, s.Percentile(tail),
                    unit, s.size());
    } else {
      std::snprintf(buf, sizeof buf,
                    "%s: median %.4g %s, n=%zu (too few samples for a tail "
                    "percentile)",
                    name.c_str(), s.Median(), unit, s.size());
    }
    Info(buf);
  }
};

// Relative float comparison for checksums.
inline bool NearlyEqual(double a, double b, double rel = 1e-9) {
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

// Peak resident set of this process so far, in MB.
double PeakRssMb();

// A two-column (src, dst) int table holding `edges`.
ringo::TablePtr EdgeTable(const std::vector<ringo::Edge>& edges);

void RunExpertsEtl(const Options& opts, Report* report);
void RunGraphKernels(const Options& opts, Report* report);
void RunServeMixed(const Options& opts, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
