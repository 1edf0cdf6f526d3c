// Benchmark harness for Ringo: runs one workload and prints its metrics.
//
//   ruler --workload experts_etl|graph_kernels|serve_mixed --seed N
//         --seconds S --trace 0|1 --workdir DIR [--trace-out FILE]
//
// Every input is generated from --seed inside --workdir. Lines starting
// with '#' describe the run (environment, input sizes, sample counts); the
// last line is one JSON object with correct/attempted/failed/metrics. With
// --trace 0 the metrics are the end-to-end ones, measured with tracing
// off; with --trace 1 they are the per-layer ones from a traced run, and
// the Chrome trace goes to --trace-out.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "util/metrics.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: ruler --workload experts_etl|graph_kernels|"
               "serve_mixed --seed N --seconds S --trace 0|1 --workdir DIR "
               "[--trace-out FILE]\n");
  std::exit(2);
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

const char* EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "ruler: refusing to time an unoptimized build (%s)\n",
               RULER_BUILD_TYPE);
  return 2;
#endif
  perfbench::Options opts;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opts.workload = val;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opts.seconds = std::atof(val);
    } else if (key == "--trace") {
      opts.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--workdir") {
      opts.workdir = val;
    } else if (key == "--trace-out") {
      trace_out = val;
    } else {
      Usage();
    }
  }
  if (opts.workdir.empty() || opts.seconds <= 0 ||
      (opts.trace && trace_out.empty())) {
    Usage();
  }
  opts.nproc = Nproc();

  perfbench::Report report;
  if (opts.workload == "experts_etl") {
    perfbench::RunExpertsEtl(opts, &report);
  } else if (opts.workload == "graph_kernels") {
    perfbench::RunGraphKernels(opts, &report);
  } else if (opts.workload == "serve_mixed") {
    perfbench::RunServeMixed(opts, &report);
  } else {
    Usage();
  }

  if (opts.trace) {
    const ringo::Status st = ringo::trace::ExportChromeTrace(trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "ruler: %s\n", st.ToString().c_str());
      return 1;
    }
  } else {
    report.Metric("peak_rss_mb", perfbench::PeakRssMb(), "MB");
    // failed_frac, reported as its complement so the metric is never 0.
    report.Metric("ok_frac",
                  1.0 - static_cast<double>(report.failed) /
                            static_cast<double>(report.attempted),
                  "1");
  }

  std::printf("# env: nproc=%d OMP_NUM_THREADS=%s OMP_WAIT_POLICY=%s "
              "compiler=%s build_type=%s\n",
              opts.nproc, EnvOr("OMP_NUM_THREADS", "(unset)"),
              EnvOr("OMP_WAIT_POLICY", "(unset)"), RULER_COMPILER,
              RULER_BUILD_TYPE);
  for (const std::string& line : report.info) {
    std::printf("# %s\n", line.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, vu] = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", name.c_str(), vu.first, vu.second.c_str());
  }
  std::printf("}}\n");
  return 0;
}
