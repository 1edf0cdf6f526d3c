// The query front-end's one-call entry point: parse → plan → fuse →
// execute a whole script (see query/ast.h for the language). The staged
// pipeline is observable as trace spans Query/{parse,plan,fuse,exec} and
// counters query/{parse,plan,fused_ops,exec_nodes}. RunScript always
// fuses; the stages are public (Parse, PlanScript, FusePlan, ExecutePlan),
// so the unfused reference is the same pipeline without FusePlan.
//
// Embedders with a Ringo engine use Ringo::RunQuery (core/engine.h), which
// routes here with the engine's shared string pool; the serving layer runs
// scripts through QueryKind::kScript with the session table bound as `t`.
#ifndef RINGO_QUERY_QUERY_H_
#define RINGO_QUERY_QUERY_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "query/executor.h"
#include "util/result.h"

namespace ringo {
namespace query {

struct RunOptions {
  // Pool for loaded tables / produced columns (fresh one when null).
  std::shared_ptr<StringPool> pool;
  // Tables visible to the script by name without a load(), e.g. {"t", ...}.
  std::map<std::string, TablePtr> bindings;
};

struct RunResult {
  // The final statement's value: exactly one of the two is non-null.
  TablePtr table;
  std::shared_ptr<const DirectedGraph> graph;

  // Deterministic summary for the serving layer: tables report row count
  // and the sum of all numeric cells; graphs report node count and edge
  // count as the checksum.
  int64_t rows = 0;
  double checksum = 0.0;
};

Result<RunResult> RunScript(std::string_view script,
                            const RunOptions& opts = {});

// Sum of every numeric cell (ints widened to double; string ids, which
// depend on interning order, stay out) — RunResult's table checksum.
double TableChecksum(const Table& t);

}  // namespace query
}  // namespace ringo

#endif  // RINGO_QUERY_QUERY_H_
