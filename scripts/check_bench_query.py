#!/usr/bin/env python3
"""Validates BENCH_query.json (the declarative query front-end artifact).

Usage: scripts/check_bench_query.py BENCH_query.json

Gate for the BM_Query_ rows, run by run_bench.sh and the CI bench-smoke
job. The two rows run the same script (wide-table select -> graph ->
pagerank -> top_k) through RunScript (fused) and through the staged
parse -> plan -> execute pipeline without FusePlan; the checks pin the
properties the pass claims, not the machine's speed:

  * both rows are present with a positive real_time and carry the
    counters (table_rows/result_rows/checksum/fused_ops/exec_nodes);
  * fusion changes nothing observable: result_rows and checksum are
    identical across the pair;
  * the fused row actually fused (fused_ops > 0) and executed fewer plan
    nodes; the unfused row fused nothing (fused_ops == 0) — together
    with the executor's needed-set walk this is the "no intermediate
    filtered table" assertion: the orphaned select node never ran;
  * the fused row is at least MIN_SPEEDUP (default 1.2x, overridable via
    RINGO_BENCH_QUERY_MIN_SPEEDUP for constrained machines) faster —
    skipping the 10-column materialization must show up in wall time.

Absolute times are recorded for EXPERIMENTS.md but never gated.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_common import Checker

checker = Checker("check_bench_query", "BENCH_query.json")

FUSED_ROW = "BM_Query_ScriptFused"
UNFUSED_ROW = "BM_Query_ScriptUnfused"
EXPECTED = [FUSED_ROW, UNFUSED_ROW]

COUNTERS = [
    "bench_scale", "table_rows", "result_rows", "checksum", "fused_ops",
    "exec_nodes",
]


def fail(msg):
    checker.fail(msg)


def main():
    rows = checker.load_rows(sys.argv)
    for name in EXPECTED:
        row = checker.require_counters(checker.require_row(rows, name),
                                       COUNTERS)
        if row["result_rows"] <= 0:
            fail(f"{name}: empty result")

    fused = rows[FUSED_ROW]
    unfused = rows[UNFUSED_ROW]

    if fused["result_rows"] != unfused["result_rows"]:
        fail(f"fusion changed the row count: {fused['result_rows']} "
             f"fused vs {unfused['result_rows']} unfused")
    if fused["checksum"] != unfused["checksum"]:
        fail(f"fusion changed the checksum: {fused['checksum']!r} "
             f"fused vs {unfused['checksum']!r} unfused")

    if fused["fused_ops"] <= 0:
        fail("fused row applied no fusion rewrites — did RunScript "
             "stop calling FusePlan, or did a rule stop matching?")
    if unfused["fused_ops"] != 0:
        fail(f"unfused row applied {unfused['fused_ops']} rewrites — "
             "the staged pipeline must not call FusePlan")
    if not (0 < fused["exec_nodes"] < unfused["exec_nodes"]):
        fail(f"fused plan ran {fused['exec_nodes']} nodes vs "
             f"{unfused['exec_nodes']} unfused — the orphaned select "
             "should not execute")

    min_speedup = float(os.environ.get("RINGO_BENCH_QUERY_MIN_SPEEDUP",
                                       "1.2"))
    speedup = unfused["real_time"] / fused["real_time"]
    if speedup < min_speedup:
        fail(f"fused speedup {speedup:.2f}x < {min_speedup:.2f}x — "
             "Select->Graph fusion is not skipping the materialization")

    checker.ok(f"speedup={speedup:.2f}x, fused_ops={fused['fused_ops']:.0f}, "
               f"exec_nodes {fused['exec_nodes']:.0f} vs "
               f"{unfused['exec_nodes']:.0f}, "
               f"rows={fused['result_rows']:.0f}")


if __name__ == "__main__":
    main()
