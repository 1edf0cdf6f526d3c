#!/usr/bin/env python3
"""Builds and runs the Ringo benchmark for one workload.

    python3 perfbench/run.py --workload experts_etl --seed 1 --seconds 25 --trace 0

Run from the repository root. The first run configures and builds the
harness (perfbench/CMakeLists.txt, which compiles the library from src/)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later runs rebuild only what changed. Inputs are generated from
--seed in a temporary directory under the build directory, which is
removed afterwards.

Output: '#' lines describing the run (environment, input sizes, sample
counts), then, as the last line, one JSON object with correct, attempted,
failed and metrics. --trace 0 reports every end-to-end metric of
BENCHMARK.json, measured with tracing off; --trace 1 reports every per-layer
metric from a traced run, checks its Chrome trace with
scripts/check_trace.py and prints the layer table first. Every workload
reports every metric of the mode. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("experts_etl", "graph_kernels", "serve_mixed")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are missing; run from a full checkout")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "ruler",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "ruler")


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    end_to_end, per_layer = declared_metrics()
    binary = build()
    workdir = tempfile.mkdtemp(prefix="run-", dir=build_dir())
    try:
        # The harness runs inside the work directory and sees only relative
        # paths, and no variable naming the checkout: the load time of the
        # posts TSV moves by ~40% with the length of the path it is given
        # (heap placement), so two checkouts at different places must hand
        # the program the same strings.
        cmd = [os.path.join("..", os.path.basename(binary)),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", ".", "--trace-out", "trace.json"]
        env = {k: v for k, v in os.environ.items()
               if k not in ("PWD", "OLDPWD")}
        try:
            proc = subprocess.run(cmd, cwd=workdir, env=env,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"ruler did not finish within {RUN_TIMEOUT_S}s")
        if proc.returncode != 0:
            fail(f"ruler exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            fail("ruler printed nothing")
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError as e:
            fail(f"bad result line {lines[-1]!r}: {e}")

        declared = per_layer if args.trace else end_to_end
        for name, m in result["metrics"].items():
            if declared.get(name) != m["unit"]:
                fail(f"metric {name} ({m['unit']}) is not declared with that "
                     "unit in BENCHMARK.json")
        missing = sorted(set(declared) - set(result["metrics"]))
        if missing:
            fail(f"{args.workload} did not report {', '.join(missing)}")

        for line in lines[:-1]:
            print(line)
        if args.trace:
            check = subprocess.run(
                [sys.executable, os.path.join(ROOT, "scripts", "check_trace.py"),
                 os.path.join(workdir, "trace.json")], stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True)
            print("# " + check.stdout.strip().replace("\n", "\n# "))
            if check.returncode != 0:
                result["correct"] = False
            print(f"# per-layer metrics ({args.workload}, traced run):")
            for name, m in result["metrics"].items():
                print(f"#   {name:<28} {m['value']:>14.6g} {m['unit']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
