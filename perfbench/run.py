#!/usr/bin/env python3
"""Runs the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload ooc-gemm --seed 1 --seconds 10 --trace 0

Builds the northup libraries and the northup-perfbench binary from this
checkout's sources into .bench_build/ (the first build takes a few
minutes; later runs rebuild incrementally), runs one workload, checks
that the printed metrics are exactly the ones BENCHMARK.json lists for
the mode (end_to_end untraced, per_layer traced) with the same units,
and prints the binary's result line last:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Latencies are reported scaled to a quiet host by a reference kernel timed
alongside the workload (perfbench/src/host_speed.hpp); the raw quantiles
are on the progress lines and, in traced runs, in bench.raw_*.

Workloads: ooc-gemm and ooc-hotspot (BENCHMARK.json), and svc-http, which
BENCHMARK.json leaves out because its figures swing with the host's load
(see perfbench/src/svc_http.cpp); it prints the same metric names.
Extra flag: --expect-hash HEX replaces an ooc workload's known-answer
result hash (the self-test uses a wrong one).

Exits non-zero without a result line when the build fails (for example
in a directory holding only the benchmark), when the binary fails, or
when its metrics do not match BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN_BUILD = os.path.join(BUILD, "perfbench")
BIN = os.path.join(BIN_BUILD, "northup-perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
WORKLOADS = ("ooc-gemm", "ooc-hotspot", "svc-http")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the binary incrementally. Compiler
    output goes to stderr so the result line stays last on stdout."""
    steps = []
    if not os.path.exists(os.path.join(BIN_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BIN_BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BIN_BUILD, "-j4",
                  "--target", "northup-perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            if cmd[1] == "-S":  # a failed configure must not be reused
                shutil.rmtree(BIN_BUILD, ignore_errors=True)
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expect-hash", default=None)
    args = ap.parse_args()

    if not build():
        return 1

    tmp = os.path.join(BUILD, "tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [BIN, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.expect_hash:
        cmd += ["--expect-hash", args.expect_hash]
    # Temp root files of every runtime the binary builds stay inside the
    # checkout, and are removed with the directory afterwards.
    env = dict(os.environ, TMPDIR=tmp)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("northup-perfbench exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log("northup-perfbench exited with %d" % proc.returncode)
        return 1

    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line: " + lines[-1])
        return 1
    declared = declared_metrics(args.trace)
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units = sorted(n for n in set(declared) & set(printed)
                       if declared[n] != printed[n])
        log("metrics differ from BENCHMARK.json: missing %s, extra %s, "
            "unit mismatch %s" % (missing, extra, units))
        return 1

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
