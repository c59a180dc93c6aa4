#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, with short runs through perfbench/run.py:
  1. every workload prints exactly the metric names BENCHMARK.json lists,
     untraced (end_to_end) and traced (per_layer), with correct results
     (run.py rejects any other name or unit);
  2. the virtual makespan and the exact counters (data.bytes_moved,
     core.spawns, memsim.*, ...) repeat bit for bit across two traced
     runs of each ooc workload with one seed;
  3. a wrong reference hash is counted as a failed operation: the run
     still completes and reports correct = false.
Exits non-zero on the first failed check.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
SECONDS = "1"
EXACT = ("sim.makespan_s", "data.moves", "data.bytes_moved", "core.spawns",
         "memsim.read_bytes", "memsim.write_bytes", "memsim.reads",
         "memsim.writes", "cache.hits", "cache.misses", "cache.evictions",
         "sim.tasks")


def run(workload, trace, seed=7, extra=()):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail("%s exited %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fail(msg):
    print("selftest: FAIL " + msg, flush=True)
    sys.exit(1)


def main():
    for workload in ("ooc-gemm", "ooc-hotspot", "svc-http"):
        for trace in (0, 1):
            result = run(workload, trace)
            if not result["correct"] or result["failed"] != 0:
                fail("%s trace=%d reported failures: %s" % (workload, trace, result))
            print("selftest: %s trace=%d: %d metrics, %d ops, correct"
                  % (workload, trace, len(result["metrics"]), result["attempted"]),
                  flush=True)

    for workload in ("ooc-gemm", "ooc-hotspot"):
        first, second = (run(workload, 1)["metrics"] for _ in range(2))
        for name in EXACT:
            a, b = first[name]["value"], second[name]["value"]
            if a != b:
                fail("%s %s differs between runs: %r vs %r" % (workload, name, a, b))
        print("selftest: %s exact counters and makespan repeat (makespan %r)"
              % (workload, first["sim.makespan_s"]["value"]), flush=True)

    result = run("ooc-gemm", 0, extra=("--expect-hash", "0xdeadbeef"))
    if result["correct"] or result["failed"] != result["attempted"]:
        fail("a wrong reference hash was not counted as an error: %s" % result)
    print("selftest: wrong reference hash counted as %d/%d failed ops"
          % (result["failed"], result["attempted"]), flush=True)
    print("selftest: PASS")


if __name__ == "__main__":
    main()
