#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_determinism.py [--seed N] [--seconds S] [WORKLOAD ...]

Run from the repository root.  Checks that:

1. BENCHMARK.json lists exactly the metrics cdbs_bench.exe reports, with the same
   units, directions and bounds (`cdbs_bench.exe --catalog`);
2. every workload (default: all four), run twice in traced mode with one
   seed, passes its correctness checks and reproduces its pinned
   deterministic counters bit for bit: GC words, the simulated p99 and event
   count, scale, replication, moved fraction, incremental-repair counts and
   the ROWA fan-out.

Exits 1 on any difference.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["day", "alloc-scale", "alloc-evolve", "sql-tpch"]


def check_catalog():
    out = subprocess.run([run.EXE, "--catalog"], capture_output=True, text=True, check=True)
    catalog = {}
    for line in out.stdout.splitlines():
        kind, name, unit, better, bound = line.split()
        catalog[(kind, name)] = (unit, better, None if bound == "-" else float(bound))
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {}
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            declared[(kind, m["name"])] = (m["unit"], m["better"], m.get("bound"))
    problems = []
    for key in sorted(set(catalog) | set(declared)):
        if catalog.get(key) != declared.get(key):
            problems.append("%s %s: cdbs_bench.exe %s, BENCHMARK.json %s"
                            % (key[0], key[1], catalog.get(key), declared.get(key)))
    return problems


def pinned_run(workload, seed, seconds):
    out = subprocess.run(
        [run.EXE, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=run.TIMEOUT_S,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    pinned = next(json.loads(l)["pinned"] for l in lines if l.startswith('{"pinned"'))
    return out.returncode, result, pinned


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=2)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    run.build()
    failures = check_catalog()
    for w in args.workloads:
        runs = [pinned_run(w, args.seed, args.seconds) for _ in range(2)]
        for code, result, _ in runs:
            if code != 0 or not result["correct"] or result["failed"]:
                failures.append("%s: run failed (exit %d, correct %s, failed %d)"
                                % (w, code, result["correct"], result["failed"]))
        (_, _, a), (_, _, b) = runs
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                failures.append("%s: %s differs: %s vs %s" % (w, key, a.get(key), b.get(key)))
        print("%-13s %d pinned counters compared" % (w, len(a)))
    for f in failures:
        print("FAIL " + f)
    print("ok" if not failures else "%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
