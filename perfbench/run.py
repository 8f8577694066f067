#!/usr/bin/env python3
"""Run one workload of the CDBS benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the benchmark program
(perfbench/cdbs_bench.ml) from the sources with dune, then runs it with the
given arguments plus the source revision.  The program's standard output
passes through unchanged; its last line is the JSON result.  Build output
goes to standard error.  Exits non-zero, without a result, when the sources
or the build are missing.
"""

import hashlib
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "cdbs_bench.exe")
TIMEOUT_S = 170


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("missing %s: run from the root of a full checkout" % need)
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/cdbs_bench.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if r.returncode != 0:
        fail("build failed")


def source_digest():
    """SHA-1 over the OCaml sources and build files, for checkouts without git."""
    h = hashlib.sha1()
    for top in ("lib", "perfbench"):
        for d, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:12]


def revision():
    rev = "src:" + source_digest()
    if os.path.isdir(".git"):
        try:
            git = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                capture_output=True, text=True, timeout=10,
            )
            if git.returncode == 0:
                rev = "git:" + git.stdout.strip() + " " + rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    return rev


def main(argv):
    build()
    cmd = [EXE] + argv
    if "--catalog" not in argv:
        cmd += ["--rev", revision()]
    try:
        return subprocess.run(cmd, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("the run exceeded %d s" % TIMEOUT_S, code=3)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
