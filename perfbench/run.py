#!/usr/bin/env python3
"""Builds and runs the netbone serving benchmark.

Run from the root of a netbone checkout:

    python3 perfbench/run.py --workload warm_skewed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which builds the library
from the checkout's sources) into .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to standard error, so the last line
of standard output is the benchmark's JSON result. Per-run records and the
traced run's spans land in .bench_build/perfbench-results/.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = ROOT / ".bench_build" / "perfbench-results"
WORKLOADS = ("warm_skewed", "revision_stream", "cold_fig9",
             "warm_skewed_sharded")
# The benchmark binary itself stops after at most a few tens of seconds;
# this only guards against a hang.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; True on success."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    return True


def git_sha():
    """The checkout's commit, or "" when the checkout is not a git work tree
    of its own."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel"], capture_output=True,
                             text=True, timeout=10)
        if top.returncode != 0 or pathlib.Path(top.stdout.strip()) != ROOT:
            return ""
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() if sha.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        return ""


def source_digest():
    """SHA-256 (first 16 hex digits) over the library and benchmark
    sources, naming the code measured when there is no git sha."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in ("src", "perfbench/src"):
        files += sorted(p for p in (ROOT / tree).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        print("perfbench: no netbone sources next to perfbench/ to build",
              file=sys.stderr)
        return 1
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([str(BUILD / "perfbench_selftest")],
                              cwd=ROOT).returncode

    command = [str(BUILD / "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--out-dir", str(RESULTS.relative_to(ROOT)),
               "--source-digest", source_digest()]
    sha = git_sha()
    if sha:
        command += ["--git-sha", sha]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
