#!/usr/bin/env python3
"""Build and run socgen's end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload otsu-board --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest      # determinism self-tests
    python3 perfbench/run.py --baseline      # Otsu Arch4 host-time baselines

The first call configures and builds perfbench/ (which compiles the
socgen libraries from src/) under .bench_build/perfbench; later calls
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Every file the benchmark writes
stays under .bench_build/.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def git_commit():
    """The checked-out commit, read from .git without invoking git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: socgen sources (src/) not found beside perfbench/", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    return subprocess.run(compile_, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["otsu-board", "flow-cold", "service-mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.selftest or args.baseline):
        parser.error("one of --workload, --selftest or --baseline is required")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(BUILD_DIR, "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [BINARY, "--seed", str(args.seed), "--work-dir", work_dir,
           "--commit", git_commit()]
    if args.selftest:
        cmd.append("--selftest")
    elif args.baseline:
        cmd.append("--baseline")
    else:
        trace_out = os.path.join(
            BUILD_DIR, "trace-%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--trace-out", trace_out]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
