#!/usr/bin/env python3
"""Builds and runs the engine benchmark (perfbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload write-gc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is compiled from the checkout's own sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) with CMake; the
first run builds, later runs reuse the build. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. --trace 1 writes
the span trace to <build dir>/traces/<workload>-seed<seed>.tsv.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait() == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: engine sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Concurrent runs in one checkout share the build; serialise it.
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            if not run_quiet(["cmake", "-S", HERE, "-B", out,
                              "-DCMAKE_BUILD_TYPE=Release"]):
                return None
        if not run_quiet(["cmake", "--build", out, "--target", target,
                          "-j", jobs]):
            return None
    binary = os.path.join(out, target)
    return binary if os.access(binary, os.X_OK) else None


def run(cmd):
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    # SIGTERM unwinds through the `finally` blocks above, which stop and
    # reap the build or benchmark process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()

    if args.selftest:
        binary = build("perfbench_test")
        return run([binary]) if binary else 2
    if args.workload is None or args.seed is None:
        p.error("--workload and --seed are required")

    binary = build("perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.tsv" % (args.workload, args.seed))]
    sys.stdout.flush()
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
