#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload <large_native|mixed_native|serve_sim>
                             --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (a stand-alone CMake package that compiles
the library sources under src/) into .bench_build/perfbench, then runs the
acs_perfbench binary. It prints the result JSON as its last stdout line and
writes a per-run artifact under bench_out/. The exit code is the binary's:
nonzero when a build step fails or any output does not verify.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, "bench_out")
BINARY = os.path.join(BUILD_DIR, "acs_perfbench")


def run_logged(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, check=False).returncode


def build():
    os.makedirs(OUT_DIR, exist_ok=True)
    log_path = os.path.join(OUT_DIR, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "build.ninja")):
            rc = run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR, "-G", "Ninja",
                             "-DCMAKE_BUILD_TYPE=Release"], log)
            if rc != 0:
                return rc, log_path
        rc = run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs], log)
    return rc, log_path


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["large_native", "mixed_native", "serve_sim"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    rc, log_path = build()
    if rc != 0:
        sys.stderr.write("perfbench: build failed (see %s)\n" % log_path)
        try:
            with open(log_path) as f:
                sys.stderr.write("".join(f.readlines()[-20:]))
        except OSError:
            pass
        return rc

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out", OUT_DIR, "--commit", git_commit()]
    sys.stdout.flush()
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
