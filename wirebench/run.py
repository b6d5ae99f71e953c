#!/usr/bin/env python3
"""Builds and runs the wire-to-wire MARS serving benchmark.

    python3 wirebench/run.py --workload hot_hits --seed 1 --seconds 10 --trace 0
    python3 wirebench/run.py --selftest

Run from the root of a checkout. The benchmark package (wirebench/CMakeLists.txt)
is configured and built under $CARGO_TARGET_DIR (default .bench_build), then the
`wirebench` binary runs one workload. Its standard output is passed through; the
last line is the JSON result. Results and traces land in
<build dir>/wirebench/results/. Exits non-zero, without a result line, when the
build fails; exits with the benchmark's own code otherwise.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; True on success."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("wirebench: build step failed: " + " ".join(cmd))
            return False
    return True


def git_provenance():
    """(sha, dirty) of the checkout, or ("unknown", "unknown") outside git."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", "unknown"
    if sha.returncode != 0 or status.returncode != 0:
        return "unknown", "unknown"
    return sha.stdout.strip(), "1" if status.stdout.strip() else "0"


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the open-loop generator self-check instead")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(build_root, "wirebench"))
    if not build(build_dir):
        return 2

    if args.selftest:
        cmd = [os.path.join(build_dir, "wirebench_selftest")]
    else:
        out_dir = os.path.join(build_dir, "results")
        os.makedirs(out_dir, exist_ok=True)
        sha, dirty = git_provenance()
        cmd = [os.path.join(build_dir, "wirebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", out_dir, "--git-sha", sha, "--git-dirty", dirty]
    try:
        r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("wirebench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
