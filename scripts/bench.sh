#!/usr/bin/env bash
# Builds (Release) and runs the perf benches, writing machine-readable
# results to BENCH_train.json / BENCH_serve.json at the repo root so
# future changes can diff perf against these baselines (compared by
# scripts/check_bench.py, wired into scripts/ci.sh --bench). Wire-to-wire
# numbers (RTT, restart to first served query) come from wirebench/, not
# from here.
#
# Every BENCH_*.json gets a "provenance" object stamped in (git SHA +
# dirty flag, build type, CXX flags) so a committed baseline records what
# it actually measured — a baseline from a dirty tree or a non-Release
# build is visible in review instead of silently skewing future diffs.
#
# Usage: scripts/bench.sh [build-dir]   (default: build)
#        MARS_BENCH_FAST=1 scripts/bench.sh   # shrunken smoke variant
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

# The tree's state before anything below writes a BENCH_*.json into it:
# stamped afterwards, the flag would read the fresh results as edits.
GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
GIT_DIRTY="$([ -n "$(git status --porcelain 2>/dev/null)" ] && echo 1 || echo 0)"
export GIT_SHA GIT_DIRTY

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j"$(nproc)" --target bench_train bench_serve

# Rewrites $1 in place with a "provenance" object (git + build flags).
stamp() {
  local json="$1"
  BUILD_CACHE="$BUILD_DIR/CMakeCache.txt" \
  python3 - "$json" <<'PY'
import json, os, sys

path = sys.argv[1]
with open(path) as f:
    data = json.load(f)

cache = {}
try:
    with open(os.environ["BUILD_CACHE"]) as f:
        for line in f:
            line = line.strip()
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
except OSError:
    pass

build_type = cache.get("CMAKE_BUILD_TYPE", "unknown")
flags = " ".join(part for part in (
    cache.get("CMAKE_CXX_FLAGS", ""),
    cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""),
) if part).strip() or "unknown"

data["provenance"] = {
    "git_sha": os.environ["GIT_SHA"],
    "git_dirty": os.environ["GIT_DIRTY"] == "1",
    "build_type": build_type,
    "cxx_flags": flags,
}
with open(path, "w") as f:
    json.dump(data, f, indent=2)
    f.write("\n")
PY
}

"$BUILD_DIR"/bench_train BENCH_train.json
stamp BENCH_train.json
echo
echo "== BENCH_train.json =="
cat BENCH_train.json

"$BUILD_DIR"/bench_serve BENCH_serve.json
stamp BENCH_serve.json
echo
echo "== BENCH_serve.json =="
cat BENCH_serve.json
