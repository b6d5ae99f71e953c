#!/usr/bin/env bash
# One-command gate for this repo: tier-1 verify (configure, build, ctest)
# plus smoke runs of examples/quickstart — serial and with the
# num_threads=4 Hogwild trainer — so the parallel path is exercised on
# every build.
#
# Usage: scripts/ci.sh [--san[=thread|address]] [--bench] [build-dir]
#   (default build-dir: build; --san defaults to thread and uses
#    build-<sanitizer> unless a build-dir is given)
#
# Modes:
#   (none)    configure + build + ctest + quickstart smokes, plus a build
#             (not a run) of the wire-to-wire benchmark package wirebench/
#             in <build-dir>-wirebench, and an informational src/ line count
#   --bench   additionally run bench_train/bench_serve and gate fresh
#             timings against the committed BENCH_*.json via
#             scripts/check_bench.py (>25% single-thread regression fails;
#             a baseline missing a section or row the fresh run emits
#             fails too)
#   --san     sanitizer build only: compile with -DMARS_SANITIZE=... and run
#             the concurrency-sensitive tests (disjoint-shard writer
#             stress, parallel trainer, write tracker / top-k server) under
#             the sanitizer. TSAN uses scripts/tsan.supp to suppress the
#             *tolerated* Hogwild races documented in ROADMAP.md
#             ("shard/ownership model"); anything else is a failure.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZER=""
RUN_BENCH=0
BUILD_DIR=""
for arg in "$@"; do
  case "$arg" in
    --san) SANITIZER="thread" ;;
    --san=*) SANITIZER="${arg#--san=}" ;;
    --bench) RUN_BENCH=1 ;;
    -*) echo "error: unknown flag '$arg'" >&2; exit 2 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done

# Fail loudly on a stale build dir: a cache configured for another source
# tree produces confusing half-builds, so refuse to reuse it. The optional
# second argument is the source dir the cache must name (default: here).
check_build_dir() {
  local dir="$1"
  local source="${2:-$(pwd)}"
  if [ -f "$dir/CMakeCache.txt" ]; then
    local cache_home
    cache_home="$(sed -n 's/^CMAKE_HOME_DIRECTORY:INTERNAL=//p' "$dir/CMakeCache.txt")"
    if [ "$cache_home" != "$source" ]; then
      echo "error: stale build dir: $dir was configured for" >&2
      echo "  '$cache_home', not '$source'. Delete it and re-run:" >&2
      echo "  rm -rf $dir" >&2
      exit 1
    fi
  fi
}

# ---------------------------------------------------------------------------
# Sanitizer mode: build with -fsanitize and run the concurrency tests.
# ---------------------------------------------------------------------------
if [ -n "$SANITIZER" ]; then
  case "$SANITIZER" in thread|address) ;; *)
    echo "error: --san must be thread or address, got '$SANITIZER'" >&2
    exit 2 ;;
  esac
  BUILD_DIR="${BUILD_DIR:-build-$SANITIZER}"
  check_build_dir "$BUILD_DIR"

  echo "== configure ($SANITIZER sanitizer) =="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DMARS_SANITIZE="$SANITIZER" \
        -DMARS_BUILD_BENCHMARKS=OFF -DMARS_BUILD_EXAMPLES=OFF

  echo "== build =="
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target mars_tests

  # The concurrency surface: shard stress, Hogwild trainer, store copies,
  # the serving cache (trackers are marked from concurrent workers), and
  # the concurrent read front — snapshot-handle epoch swaps and the
  # striped LRU — raced by the SnapshotHandle* suites (TopKServer*/
  # SnapshotHandle* include the ANN probe-then-rerank path and queries
  # racing index swaps). The ThreadPool and ANN index suites ride along:
  # parallel IVF builds fan assignment work over RunBatch. The
  # serve-layer races have NO suppressions (tsan.supp is scoped to model
  # Fit lambdas); any report from these tests is a real bug.
  FILTER='ShardViewTest.*:ParallelTrainerTest.*:FacetStoreOwnedCopyTest.*'
  FILTER="$FILTER:WriteTrackerTest.*:TopKServer*:SnapshotHandle*"
  FILTER="$FILTER:ThreadPoolTest.*:SphericalIvfIndex*"
  # The wire front-end: reactor thread vs Stop(), per-connection state
  # machines, and the codec, over the epoll reactor. Zero suppressions.
  FILTER="$FILTER:Protocol*:Net*:*NetServerTest*:RequestApi*"
  # The scenario harness: whole-stack traffic scenarios (trainer thread
  # publishing epochs, actor threads over loopback TCP, restart
  # teardown) with every invariant checker armed — publish_storm and
  # flash_crowd are the densest publish-vs-serve races in the repo.
  # Suite names are prefixed Scenario; the leading * also catches the
  # parameterized instantiations (Catalog/...). Zero suppressions, like
  # the rest of the serve/net layers.
  FILTER="$FILTER:*Scenario*"
  # MARS's training update: ClippedRiemannianSgdSteps interleaves rows
  # through raw row pointers (equivalence against the per-row path), and
  # ParallelTrainerTest.* above carries the trained-bytes golden digest.
  FILTER="$FILTER:ClippedRiemannianSgdSteps*"
  # NeuMF scores through a const forward into per-call buffers: the
  # evaluator and the server call Score from many threads at once.
  FILTER="$FILTER:NeuMfTest.*:*ModelContract.ParallelEvaluationMatchesSerial/NeuMF"
  if [ "$SANITIZER" = address ]; then
    # mmap'd serving is a classic lifetime-bug nest (views into unmapped
    # pages, keepalive ordering): run the persistence/mapped-store/sidecar
    # suites under ASAN as well, plus the ANN index-file suites — the
    # mapped index serves borrowed-buffer views, and the reject fixture
    # feeds the loader deliberately corrupt headers/payloads. Crc32* checks
    # that the checksum's 16-byte loads never read past an input's tail.
    FILTER="$FILTER:PersistenceFixture.*:MappedStoreFixture.*:SidecarFixture.*"
    FILTER="$FILTER:IndexIoFixture.*:IndexIoRejectFixture.*:Crc32*"
    # The k-means assignment kernel scores rows in quads and forms four row
    # pointers at every count: these suites (every tail length, padded
    # strides) prove it never reads past the last row. SyntheticTest covers
    # the generator's flat latent store.
    FILTER="$FILTER:*BatchKernelShapes.NearestCentroid*"
    FILTER="$FILTER:KernelsTest.NearestCentroid*:SyntheticTest.*"
    # The 4-bit code kernel scores rows in quads with a single-row tail:
    # every tail length at six row widths.
    FILTER="$FILTER:KernelsTest.Code*"
  fi
  echo "== $SANITIZER-sanitized tests ($FILTER) =="
  if [ "$SANITIZER" = thread ]; then
    TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp history_size=7 halt_on_error=0 exitcode=66" \
      "$BUILD_DIR"/mars_tests --gtest_filter="$FILTER"
  else
    ASAN_OPTIONS="detect_leaks=1" \
      "$BUILD_DIR"/mars_tests --gtest_filter="$FILTER"
  fi
  echo "CI ($SANITIZER) OK"
  exit 0
fi

BUILD_DIR="${BUILD_DIR:-build}"
check_build_dir "$BUILD_DIR"

echo "== configure =="
# Warnings fail the gate (CMake >= 3.24 maps this to -Werror); set here,
# not as a project option, so a local build is never broken by a newer
# compiler's new warning.
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_COMPILE_WARNING_AS_ERROR=ON

echo "== build =="
cmake --build "$BUILD_DIR" -j"$(nproc)"

# A successful build must have produced the gate binaries. mars_tests is
# special-cased: CMake only warns (does not fail) when GTest is absent, so
# its absence usually means a missing dependency, not a stale dir.
if [ ! -x "$BUILD_DIR/mars_tests" ]; then
  echo "error: 'mars_tests' was not built. Most likely GTest is not" >&2
  echo "  installed (CMake warns and skips tests); install GTest, or if" >&2
  echo "  it is installed, the build dir may be stale: rm -rf $BUILD_DIR" >&2
  exit 1
fi
# The rest of the gate list is generated from the same globs CMake builds
# targets from, so a new bench/example binary can't silently skip the
# existence check. google-benchmark-based binaries are only expected when
# CMake found the library (mirrors the CMakeLists skip).
have_gbench=1
if grep -q '^benchmark_DIR:PATH=.*-NOTFOUND' "$BUILD_DIR/CMakeCache.txt" 2>/dev/null; then
  have_gbench=0
fi
for src in examples/*.cpp bench/*.cpp bench/scenarios/*.cpp; do
  bin="$(basename "${src%.cpp}")"
  if [ "$have_gbench" = 0 ] && grep -q 'benchmark/benchmark\.h' "$src"; then
    continue
  fi
  if [ ! -x "$BUILD_DIR/$bin" ]; then
    echo "error: '$bin' (from $src) missing from $BUILD_DIR after build —" >&2
    echo "  stale or broken build dir. Delete it and re-run: rm -rf $BUILD_DIR" >&2
    exit 1
  fi
done

echo "== build the benchmark package (wirebench/, not run) =="
# wirebench/ is its own CMake package over this library: a src/ API change
# that breaks it must fail here, with warnings as errors like the rest.
WIREBENCH_DIR="$BUILD_DIR-wirebench"
check_build_dir "$WIREBENCH_DIR" "$(pwd)/wirebench"
cmake -B "$WIREBENCH_DIR" -S wirebench -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build "$WIREBENCH_DIR" -j"$(nproc)" --target wirebench wirebench_selftest

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

# Informational, not a gate: the size ROADMAP's "least code" aim is judged
# by — non-blank lines of src/ headers and sources that are not // comments.
src_lines="$(find src \( -name '*.h' -o -name '*.cc' \) -print0 |
  xargs -0 cat | grep -Evc '^[[:space:]]*(//|$)')"
echo "== src/ size: $src_lines non-blank, non-// lines in *.h and *.cc =="

echo "== quickstart smoke (tiny synthetic dataset, serial) =="
# Items must exceed the eval protocol's 100 sampled negatives.
"$BUILD_DIR"/quickstart 120 200 3

echo "== quickstart smoke (num_threads=4 Hogwild + dev eval) =="
# 6 epochs so the default eval_every=5 actually fires one dev eval between
# multi-thread epochs before the final epoch.
"$BUILD_DIR"/quickstart 120 200 6 4

if [ "$RUN_BENCH" = 1 ]; then
  echo "== bench regression gate (fresh run vs committed BENCH_*.json) =="
  "$BUILD_DIR"/bench_train "$BUILD_DIR/fresh_train.json"
  "$BUILD_DIR"/bench_serve "$BUILD_DIR/fresh_serve.json"
  python3 scripts/check_bench.py \
    BENCH_train.json "$BUILD_DIR/fresh_train.json" \
    BENCH_serve.json "$BUILD_DIR/fresh_serve.json"
fi

echo "CI OK"
