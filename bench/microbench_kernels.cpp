// Kernel microbenchmarks (google-benchmark): the hot primitives every
// training loop and the evaluator are built on, the IVF probe's code scan,
// and the CRC-32 that validates every mapped index region on restart.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>
#include <vector>

#include "ann/ivf_index.h"
#include "common/crc32.h"
#include "common/crc32_detail.h"
#include "common/facet_store.h"
#include "common/kernels.h"
#include "common/kernels_detail.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/vec.h"
#include "core/mars.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "data/split.h"
#include "opt/sphere.h"
#include "sampling/alias_table.h"
#include "sampling/negative_sampler.h"
#include "sampling/triplet_sampler.h"

namespace mars {
namespace {

std::vector<float> RandomVec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Normal());
  return v;
}

void BM_Dot(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = RandomVec(n, 1);
  const auto b = RandomVec(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dot(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Dot)->Arg(32)->Arg(128)->Arg(512);

void BM_SquaredDistance(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto a = RandomVec(n, 3);
  const auto b = RandomVec(n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SquaredDistance(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SquaredDistance)->Arg(32)->Arg(128)->Arg(512);

void BM_Softmax(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto logits = RandomVec(n, 5);
  std::vector<float> out(n);
  for (auto _ : state) {
    Softmax(logits.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_Softmax)->Arg(4)->Arg(8);

void BM_FacetProjection(benchmark::State& state) {
  // One Eq. 1 projection u^k = Φ_kᵀ u at embedding dim D.
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(6);
  Matrix phi(d, d);
  phi.FillIdentityPlusNoise(&rng, 0.1f);
  const auto u = RandomVec(d, 7);
  std::vector<float> out(d);
  for (auto _ : state) {
    GemvTransposed(phi, u.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FacetProjection)->Arg(32)->Arg(64)->Arg(128);

void BM_CalibratedRsgdStep(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  auto x = RandomVec(d, 8);
  NormalizeInPlace(x.data(), d);
  const auto g = RandomVec(d, 9);
  std::vector<float> scratch(d);
  for (auto _ : state) {
    RiemannianSgdStep(x.data(), g.data(), 0.01f, d, scratch.data(), true);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_CalibratedRsgdStep)->Arg(32)->Arg(128);

void BM_FusedRsgdStep(benchmark::State& state) {
  // Same update as BM_CalibratedRsgdStep via the fused single-pass kernel
  // (no scratch buffer, no intermediate stores) — compare the two.
  const size_t d = static_cast<size_t>(state.range(0));
  auto x = RandomVec(d, 8);
  NormalizeInPlace(x.data(), d);
  const auto g = RandomVec(d, 9);
  const float norm2 = SquaredNorm(g.data(), d);
  for (auto _ : state) {
    FusedRiemannianSgdStep(x.data(), g.data(), norm2, 0.01f, d, true);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_FusedRsgdStep)->Arg(32)->Arg(128);

void BM_MarsFitSteps(benchmark::State& state) {
  // The serial MARS SGD step at wirebench's hot shape (4000 users, 2000
  // items, 10 interactions per user, K 4, d 32, lr 0.3): each iteration
  // fits two fixed-length epochs and times only the second, from one
  // epoch-boundary callback to the next, so initialization stays out of
  // the figure. ns_per_step is the time per sampled triplet.
  SyntheticConfig dc;
  dc.num_users = 4000;
  dc.num_items = 2000;
  dc.target_interactions = 40000;
  dc.num_facets = 4;
  dc.seed = 20210419;
  const auto data = GenerateSyntheticDataset(dc);
  MultiFacetConfig mc;
  mc.dim = 32;
  mc.num_facets = 4;
  constexpr size_t kSteps = 40000;
  double timed_s = 0.0;
  for (auto _ : state) {
    Mars model(mc);
    TrainOptions to;
    to.epochs = 2;
    to.steps_per_epoch = kSteps;
    to.learning_rate = 0.3;
    to.seed = 20210419;
    to.num_threads = 1;
    std::chrono::steady_clock::time_point epoch_end[2];
    to.epoch_callback = [&](size_t epoch) {
      epoch_end[epoch] = std::chrono::steady_clock::now();
    };
    model.Fit(*data, to);
    const double epoch_s =
        std::chrono::duration<double>(epoch_end[1] - epoch_end[0]).count();
    state.SetIterationTime(epoch_s);
    timed_s += epoch_s;
  }
  state.counters["ns_per_step"] =
      timed_s * 1e9 / static_cast<double>(state.iterations() * kSteps);
}
BENCHMARK(BM_MarsFitSteps)->UseManualTime()->Unit(benchmark::kMillisecond);

// --- Scalar-vs-batched scoring kernels -------------------------------------
// One user row against a block of `rows` candidate rows at dim `d`,
// per-row calls vs the batched kernels of common/kernels.h.

constexpr size_t kBatchRows = 1024;

std::vector<float> RandomBlock(size_t rows, size_t d, uint64_t seed) {
  return RandomVec(rows * d, seed);
}

void BM_DotPerRow(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const auto u = RandomVec(d, 20);
  const auto block = RandomBlock(kBatchRows, d, 21);
  std::vector<float> out(kBatchRows);
  for (auto _ : state) {
    for (size_t r = 0; r < kBatchRows; ++r) {
      out[r] = Dot(u.data(), block.data() + r * d, d);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatchRows * d);
}
BENCHMARK(BM_DotPerRow)->Arg(32)->Arg(128);

void BM_DotBatch(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const auto u = RandomVec(d, 20);
  const auto block = RandomBlock(kBatchRows, d, 21);
  std::vector<float> out(kBatchRows);
  for (auto _ : state) {
    DotBatch(u.data(), block.data(), kBatchRows, d, d, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatchRows * d);
}
BENCHMARK(BM_DotBatch)->Arg(32)->Arg(128);

// --- Multi-user vs repeated single-user scoring ----------------------------
// The batched-serving question: B users against one item block — B calls
// of the single-user batch kernel (each streaming the block again) vs one
// multi-user kernel call (each item row loaded once for all B users).
// Args are (dim, B); per-user results are bit-identical by contract, so
// items_processed rates compare directly.

void BM_DotBatchRepeatedSingle(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t B = static_cast<size_t>(state.range(1));
  const auto us = RandomBlock(B, d, 30);
  const auto block = RandomBlock(kBatchRows, d, 31);
  std::vector<float> out(B * kBatchRows);
  for (auto _ : state) {
    for (size_t b = 0; b < B; ++b) {
      DotBatch(us.data() + b * d, block.data(), kBatchRows, d, d,
               out.data() + b * kBatchRows);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * B * kBatchRows * d);
}
BENCHMARK(BM_DotBatchRepeatedSingle)
    ->Args({32, 2})->Args({32, 4})->Args({32, 8});

void BM_DotBatchMulti(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t B = static_cast<size_t>(state.range(1));
  const auto us = RandomBlock(B, d, 30);
  const auto block = RandomBlock(kBatchRows, d, 31);
  std::vector<float> out(B * kBatchRows);
  std::vector<const float*> uptr(B);
  std::vector<float*> optr(B);
  for (size_t b = 0; b < B; ++b) {
    uptr[b] = us.data() + b * d;
    optr[b] = out.data() + b * kBatchRows;
  }
  for (auto _ : state) {
    DotBatchMulti(uptr.data(), B, block.data(), kBatchRows, d, d,
                  optr.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * B * kBatchRows * d);
}
BENCHMARK(BM_DotBatchMulti)->Args({32, 2})->Args({32, 4})->Args({32, 8});

// The IVF build's dominant stage: every Lloyd iteration (and the final
// full-catalog assignment) is one NearestCentroidDotBatch. Args are
// (rows, centroids, dim): the cold_misses k-means shape (16384-row sample,
// 4·sqrt(50k) centroids, K·d = 4·32 floats) and the hot_hits one (2000
// items, 4·sqrt(2000) centroids). Items are rows assigned.
void BM_NearestCentroidDotBatch(benchmark::State& state) {
  const size_t count = static_cast<size_t>(state.range(0));
  const size_t ncent = static_cast<size_t>(state.range(1));
  const size_t d = static_cast<size_t>(state.range(2));
  const auto rows = RandomBlock(count, d, 32);
  const auto centroids = RandomBlock(ncent, d, 33);
  std::vector<uint32_t> out(count);
  for (auto _ : state) {
    NearestCentroidDotBatch(rows.data(), count, d, centroids.data(), ncent,
                            d, d, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_NearestCentroidDotBatch)
    ->Args({16384, 896, 128})
    ->Args({2000, 180, 128})
    ->Unit(benchmark::kMillisecond);

void BM_SquaredDistanceBatchRepeatedSingle(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t B = static_cast<size_t>(state.range(1));
  const auto us = RandomBlock(B, d, 32);
  const auto block = RandomBlock(kBatchRows, d, 33);
  std::vector<float> out(B * kBatchRows);
  for (auto _ : state) {
    for (size_t b = 0; b < B; ++b) {
      NegatedSquaredDistanceBatch(us.data() + b * d, block.data(),
                                  kBatchRows, d, d,
                                  out.data() + b * kBatchRows);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * B * kBatchRows * d);
}
BENCHMARK(BM_SquaredDistanceBatchRepeatedSingle)
    ->Args({32, 2})->Args({32, 4})->Args({32, 8});

void BM_SquaredDistanceBatchMulti(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t B = static_cast<size_t>(state.range(1));
  const auto us = RandomBlock(B, d, 32);
  const auto block = RandomBlock(kBatchRows, d, 33);
  std::vector<float> out(B * kBatchRows);
  std::vector<const float*> uptr(B);
  std::vector<float*> optr(B);
  for (size_t b = 0; b < B; ++b) {
    uptr[b] = us.data() + b * d;
    optr[b] = out.data() + b * kBatchRows;
  }
  for (auto _ : state) {
    NegatedSquaredDistanceBatchMulti(uptr.data(), B, block.data(),
                                     kBatchRows, d, d, optr.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * B * kBatchRows * d);
}
BENCHMARK(BM_SquaredDistanceBatchMulti)
    ->Args({32, 2})->Args({32, 4})->Args({32, 8});

void BM_WeightedFacetDotBatchRepeatedSingle(benchmark::State& state) {
  constexpr size_t kf = 4;
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t B = static_cast<size_t>(state.range(1));
  const auto us = RandomBlock(B * kf, d, 34);
  const auto blocks = RandomBlock(kBatchRows * kf, d, 35);
  const auto ws = RandomBlock(B, kf, 36);
  std::vector<float> out(B * kBatchRows);
  for (auto _ : state) {
    for (size_t b = 0; b < B; ++b) {
      WeightedFacetDotBatch(us.data() + b * kf * d, d, blocks.data(),
                            kf * d, d, ws.data() + b * kf, kf, kBatchRows,
                            d, out.data() + b * kBatchRows);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * B * kBatchRows * kf * d);
}
BENCHMARK(BM_WeightedFacetDotBatchRepeatedSingle)
    ->Args({32, 2})->Args({32, 4})->Args({32, 8});

void BM_WeightedFacetDotBatchMulti(benchmark::State& state) {
  constexpr size_t kf = 4;
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t B = static_cast<size_t>(state.range(1));
  const auto us = RandomBlock(B * kf, d, 34);
  const auto blocks = RandomBlock(kBatchRows * kf, d, 35);
  const auto ws = RandomBlock(B, kf, 36);
  std::vector<float> out(B * kBatchRows);
  std::vector<const float*> uptr(B), wptr(B);
  std::vector<float*> optr(B);
  for (size_t b = 0; b < B; ++b) {
    uptr[b] = us.data() + b * kf * d;
    wptr[b] = ws.data() + b * kf;
    optr[b] = out.data() + b * kBatchRows;
  }
  for (auto _ : state) {
    WeightedFacetDotBatchMulti(uptr.data(), d, wptr.data(), B,
                               blocks.data(), kf * d, d, kf, kBatchRows, d,
                               optr.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * B * kBatchRows * kf * d);
}
BENCHMARK(BM_WeightedFacetDotBatchMulti)
    ->Args({32, 2})->Args({32, 4})->Args({32, 8});

// --- Autovectorized vs AVX2-intrinsic row reductions -----------------------
// The ROADMAP "SIMD-explicit kernels" comparison: the generic 8-wide
// accumulator forms (vectorized at the build's baseline ISA — plain SSE2
// here, no -march flags) against the explicit AVX2+FMA twins in
// common/kernels_detail.h, over the serving batch shape. The public
// kernels dispatch at runtime, so these explicit pairs are what keeps the
// measurement honest after adoption.

void BM_DotBatchGeneric(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const auto u = RandomVec(d, 20);
  const auto block = RandomBlock(kBatchRows, d, 21);
  std::vector<float> out(kBatchRows);
  for (auto _ : state) {
    for (size_t r = 0; r < kBatchRows; ++r) {
      out[r] = kernels_detail::DotRowGeneric(u.data(), block.data() + r * d, d);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatchRows * d);
}
BENCHMARK(BM_DotBatchGeneric)->Arg(32)->Arg(128);

void BM_SquaredDistanceBatchGeneric(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const auto u = RandomVec(d, 24);
  const auto block = RandomBlock(kBatchRows, d, 25);
  std::vector<float> out(kBatchRows);
  for (auto _ : state) {
    for (size_t r = 0; r < kBatchRows; ++r) {
      out[r] = kernels_detail::SquaredDistanceRowGeneric(
          u.data(), block.data() + r * d, d);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatchRows * d);
}
BENCHMARK(BM_SquaredDistanceBatchGeneric)->Arg(32)->Arg(128);

void BM_WeightedFacetDotBatchGeneric(benchmark::State& state) {
  constexpr size_t kf = 4;
  const size_t d = static_cast<size_t>(state.range(0));
  const auto u = RandomBlock(kf, d, 26);
  const auto blocks = RandomBlock(kBatchRows * kf, d, 27);
  const std::vector<float> w = {0.1f, 0.4f, 0.2f, 0.3f};
  std::vector<float> out(kBatchRows);
  for (auto _ : state) {
    for (size_t r = 0; r < kBatchRows; ++r) {
      float score = 0.0f;
      for (size_t k = 0; k < kf; ++k) {
        score += w[k] * kernels_detail::DotRowGeneric(
                            u.data() + k * d,
                            blocks.data() + (r * kf + k) * d, d);
      }
      out[r] = score;
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatchRows * kf * d);
}
BENCHMARK(BM_WeightedFacetDotBatchGeneric)->Arg(32);

#if MARS_KERNELS_HAVE_AVX2

MARS_AVX2_FN void DotBatchAvx2Loop(const float* u, const float* rows,
                                   size_t count, size_t stride, size_t n,
                                   float* out) {
  for (size_t r = 0; r < count; ++r) {
    out[r] = kernels_detail::DotRowAvx2(u, rows + r * stride, n);
  }
}

MARS_AVX2_FN void SquaredDistanceBatchAvx2Loop(const float* u,
                                               const float* rows,
                                               size_t count, size_t stride,
                                               size_t n, float* out) {
  for (size_t r = 0; r < count; ++r) {
    out[r] = kernels_detail::SquaredDistanceRowAvx2(u, rows + r * stride, n);
  }
}

MARS_AVX2_FN void WeightedFacetDotBatchAvx2Loop(const float* u,
                                                const float* blocks,
                                                size_t kf, size_t count,
                                                size_t n, const float* w,
                                                float* out) {
  for (size_t r = 0; r < count; ++r) {
    float score = 0.0f;
    for (size_t k = 0; k < kf; ++k) {
      score += w[k] * kernels_detail::DotRowAvx2(
                          u + k * n, blocks + (r * kf + k) * n, n);
    }
    out[r] = score;
  }
}

void BM_DotBatchAvx2(benchmark::State& state) {
  if (!kernels_detail::HasAvx2Fma()) {
    state.SkipWithError("host has no AVX2+FMA");
    return;
  }
  const size_t d = static_cast<size_t>(state.range(0));
  const auto u = RandomVec(d, 20);
  const auto block = RandomBlock(kBatchRows, d, 21);
  std::vector<float> out(kBatchRows);
  for (auto _ : state) {
    DotBatchAvx2Loop(u.data(), block.data(), kBatchRows, d, d, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatchRows * d);
}
BENCHMARK(BM_DotBatchAvx2)->Arg(32)->Arg(128);

void BM_SquaredDistanceBatchAvx2(benchmark::State& state) {
  if (!kernels_detail::HasAvx2Fma()) {
    state.SkipWithError("host has no AVX2+FMA");
    return;
  }
  const size_t d = static_cast<size_t>(state.range(0));
  const auto u = RandomVec(d, 24);
  const auto block = RandomBlock(kBatchRows, d, 25);
  std::vector<float> out(kBatchRows);
  for (auto _ : state) {
    SquaredDistanceBatchAvx2Loop(u.data(), block.data(), kBatchRows, d, d,
                                 out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatchRows * d);
}
BENCHMARK(BM_SquaredDistanceBatchAvx2)->Arg(32)->Arg(128);

void BM_WeightedFacetDotBatchAvx2(benchmark::State& state) {
  if (!kernels_detail::HasAvx2Fma()) {
    state.SkipWithError("host has no AVX2+FMA");
    return;
  }
  constexpr size_t kf = 4;
  const size_t d = static_cast<size_t>(state.range(0));
  const auto u = RandomBlock(kf, d, 26);
  const auto blocks = RandomBlock(kBatchRows * kf, d, 27);
  const std::vector<float> w = {0.1f, 0.4f, 0.2f, 0.3f};
  std::vector<float> out(kBatchRows);
  for (auto _ : state) {
    WeightedFacetDotBatchAvx2Loop(u.data(), blocks.data(), kf, kBatchRows,
                                  d, w.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatchRows * kf * d);
}
BENCHMARK(BM_WeightedFacetDotBatchAvx2)->Arg(32);

#endif  // MARS_KERNELS_HAVE_AVX2

// --- Scattered-vs-contiguous multi-facet scoring ---------------------------
// The MARS score Σ_k θ_k <u_k, v_k> over K=4 facets at D=32: K separate
// Matrix tables (seed layout) vs one FacetStore entity block (this PR).

void BM_FacetScoreScattered(benchmark::State& state) {
  constexpr size_t kf = 4, d = 32, n = 4096;
  Rng rng(24);
  std::vector<Matrix> user(kf, Matrix(n, d)), item(kf, Matrix(n, d));
  for (size_t k = 0; k < kf; ++k) {
    user[k].FillNormal(&rng, 0.0f, 0.2f);
    item[k].FillNormal(&rng, 0.0f, 0.2f);
  }
  const std::vector<float> w = {0.1f, 0.4f, 0.2f, 0.3f};
  size_t v = 0;
  for (auto _ : state) {
    float score = 0.0f;
    for (size_t k = 0; k < kf; ++k) {
      score += w[k] * Dot(user[k].Row(0), item[k].Row(v), d);
    }
    benchmark::DoNotOptimize(score);
    v = (v + 997) % n;
  }
  state.SetItemsProcessed(state.iterations() * kf * d);
}
BENCHMARK(BM_FacetScoreScattered);

void BM_FacetScoreContiguous(benchmark::State& state) {
  constexpr size_t kf = 4, d = 32, n = 4096;
  Rng rng(24);
  FacetStore user(n, kf, d), item(n, kf, d);
  for (size_t e = 0; e < n; ++e) {
    for (size_t k = 0; k < kf; ++k) {
      for (size_t i = 0; i < d; ++i) {
        user.Row(e, k)[i] = static_cast<float>(rng.Normal(0.0, 0.2));
        item.Row(e, k)[i] = static_cast<float>(rng.Normal(0.0, 0.2));
      }
    }
  }
  const std::vector<float> w = {0.1f, 0.4f, 0.2f, 0.3f};
  size_t v = 0;
  for (auto _ : state) {
    const float score =
        WeightedFacetDot(user.EntityBlock(0), user.row_stride(),
                         item.EntityBlock(v), item.row_stride(), w.data(),
                         kf, d);
    benchmark::DoNotOptimize(score);
    v = (v + 997) % n;
  }
  state.SetItemsProcessed(state.iterations() * kf * d);
}
BENCHMARK(BM_FacetScoreContiguous);

void BM_PlainRsgdStep(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  auto x = RandomVec(d, 10);
  NormalizeInPlace(x.data(), d);
  const auto g = RandomVec(d, 11);
  std::vector<float> scratch(d);
  for (auto _ : state) {
    RiemannianSgdStep(x.data(), g.data(), 0.01f, d, scratch.data(), false);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_PlainRsgdStep)->Arg(32)->Arg(128);

std::shared_ptr<ImplicitDataset> BenchDataset() {
  static std::shared_ptr<ImplicitDataset> ds = [] {
    SyntheticConfig cfg;
    cfg.num_users = 1000;
    cfg.num_items = 2000;
    cfg.target_interactions = 20000;
    cfg.seed = 12;
    return GenerateSyntheticDataset(cfg);
  }();
  return ds;
}

void BM_AliasTableSample(benchmark::State& state) {
  Rng wgen(13);
  std::vector<double> weights(100000);
  for (auto& w : weights) w = wgen.Uniform(0.1, 10.0);
  AliasTable table(weights);
  Rng rng(14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(&rng));
  }
}
BENCHMARK(BM_AliasTableSample);

void BM_NegativeSample(benchmark::State& state) {
  const auto ds = BenchDataset();
  NegativeSampler sampler(*ds);
  Rng rng(15);
  ItemId out;
  UserId u = 0;
  for (auto _ : state) {
    sampler.Sample(u, &rng, &out);
    benchmark::DoNotOptimize(out);
    u = (u + 1) % ds->num_users();
  }
}
BENCHMARK(BM_NegativeSample);

void BM_TripletSampleBiased(benchmark::State& state) {
  const auto ds = BenchDataset();
  TripletSampler sampler(*ds, TripletUserMode::kFrequencyBiased, 0.8);
  Rng rng(16);
  Triplet t;
  for (auto _ : state) {
    sampler.Sample(&rng, &t);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_TripletSampleBiased);

void BM_EvaluateUser(benchmark::State& state) {
  // Cost of ranking one user against 100 sampled negatives with a dot-
  // product scorer at D = 32.
  const auto ds = BenchDataset();
  const auto split = MakeLeaveOneOutSplit(*ds, 3);
  Evaluator eval(*split.train, split.test_item, EvalProtocol{});
  class DotScorer : public ItemScorer {
   public:
    DotScorer(size_t users, size_t items) : user_(users, 32), item_(items, 32) {
      Rng rng(17);
      user_.FillNormal(&rng, 0.0f, 0.2f);
      item_.FillNormal(&rng, 0.0f, 0.2f);
    }
    float Score(UserId u, ItemId v) const override {
      return Dot(user_.Row(u), item_.Row(v), 32);
    }
    Matrix user_, item_;
  } scorer(ds->num_users(), ds->num_items());

  UserId u = 0;
  for (auto _ : state) {
    while (split.test_item[u] < 0) u = (u + 1) % ds->num_users();
    benchmark::DoNotOptimize(eval.RankOf(scorer, u));
    u = (u + 1) % ds->num_users();
  }
}
BENCHMARK(BM_EvaluateUser);

// The IVF probe's first pass at wirebench's cold shape: 50 000 items of
// dim 128 (64-byte 4-bit code rows) in 896 lists, 448 of them probed —
// the auto nprobe — scanned run by run of adjacent lists as
// SphericalIvfIndex::Probe does, at a threshold that 40 rows reach (the
// k·overfetch the probe keeps). Each twin runs under its own name
// (BM_CodeScan/generic, BM_CodeScan/avx2); `per_row` is the scan time of
// one probed row.
struct CodeScanShape {
  static constexpr size_t kItems = 50000, kDim = 128, kLists = 896;
  size_t row_bytes = SphericalIvfIndex::CodeBytes(kDim);
  std::vector<uint8_t> codes;
  std::vector<float> scales;
  std::vector<int8_t> q;
  CodeQuery query;
  std::vector<std::pair<size_t, size_t>> runs;  // probed row ranges
  size_t rows = 0;
  float threshold = 0.0f;

  CodeScanShape() {
    Rng rng(26);
    codes.resize(kItems * row_bytes);
    for (auto& c : codes) {
      c = static_cast<uint8_t>((1 + rng.UniformInt(15)) |
                               ((1 + rng.UniformInt(15)) << 4));
    }
    scales.resize(kItems);
    for (auto& s : scales) s = static_cast<float>(rng.Uniform(0.05, 0.2));
    q.resize(2 * row_bytes);
    for (auto& x : q) {
      x = static_cast<int8_t>(static_cast<int>(rng.UniformInt(255)) - 127);
      query.bias += 8 * x;
    }
    query.q = q.data();
    // Lists of random sizes that tile the catalog, half of them probed.
    std::vector<size_t> cuts = {0, kItems};
    for (size_t c = 1; c < kLists; ++c) cuts.push_back(rng.UniformInt(kItems));
    std::sort(cuts.begin(), cuts.end());
    std::vector<size_t> lists(kLists);
    for (size_t c = 0; c < kLists; ++c) lists[c] = c;
    rng.Shuffle(&lists);
    lists.resize(kLists / 2);
    std::sort(lists.begin(), lists.end());
    for (size_t i = 0; i < lists.size();) {
      size_t j = i + 1;
      while (j < lists.size() && lists[j] == lists[j - 1] + 1) ++j;
      runs.push_back({cuts[lists[i]], cuts[lists[j - 1] + 1]});
      rows += runs.back().second - runs.back().first;
      i = j;
    }
    // The 40th best probed score: the threshold of a full probe heap.
    std::vector<float> scores;
    std::vector<uint32_t> hits(kItems);
    std::vector<float> hit_scores(kItems);
    for (const auto& [begin, end] : runs) {
      const size_t n = kernels_detail::CodeScoresAtLeastGeneric(
          query, codes.data() + begin * row_bytes, scales.data() + begin,
          end - begin, row_bytes, -1e30f, hits.data(), hit_scores.data());
      scores.insert(scores.end(), hit_scores.begin(), hit_scores.begin() + n);
    }
    std::nth_element(scores.begin(), scores.begin() + 39, scores.end(),
                     std::greater<float>());
    threshold = scores[39];
  }
};

void BM_CodeScan(benchmark::State& state,
                 decltype(&CodeScoresAtLeast) scan) {
  static const CodeScanShape shape;
  std::vector<uint32_t> hits(CodeScanShape::kItems);
  std::vector<float> hit_scores(CodeScanShape::kItems);
  for (auto _ : state) {
    size_t found = 0;
    for (const auto& [begin, end] : shape.runs) {
      found += scan(shape.query, shape.codes.data() + begin * shape.row_bytes,
                    shape.scales.data() + begin, end - begin, shape.row_bytes,
                    shape.threshold, hits.data(), hit_scores.data());
    }
    benchmark::DoNotOptimize(found);
  }
  state.counters["rows"] = static_cast<double>(shape.rows);
  state.counters["per_row"] = benchmark::Counter(
      static_cast<double>(shape.rows),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_CodeScan, generic,
                  &kernels_detail::CodeScoresAtLeastGeneric);
#if MARS_KERNELS_HAVE_AVX2
void BM_CodeScanAvx2(benchmark::State& state) {
  if (!kernels_detail::HasAvx2Fma()) {
    state.SkipWithError("no AVX2 on this host");
    return;
  }
  BM_CodeScan(state, &kernels_detail::CodeScoresAtLeastAvx2);
}
BENCHMARK(BM_CodeScanAvx2)->Name("BM_CodeScan/avx2");
#endif

// Restart validates each MRSI region with Crc32 before serving from it,
// and every MRSN frame carries one; bytes/s here bounds how fast a mapped
// index can come up. Sizes: one 64-byte frame payload, the 862 340 checked
// bytes of wirebench's cold index (50k items, dim 128, 896 lists), and
// 1 MiB. Each twin runs under its own name (BM_Crc32/portable/...,
// BM_Crc32/pclmul/...) next to the dispatched entry point.
void BM_Crc32(benchmark::State& state,
              uint32_t (*crc)(const uint8_t*, size_t)) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(9);
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc(bytes.data(), n));
  }
  state.SetBytesProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_Crc32, dispatched, &Crc32)
    ->Arg(64)->Arg(862340)->Arg(1 << 20);
BENCHMARK_CAPTURE(BM_Crc32, portable, &crc32_detail::Crc32Portable)
    ->Arg(64)->Arg(862340)->Arg(1 << 20);
#if MARS_CRC32_HAVE_PCLMUL
void BM_Crc32Pclmul(benchmark::State& state) {
  if (!crc32_detail::HasPclmul()) {
    state.SkipWithError("no PCLMULQDQ on this host");
    return;
  }
  BM_Crc32(state, &crc32_detail::Crc32Pclmul);
}
BENCHMARK(BM_Crc32Pclmul)->Name("BM_Crc32/pclmul")
    ->Arg(64)->Arg(862340)->Arg(1 << 20);
#endif

}  // namespace
}  // namespace mars

BENCHMARK_MAIN();
