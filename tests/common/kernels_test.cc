#include "common/kernels.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/facet_store.h"
#include "common/kernels_detail.h"
#include "common/rng.h"
#include "common/vec.h"

namespace mars {
namespace {

std::vector<float> RandomVec(Rng* rng, size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng->Normal());
  return v;
}

/// A block of `count` rows spaced `stride` apart, padding zeroed.
std::vector<float> RandomBlock(Rng* rng, size_t count, size_t stride,
                               size_t n) {
  std::vector<float> block(count * stride, 0.0f);
  for (size_t r = 0; r < count; ++r) {
    for (size_t i = 0; i < n; ++i) {
      block[r * stride + i] = static_cast<float>(rng->Normal());
    }
  }
  return block;
}

class BatchKernelShapes
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(BatchKernelShapes, DotBatchMatchesPerRow) {
  const auto [n, count] = GetParam();
  const size_t stride = n + 3;  // deliberately padded
  Rng rng(1);
  const auto u = RandomVec(&rng, n);
  const auto block = RandomBlock(&rng, count, stride, n);
  std::vector<float> got(count, -1.0f);
  DotBatch(u.data(), block.data(), count, stride, n, got.data());
  for (size_t r = 0; r < count; ++r) {
    EXPECT_NEAR(got[r], Dot(u.data(), block.data() + r * stride, n), 1e-5f)
        << "n=" << n << " r=" << r;
  }
}

TEST_P(BatchKernelShapes, SquaredDistanceBatchMatchesPerRow) {
  const auto [n, count] = GetParam();
  const size_t stride = n + 1;
  Rng rng(2);
  const auto u = RandomVec(&rng, n);
  const auto block = RandomBlock(&rng, count, stride, n);
  std::vector<float> got(count);
  NegatedSquaredDistanceBatch(u.data(), block.data(), count, stride, n,
                              got.data());
  for (size_t r = 0; r < count; ++r) {
    EXPECT_NEAR(got[r],
                -SquaredDistance(u.data(), block.data() + r * stride, n),
                1e-4f);
  }
}

// The batched cosine of MARS at K = 1: one facet of unit rows swept by
// WeightedFacetDotBatch with weight 1 is the per-row cosine.
TEST_P(BatchKernelShapes, CosineBatchMatchesPerRow) {
  const auto [n, count] = GetParam();
  const size_t stride = n;
  Rng rng(3);
  auto u = RandomVec(&rng, n);
  auto block = RandomBlock(&rng, count, stride, n);
  NormalizeInPlace(u.data(), n);
  for (size_t r = 0; r < count; ++r) {
    NormalizeInPlace(block.data() + r * stride, n);
  }
  const float w = 1.0f;
  std::vector<float> got(count);
  WeightedFacetDotBatch(u.data(), stride, block.data(), stride, stride, &w,
                        /*num_facets=*/1, count, n, got.data());
  for (size_t r = 0; r < count; ++r) {
    EXPECT_NEAR(got[r], Cosine(u.data(), block.data() + r * stride, n),
                1e-5f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BatchKernelShapes,
    ::testing::Combine(::testing::Values<size_t>(1, 4, 7, 32, 129),
                       ::testing::Values<size_t>(1, 2, 5, 64)));

TEST(KernelsTest, DotGatherMatchesPerRow) {
  const size_t n = 24, stride = 32, rows = 50;
  Rng rng(6);
  const auto u = RandomVec(&rng, n);
  const auto base = RandomBlock(&rng, rows, stride, n);
  const std::vector<uint32_t> ids = {3, 3, 49, 0, 17, 21, 8};
  std::vector<float> got(ids.size());
  DotGather(u.data(), base.data(), stride, ids.data(), ids.size(), n,
            got.data());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_NEAR(got[i], Dot(u.data(), base.data() + ids[i] * stride, n),
                1e-5f);
  }
}

TEST(KernelsTest, NegatedSquaredDistanceGatherMatchesPerRow) {
  const size_t n = 13, stride = 13, rows = 30;
  Rng rng(10);
  const auto u = RandomVec(&rng, n);
  const auto base = RandomBlock(&rng, rows, stride, n);
  const std::vector<uint32_t> ids = {0, 29, 7, 7, 15};
  std::vector<float> got(ids.size());
  NegatedSquaredDistanceGather(u.data(), base.data(), stride, ids.data(),
                               ids.size(), n, got.data());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_NEAR(got[i],
                -SquaredDistance(u.data(), base.data() + ids[i] * stride, n),
                1e-4f);
  }
}

TEST(KernelsTest, WeightedFacetDotMatchesLoop) {
  const size_t kf = 4, d = 19;
  FacetStore users(3, kf, d), items(5, kf, d);
  Rng rng(8);
  for (size_t e = 0; e < 3; ++e) {
    for (size_t k = 0; k < kf; ++k) {
      for (size_t i = 0; i < d; ++i) {
        users.Row(e, k)[i] = static_cast<float>(rng.Normal());
      }
    }
  }
  for (size_t e = 0; e < 5; ++e) {
    for (size_t k = 0; k < kf; ++k) {
      for (size_t i = 0; i < d; ++i) {
        items.Row(e, k)[i] = static_cast<float>(rng.Normal());
      }
    }
  }
  const std::vector<float> w = {0.1f, 0.4f, 0.2f, 0.3f};
  for (size_t u = 0; u < 3; ++u) {
    for (size_t v = 0; v < 5; ++v) {
      float expect = 0.0f;
      for (size_t k = 0; k < kf; ++k) {
        expect += w[k] * Dot(users.Row(u, k), items.Row(v, k), d);
      }
      const float got = WeightedFacetDot(
          users.EntityBlock(u), users.row_stride(), items.EntityBlock(v),
          items.row_stride(), w.data(), kf, d);
      EXPECT_NEAR(got, expect, 1e-5f);
    }
  }
}

TEST(KernelsTest, NegatedSquaredDistanceBatchMatchesPerRow) {
  const size_t n = 13, count = 9, stride = n + 2;
  Rng rng(11);
  const auto u = RandomVec(&rng, n);
  const auto block = RandomBlock(&rng, count, stride, n);
  std::vector<float> got(count);
  NegatedSquaredDistanceBatch(u.data(), block.data(), count, stride, n,
                              got.data());
  for (size_t r = 0; r < count; ++r) {
    EXPECT_NEAR(got[r],
                -SquaredDistance(u.data(), block.data() + r * stride, n),
                1e-4f);
  }
}

TEST(KernelsTest, WeightedFacetDotBatchSweepsContiguousBlocks) {
  // The MARS serving shape: one user entity block against a consecutive
  // run of item entity blocks straight out of a FacetStore.
  const size_t kf = 4, d = 17;
  FacetStore users(2, kf, d), items(9, kf, d);
  Rng rng(12);
  for (size_t e = 0; e < users.num_entities(); ++e) {
    for (size_t k = 0; k < kf; ++k) {
      for (size_t i = 0; i < d; ++i) {
        users.Row(e, k)[i] = static_cast<float>(rng.Normal());
      }
    }
  }
  for (size_t e = 0; e < items.num_entities(); ++e) {
    for (size_t k = 0; k < kf; ++k) {
      for (size_t i = 0; i < d; ++i) {
        items.Row(e, k)[i] = static_cast<float>(rng.Normal());
      }
    }
  }
  const std::vector<float> w = {0.1f, 0.4f, 0.2f, 0.3f};
  const size_t begin = 2, count = 6;
  std::vector<float> got(count, -1.0f);
  WeightedFacetDotBatch(users.EntityBlock(1), users.row_stride(),
                        items.EntityBlock(begin), items.entity_stride(),
                        items.row_stride(), w.data(), kf, count, d,
                        got.data());
  for (size_t r = 0; r < count; ++r) {
    const float expect =
        WeightedFacetDot(users.EntityBlock(1), users.row_stride(),
                         items.EntityBlock(begin + r), items.row_stride(),
                         w.data(), kf, d);
    EXPECT_EQ(got[r], expect) << "candidate " << r;
  }
}

TEST(KernelsTest, WeightedFacetSquaredDistanceBatchSweepsContiguousBlocks) {
  const size_t kf = 3, d = 12;
  FacetStore users(1, kf, d), items(7, kf, d);
  Rng rng(13);
  for (size_t k = 0; k < kf; ++k) {
    for (size_t i = 0; i < d; ++i) {
      users.Row(0, k)[i] = static_cast<float>(rng.Normal());
    }
  }
  for (size_t e = 0; e < items.num_entities(); ++e) {
    for (size_t k = 0; k < kf; ++k) {
      for (size_t i = 0; i < d; ++i) {
        items.Row(e, k)[i] = static_cast<float>(rng.Normal());
      }
    }
  }
  const std::vector<float> w = {0.5f, 0.25f, 0.25f};
  std::vector<float> got(items.num_entities());
  WeightedFacetSquaredDistanceBatch(
      users.EntityBlock(0), users.row_stride(), items.EntityBlock(0),
      items.entity_stride(), items.row_stride(), w.data(), kf,
      items.num_entities(), d, got.data());
  for (size_t v = 0; v < items.num_entities(); ++v) {
    const float expect = WeightedFacetSquaredDistance(
        users.EntityBlock(0), users.row_stride(), items.EntityBlock(v),
        items.row_stride(), w.data(), kf, d);
    EXPECT_EQ(got[v], expect) << "candidate " << v;
  }
}

TEST(KernelsTest, WeightedFacetSquaredDistanceMixedStrides) {
  // Dense K×d user buffer (stride d) against a padded FacetStore block.
  const size_t kf = 3, d = 12;
  FacetStore items(4, kf, d);
  Rng rng(9);
  std::vector<float> u(kf * d);
  for (auto& x : u) x = static_cast<float>(rng.Normal());
  for (size_t e = 0; e < 4; ++e) {
    for (size_t k = 0; k < kf; ++k) {
      for (size_t i = 0; i < d; ++i) {
        items.Row(e, k)[i] = static_cast<float>(rng.Normal());
      }
    }
  }
  const std::vector<float> w = {0.5f, 0.25f, 0.25f};
  for (size_t v = 0; v < 4; ++v) {
    float expect = 0.0f;
    for (size_t k = 0; k < kf; ++k) {
      expect += w[k] * SquaredDistance(u.data() + k * d, items.Row(v, k), d);
    }
    const float got = WeightedFacetSquaredDistance(
        u.data(), d, items.EntityBlock(v), items.row_stride(), w.data(), kf,
        d);
    EXPECT_NEAR(got, expect, 1e-4f);
  }
}

TEST_P(BatchKernelShapes, NearestCentroidDotBatchMatchesArgmax) {
  const auto [n, count] = GetParam();
  const size_t stride = n + 2;          // padded rows
  const size_t centroid_stride = n + 1; // and differently padded centroids
  const size_t num_centroids = 5;
  Rng rng(11);
  const auto rows = RandomBlock(&rng, count, stride, n);
  const auto centroids = RandomBlock(&rng, num_centroids, centroid_stride, n);
  std::vector<uint32_t> got(count, 0xFFFFFFFFu);
  NearestCentroidDotBatch(rows.data(), count, stride, centroids.data(),
                          num_centroids, centroid_stride, n, got.data());
  for (size_t r = 0; r < count; ++r) {
    uint32_t best = 0;
    float best_dot = Dot(rows.data() + r * stride, centroids.data(), n);
    for (size_t c = 1; c < num_centroids; ++c) {
      const float d =
          Dot(rows.data() + r * stride, centroids.data() + c * centroid_stride,
              n);
      if (d > best_dot) {
        best_dot = d;
        best = static_cast<uint32_t>(c);
      }
    }
    EXPECT_EQ(got[r], best) << "n=" << n << " row " << r;
  }
}

// --- Multi-user forms: the contract is *bit*-identity per user against
// the single-user kernel (EXPECT_EQ, no tolerance) — the multi-user miss
// sweep's batch≡solo guarantee bottoms out here. B values cover the
// quad remainders (1..5, 8); n values cover the 16-, 8-, and scalar-tail
// code paths.

class MultiUserKernels
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(MultiUserKernels, DotBatchMultiBitMatchesSolo) {
  const auto [n, num_users] = GetParam();
  const size_t count = 23, stride = n + 3;
  Rng rng(31);
  const auto ublock = RandomBlock(&rng, num_users, stride, n);
  const auto block = RandomBlock(&rng, count, stride, n);
  std::vector<const float*> us(num_users);
  std::vector<float> multi(num_users * count, -1.0f);
  std::vector<float*> outs(num_users);
  for (size_t b = 0; b < num_users; ++b) {
    us[b] = ublock.data() + b * stride;
    outs[b] = multi.data() + b * count;
  }
  DotBatchMulti(us.data(), num_users, block.data(), count, stride, n,
                outs.data());
  std::vector<float> solo(count);
  for (size_t b = 0; b < num_users; ++b) {
    DotBatch(us[b], block.data(), count, stride, n, solo.data());
    for (size_t r = 0; r < count; ++r) {
      EXPECT_EQ(outs[b][r], solo[r]) << "n=" << n << " B=" << num_users
                                     << " user " << b << " row " << r;
    }
  }
}

TEST_P(MultiUserKernels, NegatedSquaredDistanceBatchMultiBitMatchesSolo) {
  const auto [n, num_users] = GetParam();
  const size_t count = 17, stride = n + 1;
  Rng rng(32);
  const auto ublock = RandomBlock(&rng, num_users, stride, n);
  const auto block = RandomBlock(&rng, count, stride, n);
  std::vector<const float*> us(num_users);
  std::vector<float> multi(num_users * count);
  std::vector<float*> outs(num_users);
  for (size_t b = 0; b < num_users; ++b) {
    us[b] = ublock.data() + b * stride;
    outs[b] = multi.data() + b * count;
  }
  NegatedSquaredDistanceBatchMulti(us.data(), num_users, block.data(), count,
                                   stride, n, outs.data());
  std::vector<float> solo(count);
  for (size_t b = 0; b < num_users; ++b) {
    NegatedSquaredDistanceBatch(us[b], block.data(), count, stride, n,
                                solo.data());
    for (size_t r = 0; r < count; ++r) {
      EXPECT_EQ(outs[b][r], solo[r]) << "n=" << n << " B=" << num_users
                                     << " user " << b << " row " << r;
    }
  }
}

TEST_P(MultiUserKernels, WeightedFacetDotBatchMultiBitMatchesSolo) {
  const auto [n, num_users] = GetParam();
  const size_t kf = 3, count = 9;
  FacetStore users(num_users, kf, n), items(count, kf, n);
  Rng rng(33);
  for (size_t e = 0; e < num_users; ++e) {
    for (size_t k = 0; k < kf; ++k) {
      for (size_t i = 0; i < n; ++i) {
        users.Row(e, k)[i] = static_cast<float>(rng.Normal());
      }
    }
  }
  for (size_t e = 0; e < count; ++e) {
    for (size_t k = 0; k < kf; ++k) {
      for (size_t i = 0; i < n; ++i) {
        items.Row(e, k)[i] = static_cast<float>(rng.Normal());
      }
    }
  }
  // Per-user weight vectors, all distinct.
  std::vector<float> wbuf(num_users * kf);
  for (auto& x : wbuf) x = 0.1f + static_cast<float>(rng.Uniform());
  std::vector<const float*> us(num_users), ws(num_users);
  std::vector<float> multi(num_users * count);
  std::vector<float*> outs(num_users);
  for (size_t b = 0; b < num_users; ++b) {
    us[b] = users.EntityBlock(b);
    ws[b] = wbuf.data() + b * kf;
    outs[b] = multi.data() + b * count;
  }
  WeightedFacetDotBatchMulti(us.data(), users.row_stride(), ws.data(),
                             num_users, items.EntityBlock(0),
                             items.entity_stride(), items.row_stride(), kf,
                             count, n, outs.data());
  std::vector<float> solo(count);
  for (size_t b = 0; b < num_users; ++b) {
    WeightedFacetDotBatch(us[b], users.row_stride(), items.EntityBlock(0),
                          items.entity_stride(), items.row_stride(), ws[b],
                          kf, count, n, solo.data());
    for (size_t r = 0; r < count; ++r) {
      EXPECT_EQ(outs[b][r], solo[r]) << "n=" << n << " B=" << num_users
                                     << " user " << b << " row " << r;
    }
  }
}

TEST_P(MultiUserKernels, WeightedFacetSquaredDistanceBatchMultiBitMatchesSolo) {
  const auto [n, num_users] = GetParam();
  const size_t kf = 4, count = 7;
  FacetStore users(num_users, kf, n), items(count, kf, n);
  Rng rng(34);
  for (size_t e = 0; e < num_users; ++e) {
    for (size_t k = 0; k < kf; ++k) {
      for (size_t i = 0; i < n; ++i) {
        users.Row(e, k)[i] = static_cast<float>(rng.Normal());
      }
    }
  }
  for (size_t e = 0; e < count; ++e) {
    for (size_t k = 0; k < kf; ++k) {
      for (size_t i = 0; i < n; ++i) {
        items.Row(e, k)[i] = static_cast<float>(rng.Normal());
      }
    }
  }
  std::vector<float> wbuf(num_users * kf);
  for (auto& x : wbuf) x = 0.1f + static_cast<float>(rng.Uniform());
  std::vector<const float*> us(num_users), ws(num_users);
  std::vector<float> multi(num_users * count);
  std::vector<float*> outs(num_users);
  for (size_t b = 0; b < num_users; ++b) {
    us[b] = users.EntityBlock(b);
    ws[b] = wbuf.data() + b * kf;
    outs[b] = multi.data() + b * count;
  }
  WeightedFacetSquaredDistanceBatchMulti(
      us.data(), users.row_stride(), ws.data(), num_users,
      items.EntityBlock(0), items.entity_stride(), items.row_stride(), kf,
      count, n, outs.data());
  std::vector<float> solo(count);
  for (size_t b = 0; b < num_users; ++b) {
    WeightedFacetSquaredDistanceBatch(
        us[b], users.row_stride(), items.EntityBlock(0),
        items.entity_stride(), items.row_stride(), ws[b], kf, count, n,
        solo.data());
    for (size_t r = 0; r < count; ++r) {
      EXPECT_EQ(outs[b][r], solo[r]) << "n=" << n << " B=" << num_users
                                     << " user " << b << " row " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MultiUserKernels,
    ::testing::Combine(::testing::Values<size_t>(5, 8, 16, 19, 32, 37),
                       ::testing::Values<size_t>(1, 2, 3, 4, 5, 8)));

TEST(KernelsTest, NearestCentroidDotBatchBreaksTiesToLowestIndex) {
  // Duplicate centroids dot identically against every row; the pinned
  // tie rule (strict improvement only) must pick the lower index, on
  // both the generic and vectorized paths.
  const size_t n = 19, count = 6, num_centroids = 4;
  Rng rng(21);
  const auto rows = RandomBlock(&rng, count, n, n);
  auto centroids = RandomBlock(&rng, num_centroids, n, n);
  for (size_t c = 1; c < num_centroids; ++c) {
    Copy(centroids.data(), centroids.data() + c * n, n);
  }
  std::vector<uint32_t> got(count, 0xFFFFFFFFu);
  NearestCentroidDotBatch(rows.data(), count, n, centroids.data(),
                          num_centroids, n, n, got.data());
  for (size_t r = 0; r < count; ++r) EXPECT_EQ(got[r], 0u) << "row " << r;
}

uint32_t FloatBits(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

/// Strict-'>' argmax over the public DotBatch scores of `row` against the
/// centroid block: the oracle the assignment kernel must match exactly.
uint32_t DotBatchArgmax(const float* row, const float* centroids,
                        size_t num_centroids, size_t centroid_stride,
                        size_t n) {
  std::vector<float> dots(num_centroids);
  DotBatch(row, centroids, num_centroids, centroid_stride, n, dots.data());
  uint32_t best = 0;
  for (size_t c = 1; c < num_centroids; ++c) {
    if (dots[c] > dots[best]) best = static_cast<uint32_t>(c);
  }
  return best;
}

TEST(KernelsTest, NearestCentroidDotBatchMatchesDotBatchArgmax) {
  // Exact equality, no tolerance: the AVX2 kernel scores four rows
  // against three centroids per block, with single-centroid and
  // single-row remainders, and each lane must carry the bits of the
  // single-row dot DotBatch uses; best_dot must return that winning float
  // bit for bit. n covers the 16-, 8- and scalar-tail paths of the row
  // primitive; counts cover whole quads plus every tail length; centroid
  // counts cover every remainder of three and the cold k-means shape's
  // 896. Rows 1 and 2 copy unit centroid 2, which centroid 3 duplicates
  // across the first block edge (centroid 5 duplicates centroid 4 inside
  // the second block): each tie must go to the lower index.
  for (const size_t n : {5, 8, 16, 19, 24, 30, 32, 37, 128}) {
    for (const size_t num_centroids : {1, 2, 3, 4, 5, 6, 7, 13, 896}) {
      for (const size_t count : {1, 2, 3, 4, 5, 6, 7, 8, 9, 33}) {
        const size_t stride = n + 3, centroid_stride = n + 1;
        Rng rng(100000 * n + 100 * num_centroids + count);
        auto rows = RandomBlock(&rng, count, stride, n);
        auto centroids =
            RandomBlock(&rng, num_centroids, centroid_stride, n);
        const auto centroid = [&](size_t c) {
          return centroids.data() + c * centroid_stride;
        };
        // Unit centroids, so a row that copies one dots it highest.
        for (size_t c = 0; c < num_centroids; ++c) {
          NormalizeInPlace(centroid(c), n);
        }
        if (num_centroids >= 4) Copy(centroid(2), centroid(3), n);
        if (num_centroids >= 6) Copy(centroid(4), centroid(5), n);
        for (size_t r = 1; r < std::min<size_t>(count, 3); ++r) {
          Copy(centroid(std::min<size_t>(2, num_centroids - 1)),
               rows.data() + r * stride, n);
        }
        std::vector<uint32_t> got(count, 0xFFFFFFFFu);
        std::vector<float> got_dot(count, -1.0f);
        NearestCentroidDotBatch(rows.data(), count, stride, centroids.data(),
                                num_centroids, centroid_stride, n, got.data(),
                                got_dot.data());
        std::vector<float> dots(num_centroids);
        for (size_t r = 0; r < count; ++r) {
          const float* row = rows.data() + r * stride;
          const uint32_t want = DotBatchArgmax(row, centroids.data(),
                                               num_centroids,
                                               centroid_stride, n);
          DotBatch(row, centroids.data(), num_centroids, centroid_stride, n,
                   dots.data());
          const std::string where =
              "n=" + std::to_string(n) +
              " centroids=" + std::to_string(num_centroids) +
              " count=" + std::to_string(count) + " row " +
              std::to_string(r);
          EXPECT_EQ(got[r], want) << where;
          EXPECT_EQ(FloatBits(got_dot[r]), FloatBits(dots[want])) << where;
        }
        if (num_centroids >= 4 && count >= 2) {
          EXPECT_EQ(got[1], 2u) << "n=" << n << " count=" << count;
        }
      }
    }
  }
  // Without best_dot the assignment is the same.
  Rng rng(7);
  const auto rows = RandomBlock(&rng, 9, 30, 30);
  const auto centroids = RandomBlock(&rng, 7, 30, 30);
  std::vector<uint32_t> got(9, 0xFFFFFFFFu);
  NearestCentroidDotBatch(rows.data(), 9, 30, centroids.data(), 7, 30, 30,
                          got.data());
  for (size_t r = 0; r < 9; ++r) {
    EXPECT_EQ(got[r], DotBatchArgmax(rows.data() + r * 30, centroids.data(),
                                     7, 30, 30))
        << "row " << r;
  }
}

TEST(KernelsTest, NearestCentroidDotBatchBreaksTiesPerLaneInsideAQuad) {
  // Centroids {a, b, b, b, e}: the three copies of b tie exactly. One quad
  // of rows {a, b, b, e} has lanes whose winners differ and two lanes that
  // tie — each lane must keep its own lowest-index winner.
  const size_t n = 37, num_centroids = 5;
  Rng rng(23);
  auto centroids = RandomBlock(&rng, num_centroids, n, n);
  Copy(centroids.data() + 1 * n, centroids.data() + 2 * n, n);
  Copy(centroids.data() + 1 * n, centroids.data() + 3 * n, n);
  std::vector<float> rows(4 * n);
  const size_t source[4] = {0, 1, 1, 4};
  for (size_t r = 0; r < 4; ++r) {
    Copy(centroids.data() + source[r] * n, rows.data() + r * n, n);
  }
  std::vector<uint32_t> got(4, 0xFFFFFFFFu);
  NearestCentroidDotBatch(rows.data(), 4, n, centroids.data(), num_centroids,
                          n, n, got.data());
  EXPECT_EQ(got, (std::vector<uint32_t>{0, 1, 1, 4}));
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(got[r], DotBatchArgmax(rows.data() + r * n, centroids.data(),
                                     num_centroids, n, n));
  }
}


/// An int8 query and 4-bit code rows over the whole nibble range: any
/// code byte (nibbles 0 and 15 included, though the quantizer writes only
/// 1..15) and query entries in [-127, 127].
struct CodeRows {
  std::vector<int8_t> q;
  std::vector<uint8_t> codes;
  int32_t bias = 0;
  CodeQuery query() const { return {q.data(), bias}; }
};

CodeRows RandomCodeRows(uint64_t seed, size_t row_bytes, size_t count) {
  Rng rng(seed);
  CodeRows r;
  r.q.resize(2 * row_bytes);
  r.codes.resize(count * row_bytes);
  for (int8_t& x : r.q) {
    x = static_cast<int8_t>(static_cast<int>(rng.UniformInt(255)) - 127);
    r.bias += 8 * x;
  }
  for (uint8_t& c : r.codes) c = static_cast<uint8_t>(rng.UniformInt(256));
  return r;
}

/// The documented layout, read one dim at a time: Σ_i q[i]·nibble(i) − bias
/// with dim i's nibble found through CodeByteOf/CodeShiftOf.
int32_t OracleCodeDot(const CodeRows& r, size_t row, size_t row_bytes) {
  const uint8_t* code = r.codes.data() + row * row_bytes;
  int64_t dot = -int64_t{r.bias};
  for (size_t i = 0; i < 2 * row_bytes; ++i) {
    dot += int64_t{r.q[i]} * ((code[CodeByteOf(i)] >> CodeShiftOf(i)) & 15);
  }
  return static_cast<int32_t>(dot);
}

/// Row widths: one to eight 32-byte blocks, across the AVX2 form's
/// four-block int16 runs (64 bytes is the MARS row at dim 128).
constexpr size_t kCodeRowBytes[] = {32, 64, 96, 128, 160, 256};

TEST(KernelsTest, CodeDotRowsAvx2MatchesScalar) {
  // The generic row dot follows the documented nibble layout, and the AVX2
  // quad and single-row forms equal it bit for bit: random rows, then the
  // extremes — every nibble 15 against a query of +127 or -127, the
  // largest int16 run the pair sums can reach, and every nibble 0.
  for (const size_t row_bytes : kCodeRowBytes) {
    SCOPED_TRACE("row_bytes " + std::to_string(row_bytes));
    std::vector<CodeRows> cases = {RandomCodeRows(row_bytes, row_bytes, 4)};
    for (const int q : {127, -127}) {
      for (const uint8_t fill : {uint8_t{0xFF}, uint8_t{0x00}, uint8_t{0xF0},
                                 uint8_t{0x0F}}) {
        CodeRows r;
        r.q.assign(2 * row_bytes, static_cast<int8_t>(q));
        r.bias = 8 * q * static_cast<int32_t>(2 * row_bytes);
        r.codes.assign(4 * row_bytes, fill);
        cases.push_back(std::move(r));
      }
    }
    for (const CodeRows& r : cases) {
      for (size_t j = 0; j < 4; ++j) {
        EXPECT_EQ(kernels_detail::CodeDotRowGeneric(
                      r.q.data(), r.codes.data() + j * row_bytes, row_bytes) -
                      r.bias,
                  OracleCodeDot(r, j, row_bytes))
            << "row " << j;
      }
#if MARS_KERNELS_HAVE_AVX2
      if (!kernels_detail::HasAvx2Fma()) continue;
      int32_t got[4];
      _mm_storeu_si128(reinterpret_cast<__m128i*>(got),
                       kernels_detail::CodeDotRowsAvx2X4(
                           r.q.data(), r.codes.data(), row_bytes));
      for (size_t j = 0; j < 4; ++j) {
        const int32_t want = kernels_detail::CodeDotRowGeneric(
            r.q.data(), r.codes.data() + j * row_bytes, row_bytes);
        EXPECT_EQ(got[j], want) << "row " << j;
        EXPECT_EQ(kernels_detail::CodeDotRowAvx2(
                      r.q.data(), r.codes.data() + j * row_bytes, row_bytes),
                  want)
            << "row " << j;
      }
#endif
    }
  }
  // The all-15 row against +127 sums 2·row_bytes·127·15 before the bias.
  CodeRows top;
  top.q.assign(512, 127);
  top.codes.assign(256, 0xFF);
  EXPECT_EQ(kernels_detail::CodeDotRowGeneric(top.q.data(), top.codes.data(),
                                              256),
            512 * 127 * 15);
}

/// The scan twins by name: the dispatched entry point and each twin this
/// host can run.
std::vector<std::pair<const char*, decltype(&CodeScoresAtLeast)>>
CodeScanTwins() {
  std::vector<std::pair<const char*, decltype(&CodeScoresAtLeast)>> twins = {
      {"dispatched", &CodeScoresAtLeast},
      {"generic", &kernels_detail::CodeScoresAtLeastGeneric}};
#if MARS_KERNELS_HAVE_AVX2
  if (kernels_detail::HasAvx2Fma()) {
    twins.push_back({"avx2", &kernels_detail::CodeScoresAtLeastAvx2});
  }
#endif
  return twins;
}

TEST(KernelsTest, CodeScoresAtLeastMatchesPerRowIncludingTail) {
  // Every row whose scale·(dot − bias) reaches the threshold, in row
  // order, with the oracle score's bits — for every twin, at every count
  // mod 4 (quads and the one-by-one tail), and at a threshold that sits
  // exactly on one row's score.
  for (const size_t row_bytes : kCodeRowBytes) {
    for (const size_t count : {1ul, 2ul, 3ul, 20ul, 21ul, 22ul, 23ul}) {
      SCOPED_TRACE("row_bytes " + std::to_string(row_bytes) + " count " +
                   std::to_string(count));
      const CodeRows r = RandomCodeRows(100 + row_bytes + count, row_bytes,
                                        count);
      Rng rng(row_bytes + count);
      std::vector<float> scales(count), want(count);
      for (size_t v = 0; v < count; ++v) {
        scales[v] = static_cast<float>(rng.Uniform()) * 1e-3f;
        want[v] = scales[v] *
                  static_cast<float>(OracleCodeDot(r, v, row_bytes));
      }
      std::vector<float> sorted = want;
      std::sort(sorted.begin(), sorted.end());
      for (const auto& [name, scan] : CodeScanTwins()) {
        for (const float threshold :
             {-std::numeric_limits<float>::infinity(), sorted[count / 2],
              sorted[count - 1], std::numeric_limits<float>::infinity()}) {
          SCOPED_TRACE(std::string(name) + " threshold " +
                       std::to_string(threshold));
          std::vector<uint32_t> hits(count);
          std::vector<float> hit_scores(count);
          const size_t n =
              scan(r.query(), r.codes.data(), scales.data(), count, row_bytes,
                   threshold, hits.data(), hit_scores.data());
          size_t expect = 0;
          for (size_t v = 0; v < count; ++v) {
            if (!(want[v] >= threshold)) continue;
            ASSERT_LT(expect, n);
            EXPECT_EQ(hits[expect], v);
            EXPECT_EQ(hit_scores[expect], want[v]) << "row " << v;
            ++expect;
          }
          EXPECT_EQ(n, expect);
        }
      }
    }
  }
}

TEST(KernelsTest, CodeScoresAtLeastPairMatchesTwoSingleScans) {
  // Two queries over one block, each code row loaded once: per query the
  // same rows and score bits as its own CodeScoresAtLeast call, at every
  // count mod 4.
  for (const size_t row_bytes : kCodeRowBytes) {
    for (const size_t count : {1ul, 2ul, 3ul, 20ul, 21ul, 22ul, 23ul}) {
      SCOPED_TRACE("row_bytes " + std::to_string(row_bytes) + " count " +
                   std::to_string(count));
      const CodeRows a = RandomCodeRows(200 + row_bytes + count, row_bytes,
                                        count);
      const CodeRows b = RandomCodeRows(300 + row_bytes + count, row_bytes, 0);
      Rng rng(row_bytes + count + 7);
      std::vector<float> scales(count);
      for (float& x : scales) x = static_cast<float>(rng.Uniform()) * 1e-3f;
      const float threshold[2] = {-std::numeric_limits<float>::infinity(),
                                  0.0f};
      const CodeQuery q[2] = {a.query(), b.query()};
      std::vector<uint32_t> hits0(count), hits1(count), want_hits(count);
      std::vector<float> scores0(count), scores1(count), want_scores(count);
      uint32_t* const hits[2] = {hits0.data(), hits1.data()};
      float* const scores[2] = {scores0.data(), scores1.data()};
      size_t n[2];
      CodeScoresAtLeastPair(q, a.codes.data(), scales.data(), count,
                            row_bytes, threshold, hits, scores, n);
      for (size_t k = 0; k < 2; ++k) {
        const size_t want_n = kernels_detail::CodeScoresAtLeastGeneric(
            q[k], a.codes.data(), scales.data(), count, row_bytes,
            threshold[k], want_hits.data(), want_scores.data());
        ASSERT_EQ(n[k], want_n) << "query " << k;
        for (size_t i = 0; i < want_n; ++i) {
          EXPECT_EQ(hits[k][i], want_hits[i]);
          EXPECT_EQ(scores[k][i], want_scores[i]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace mars
