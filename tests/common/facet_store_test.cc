#include "common/facet_store.h"

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace mars {
namespace {

TEST(FacetStoreTest, ShapeAndStride) {
  FacetStore store(10, 3, 12);
  EXPECT_EQ(store.num_entities(), 10u);
  EXPECT_EQ(store.num_facets(), 3u);
  EXPECT_EQ(store.dim(), 12u);
  // 12 floats round up to one 64-byte line (16 floats).
  EXPECT_EQ(store.row_stride(), 16u);
  EXPECT_EQ(store.entity_stride(), 48u);
  EXPECT_FALSE(store.empty());
  EXPECT_TRUE(FacetStore().empty());
}

TEST(FacetStoreTest, ExactMultipleNeedsNoPadding) {
  FacetStore store(4, 2, 32);
  EXPECT_EQ(store.row_stride(), 32u);
}

TEST(FacetStoreTest, RowsAreCacheLineAligned) {
  FacetStore store(7, 3, 20);
  for (size_t e = 0; e < 7; ++e) {
    for (size_t k = 0; k < 3; ++k) {
      const auto addr = reinterpret_cast<uintptr_t>(store.Row(e, k));
      EXPECT_EQ(addr % FacetStore::kRowAlignBytes, 0u)
          << "entity " << e << " facet " << k;
    }
  }
}

TEST(FacetStoreTest, EntityBlockIsContiguousOverFacets) {
  FacetStore store(5, 4, 8);
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(store.Row(2, k), store.EntityBlock(2) + k * store.row_stride());
  }
  // Adjacent entities are adjacent in memory.
  EXPECT_EQ(store.EntityBlock(3), store.EntityBlock(2) + store.entity_stride());
}

TEST(FacetStoreTest, WritesDoNotAlias) {
  FacetStore store(3, 2, 5);
  for (size_t e = 0; e < 3; ++e) {
    for (size_t k = 0; k < 2; ++k) {
      for (size_t i = 0; i < 5; ++i) {
        store.Row(e, k)[i] = static_cast<float>(100 * e + 10 * k + i);
      }
    }
  }
  for (size_t e = 0; e < 3; ++e) {
    for (size_t k = 0; k < 2; ++k) {
      for (size_t i = 0; i < 5; ++i) {
        EXPECT_FLOAT_EQ(store.Row(e, k)[i],
                        static_cast<float>(100 * e + 10 * k + i));
      }
    }
  }
}

TEST(FacetStoreTest, PaddingStartsZeroed) {
  FacetStore store(2, 2, 5);
  ASSERT_GT(store.row_stride(), 5u);
  for (size_t i = 5; i < store.row_stride(); ++i) {
    EXPECT_FLOAT_EQ(store.Row(1, 1)[i], 0.0f);
  }
}

TEST(FacetStoreTest, CopyEntityToStripsPadding) {
  FacetStore store(2, 3, 5);
  Rng rng(1);
  for (size_t k = 0; k < 3; ++k) {
    for (size_t i = 0; i < 5; ++i) {
      store.Row(1, k)[i] = static_cast<float>(rng.Normal());
    }
  }
  std::vector<float> dense(3 * 5, -1.0f);
  store.CopyEntityTo(1, dense.data());
  for (size_t k = 0; k < 3; ++k) {
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_FLOAT_EQ(dense[k * 5 + i], store.Row(1, k)[i]);
    }
  }
}

TEST(FacetStoreTest, CopyEntityToUnpaddedFastPath) {
  FacetStore store(2, 2, 16);
  ASSERT_EQ(store.row_stride(), 16u);
  for (size_t k = 0; k < 2; ++k) {
    for (size_t i = 0; i < 16; ++i) {
      store.Row(0, k)[i] = static_cast<float>(k * 16 + i);
    }
  }
  std::vector<float> dense(2 * 16);
  store.CopyEntityTo(0, dense.data());
  for (size_t j = 0; j < 32; ++j) {
    EXPECT_FLOAT_EQ(dense[j], static_cast<float>(j));
  }
}

TEST(FacetStoreTest, FillAndCopySemantics) {
  FacetStore store(3, 2, 6);
  store.Fill(2.5f);
  EXPECT_FLOAT_EQ(store.Row(2, 1)[5], 2.5f);
  FacetStore copy = store;  // value semantics
  copy.Row(2, 1)[5] = -1.0f;
  EXPECT_FLOAT_EQ(store.Row(2, 1)[5], 2.5f);
  EXPECT_FLOAT_EQ(copy.Row(2, 1)[5], -1.0f);
}

// An owned copy of an owned, a borrowed and an empty store: each copy owns
// its bytes and holds the source's values.
TEST(FacetStoreOwnedCopyTest, CopiesOwnedBorrowedAndEmptyStores) {
  FacetStore owned(37, 3, 9);
  Rng rng(1);
  for (size_t e = 0; e < 37; ++e) {
    for (size_t k = 0; k < 3; ++k) {
      float* row = owned.Row(e, k);
      for (size_t i = 0; i < 9; ++i) {
        row[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
      }
    }
  }
  const FacetStore borrowed = FacetStore::BorrowConst(
      owned.EntityBlock(0), 37, 3, 9, owned.row_stride());
  ASSERT_TRUE(borrowed.borrowed());

  const FacetStore* const sources[] = {&owned, &borrowed};
  for (const FacetStore* src : sources) {
    const FacetStore copy = src->OwnedCopy();
    EXPECT_FALSE(copy.borrowed());
    ASSERT_EQ(copy.num_entities(), 37u);
    ASSERT_EQ(copy.num_facets(), 3u);
    ASSERT_EQ(copy.dim(), 9u);
    ASSERT_EQ(copy.row_stride(), src->row_stride());
    EXPECT_NE(copy.EntityBlock(0), src->EntityBlock(0));
    for (size_t e = 0; e < 37; ++e) {
      for (size_t k = 0; k < 3; ++k) {
        for (size_t i = 0; i < 9; ++i) {
          ASSERT_EQ(copy.Row(e, k)[i], src->Row(e, k)[i]);
        }
      }
    }
  }

  const FacetStore empty_copy = FacetStore().OwnedCopy();
  EXPECT_TRUE(empty_copy.empty());
  EXPECT_FALSE(empty_copy.borrowed());
}

TEST(ShardViewTest, ShardRangeTilesExactly) {
  // Non-divisible: 10 entities over 4 shards → 3/3/2/2.
  EXPECT_EQ(FacetStore::ShardRange(10, 0, 4), (std::pair<size_t, size_t>{0, 3}));
  EXPECT_EQ(FacetStore::ShardRange(10, 1, 4), (std::pair<size_t, size_t>{3, 6}));
  EXPECT_EQ(FacetStore::ShardRange(10, 2, 4), (std::pair<size_t, size_t>{6, 8}));
  EXPECT_EQ(FacetStore::ShardRange(10, 3, 4), (std::pair<size_t, size_t>{8, 10}));
  // Divisible.
  EXPECT_EQ(FacetStore::ShardRange(8, 1, 4), (std::pair<size_t, size_t>{2, 4}));
  // More shards than entities: trailing shards are empty, still tiling.
  size_t covered = 0;
  for (size_t s = 0; s < 7; ++s) {
    const auto [b, e] = FacetStore::ShardRange(3, s, 7);
    EXPECT_EQ(b, covered);
    covered = e;
  }
  EXPECT_EQ(covered, 3u);
  // Single shard covers everything.
  EXPECT_EQ(FacetStore::ShardRange(5, 0, 1), (std::pair<size_t, size_t>{0, 5}));
}

TEST(ShardViewTest, ShardOfMatchesShardRangeBoundaries) {
  const size_t n = 103, shards = 8;
  for (size_t s = 0; s < shards; ++s) {
    const auto [b, e] = FacetStore::ShardRange(n, s, shards);
    if (b == e) continue;
    EXPECT_EQ(FacetStore::ShardOf(n, b, shards), s);
    EXPECT_EQ(FacetStore::ShardOf(n, e - 1, shards), s);
  }
  EXPECT_EQ(FacetStore::ShardOf(1, 0, 1), 0u);
}

TEST(ShardViewTest, ShardBasesAreCacheLineAligned) {
  // dim 9 pads to a 16-float row stride; any shard boundary must still land
  // on a 64-byte line so disjoint shards never share a cache line.
  FacetStore store(23, 3, 9);
  for (size_t num_shards : {1u, 2u, 3u, 5u, 8u, 23u}) {
    for (size_t s = 0; s < num_shards; ++s) {
      const auto [begin, end] = FacetStore::ShardRange(23, s, num_shards);
      if (begin == end) continue;
      EXPECT_EQ(reinterpret_cast<uintptr_t>(store.EntityBlock(begin)) %
                    FacetStore::kRowAlignBytes,
                0u)
          << "shard " << s << "/" << num_shards;
    }
  }
}

// Workers writing disjoint ShardRange ranges concurrently must never corrupt
// a neighboring shard's rows — the ownership model behind Hogwild-by-shard.
TEST(ShardViewTest, DisjointShardWritesDoNotCorruptNeighbors) {
  constexpr size_t kEntities = 257;  // prime: uneven shard boundaries
  constexpr size_t kFacets = 2;
  constexpr size_t kDim = 7;
  constexpr size_t kShards = 8;
  constexpr int kRounds = 50;
  FacetStore store(kEntities, kFacets, kDim);

  std::vector<std::thread> threads;
  threads.reserve(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    threads.emplace_back([&store, s] {
      const auto [begin, end] = FacetStore::ShardRange(kEntities, s, kShards);
      for (int round = 0; round < kRounds; ++round) {
        for (size_t e = begin; e < end; ++e) {
          for (size_t k = 0; k < kFacets; ++k) {
            float* row = store.Row(e, k);
            for (size_t i = 0; i < kDim; ++i) {
              row[i] = static_cast<float>(1000 * s + 10 * k + i) +
                       static_cast<float>(round);
            }
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  for (size_t s = 0; s < kShards; ++s) {
    const auto [begin, end] = FacetStore::ShardRange(kEntities, s, kShards);
    for (size_t e = begin; e < end; ++e) {
      for (size_t k = 0; k < kFacets; ++k) {
        const float* row = store.Row(e, k);
        for (size_t i = 0; i < kDim; ++i) {
          ASSERT_EQ(row[i], static_cast<float>(1000 * s + 10 * k + i) +
                                static_cast<float>(kRounds - 1))
              << "entity " << e << " facet " << k << " dim " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mars
