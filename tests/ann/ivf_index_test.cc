// SphericalIvfIndex unit tests: list/assignment invariants, probe
// coverage, build determinism (serial == parallel), and the incremental
// Rebuilt pinning contract (reassigning only the dirty shards gives
// bit-identically the same index as reassigning everything, because the
// centroids are reused).
#include "ann/ivf_index.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ann/candidate_index.h"
#include "common/crc32.h"
#include "common/facet_store.h"
#include "common/kernels.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/vec.h"
#include "eval/scorer.h"

namespace mars {
namespace {

/// Minimal dot-geometry oracle: dense user/item tables, Score == dot.
/// PerturbItems rewrites a contiguous id range, the shape of a dirty
/// WriteTracker shard.
class DotScorer : public ItemScorer {
 public:
  DotScorer(size_t users, size_t items, size_t dim, uint64_t seed)
      : dim_(dim), user_(users * dim), item_(items * dim) {
    Rng rng(seed);
    for (auto& x : user_) x = static_cast<float>(rng.Normal());
    for (auto& x : item_) x = static_cast<float>(rng.Normal());
  }

  float Score(UserId u, ItemId v) const override {
    return Dot(user_.data() + u * dim_, item_.data() + v * dim_, dim_);
  }
  size_t index_dim() const override { return dim_; }
  void CopyIndexVectors(ItemId begin, ItemId end, float* out) const override {
    Copy(item_.data() + begin * dim_, out, (end - begin) * dim_);
  }
  void WriteIndexQuery(UserId u, float* out) const override {
    Copy(user_.data() + u * dim_, out, dim_);
  }

  void SetEntry(ItemId v, size_t i, float x) { item_[v * dim_ + i] = x; }

  void PerturbItems(ItemId begin, ItemId end, uint64_t seed) {
    Rng rng(seed);
    for (size_t i = begin * dim_; i < end * dim_; ++i) {
      item_[i] = static_cast<float>(rng.Normal());
    }
  }

 private:
  size_t dim_;
  std::vector<float> user_, item_;
};

void ExpectSameIndex(const SphericalIvfIndex& a, const SphericalIvfIndex& b) {
  ASSERT_EQ(a.num_items(), b.num_items());
  ASSERT_EQ(a.num_centroids(), b.num_centroids());
  EXPECT_EQ(a.nprobe(), b.nprobe());
  const auto aa = a.assignments();
  const auto ab = b.assignments();
  ASSERT_EQ(aa.size(), ab.size());
  EXPECT_TRUE(std::equal(aa.begin(), aa.end(), ab.begin()));
  for (size_t c = 0; c < a.num_centroids(); ++c) {
    const auto la = a.List(c);
    const auto lb = b.List(c);
    ASSERT_EQ(la.size(), lb.size()) << "list " << c;
    EXPECT_TRUE(std::equal(la.begin(), la.end(), lb.begin())) << "list " << c;
  }
  const auto ca = a.centroids();
  const auto cb = b.centroids();
  ASSERT_EQ(ca.size(), cb.size());
  EXPECT_TRUE(std::equal(ca.begin(), ca.end(), cb.begin()));
  const auto qa = a.codes();
  const auto qb = b.codes();
  ASSERT_EQ(qa.size(), a.num_items() * SphericalIvfIndex::CodeBytes(a.dim()));
  EXPECT_TRUE(std::equal(qa.begin(), qa.end(), qb.begin(), qb.end()));
  const auto sa = a.scales();
  const auto sb = b.scales();
  EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin(), sb.end()));
}

TEST(SphericalIvfIndexTest, ListsPartitionCatalogAscending) {
  const size_t kItems = 500, kDim = 8;
  DotScorer model(10, kItems, kDim, 1);
  const auto idx =
      SphericalIvfIndex::Build(model, kItems, AnnIndexOptions{}, nullptr);
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->num_items(), kItems);
  EXPECT_EQ(idx->dim(), kDim);
  // Auto centroid count ~ sqrt(N), auto nprobe in [2, ncent].
  EXPECT_GE(idx->num_centroids(), 8u);
  EXPECT_LE(idx->num_centroids(), kItems);
  EXPECT_GE(idx->nprobe(), 1u);
  EXPECT_LE(idx->nprobe(), idx->num_centroids());

  std::vector<int> seen(kItems, 0);
  size_t total = 0;
  for (size_t c = 0; c < idx->num_centroids(); ++c) {
    const auto list = idx->List(c);
    total += list.size();
    for (size_t i = 0; i < list.size(); ++i) {
      ASSERT_LT(list[i], kItems);
      ++seen[list[i]];
      EXPECT_EQ(idx->assignments()[list[i]], c);
      if (i > 0) EXPECT_LT(list[i - 1], list[i]);  // ascending within list
    }
  }
  EXPECT_EQ(total, kItems);
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                          [](int n) { return n == 1; }));
}

TEST(SphericalIvfIndexTest, ProbeMeetsWantWithUniqueIds) {
  const size_t kItems = 400, kDim = 8;
  DotScorer model(10, kItems, kDim, 2);
  const auto idx =
      SphericalIvfIndex::Build(model, kItems, AnnIndexOptions{}, nullptr);
  std::vector<float> query(kDim);
  model.WriteIndexQuery(3, query.data());

  // want beyond the default nprobe lists' population: the probe must keep
  // extending into next-best lists instead of returning short.
  for (const size_t want : {1ul, 25ul, kItems / 2, kItems - 1}) {
    std::vector<ItemId> out;
    idx->Probe(query.data(), want, &out);
    EXPECT_GE(out.size(), want) << "want " << want;
    std::vector<ItemId> sorted = out;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
        << "duplicate candidate at want " << want;
    EXPECT_LT(sorted.back(), kItems);
  }

  // want >= catalog: the whole catalog, appended without clearing.
  std::vector<ItemId> out = {7};
  idx->Probe(query.data(), kItems, &out);
  ASSERT_EQ(out.size(), kItems + 1);
  EXPECT_EQ(out[0], 7u);
}

TEST(SphericalIvfIndexTest, FullProbeCloneCoversCatalogBelowWant) {
  const size_t kItems = 300, kDim = 6;
  DotScorer model(4, kItems, kDim, 3);
  const auto idx =
      SphericalIvfIndex::Build(model, kItems, AnnIndexOptions{}, nullptr);
  const auto full = idx->CloneWithNprobe(1u << 20);  // clamped to ncent
  EXPECT_EQ(full->nprobe(), full->num_centroids());
  std::vector<float> query(kDim);
  model.WriteIndexQuery(0, query.data());
  std::vector<ItemId> out;
  full->Probe(query.data(), /*want=*/5, &out);  // nprobe floor, not want
  EXPECT_EQ(out.size(), kItems);
}

TEST(SphericalIvfIndexTest, BuildIsDeterministicAndParallelMatchesSerial) {
  const size_t kItems = 600, kDim = 10;
  DotScorer model(10, kItems, kDim, 4);
  const auto a =
      SphericalIvfIndex::Build(model, kItems, AnnIndexOptions{}, nullptr);
  const auto b =
      SphericalIvfIndex::Build(model, kItems, AnnIndexOptions{}, nullptr);
  ExpectSameIndex(*a, *b);

  ThreadPool pool(3);
  const auto c =
      SphericalIvfIndex::Build(model, kItems, AnnIndexOptions{}, &pool);
  ExpectSameIndex(*a, *c);

  // The MARS index shape (K·d = 128 floats per row) with a sample and a
  // catalog that split into uneven, non-quad-aligned chunks: every Lloyd
  // assignment step really fans out, and the serial in-order centroid
  // update keeps the pooled build bit-identical to the serial one.
  const size_t kWideItems = 5003, kWideDim = 128;
  DotScorer wide(4, kWideItems, kWideDim, 6);
  AnnIndexOptions opts;
  opts.kmeans_sample = 4099;
  const auto serial = SphericalIvfIndex::Build(wide, kWideItems, opts, nullptr);
  ThreadPool pool4(4);
  const auto pooled = SphericalIvfIndex::Build(wide, kWideItems, opts, &pool4);
  ExpectSameIndex(*serial, *pooled);
}

/// CRC-32 of every array a built index holds, in a fixed order.
uint32_t IndexDigest(const SphericalIvfIndex& idx) {
  std::vector<uint8_t> bytes;
  const auto put = [&bytes](const auto& span) {
    const auto* p = reinterpret_cast<const uint8_t*>(span.data());
    bytes.insert(bytes.end(), p, p + span.size_bytes());
  };
  put(idx.centroids());
  put(idx.assignments());
  put(idx.offsets());
  put(idx.list_ids());
  put(idx.codes());
  put(idx.scales());
  return Crc32(bytes.data(), bytes.size());
}

TEST(SphericalIvfIndexTest, BuildGoldenDigestPinsIndexBytes) {
  // Serving, the .annidx file and every recall number rest on these
  // bytes, so a faster k-means or assignment must not change one. The
  // shapes: the MARS row width with a sample that is not the catalog; a
  // dim with an 8-float and a scalar tail; and a sample of 50 distinct
  // rows (six copies of one 100-row block, strided) under 250 centroids,
  // so most clusters come up empty and Lloyd reseeds them every step.
  DotScorer wide(4, 5003, 128, 6);
  AnnIndexOptions wide_opts;
  wide_opts.kmeans_sample = 4099;
  EXPECT_EQ(IndexDigest(*SphericalIvfIndex::Build(wide, 5003, wide_opts,
                                                  nullptr)),
            0xcd71611fu);

  DotScorer odd(4, 2311, 30, 12);
  AnnIndexOptions odd_opts;
  odd_opts.kmeans_sample = 1500;
  EXPECT_EQ(
      IndexDigest(*SphericalIvfIndex::Build(odd, 2311, odd_opts, nullptr)),
      0xadc927b2u);

  DotScorer dup(4, 600, 16, 13);
  for (ItemId b = 0; b < 6; ++b) dup.PerturbItems(b * 100, b * 100 + 100, 77);
  AnnIndexOptions dup_opts;
  dup_opts.num_centroids = 250;
  dup_opts.kmeans_sample = 300;
  EXPECT_EQ(
      IndexDigest(*SphericalIvfIndex::Build(dup, 600, dup_opts, nullptr)),
      0xe8f932f3u);
}

TEST(SphericalIvfIndexTest, BuildAssignsEachItemItsFullScanCentroid) {
  // The catalog assignment starts the k-means sample's items from their
  // last Lloyd answer and re-scores them against the centroids the final
  // update moved; that must equal a scan over every final centroid.
  // Items 300, 699 and 1500 are sample rows (of 1000 strided over 3001)
  // and item 10 is not; their infinite and NaN entries turn centroid dots
  // NaN, which the incremental steps must hand to the full scan.
  const size_t kItems = 3001, kDim = 24;
  DotScorer model(4, kItems, kDim, 14);
  model.SetEntry(300, 3, std::numeric_limits<float>::infinity());
  model.SetEntry(699, 0, -std::numeric_limits<float>::infinity());
  model.SetEntry(1500, 5, std::numeric_limits<float>::quiet_NaN());
  model.SetEntry(10, 7, std::numeric_limits<float>::infinity());
  AnnIndexOptions opts;
  opts.kmeans_sample = 1000;
  const auto idx = SphericalIvfIndex::Build(model, kItems, opts, nullptr);
  const auto assign = idx->assignments();
  std::vector<float> row(kDim);
  for (ItemId v = 0; v < kItems; ++v) {
    model.CopyIndexVectors(v, v + 1, row.data());
    uint32_t want = 0;
    NearestCentroidDotBatch(row.data(), 1, kDim, idx->centroids().data(),
                            idx->num_centroids(), kDim, kDim, &want);
    EXPECT_EQ(assign[v], want) << "item " << v;
  }
  // NaN centroids compare unequal to themselves: compare the bytes.
  ThreadPool pool(3);
  EXPECT_EQ(IndexDigest(*idx),
            IndexDigest(*SphericalIvfIndex::Build(model, kItems, opts, &pool)));
}

TEST(SphericalIvfIndexTest, RebuiltDirtyShardsEqualsRebuiltAll) {
  const size_t kItems = 480, kDim = 8, kShards = 8;
  DotScorer model(10, kItems, kDim, 5);
  const auto idx =
      SphericalIvfIndex::Build(model, kItems, AnnIndexOptions{}, nullptr);
  const std::vector<uint32_t> before(idx->assignments().begin(),
                                     idx->assignments().end());

  // Dirty exactly shards {1, 3}: rewrite their item ranges.
  const std::vector<size_t> dirty = {1, 3};
  for (const size_t s : dirty) {
    const auto [begin, end] = FacetStore::ShardRange(kItems, s, kShards);
    model.PerturbItems(begin, end, 100 + s);
  }

  std::vector<size_t> all_shards(kShards);
  for (size_t s = 0; s < kShards; ++s) all_shards[s] = s;
  const auto incremental = idx->Rebuilt(model, dirty, kShards, nullptr);
  const auto full = idx->Rebuilt(model, all_shards, kShards, nullptr);
  ASSERT_NE(incremental, nullptr);
  ASSERT_NE(full, nullptr);
  // Centroids are reused, clean rows are byte-identical, so reassigning
  // only the dirty shards pins the same index as reassigning everything.
  ExpectSameIndex(static_cast<const SphericalIvfIndex&>(*incremental),
                  static_cast<const SphericalIvfIndex&>(*full));
  // The dirty rows really moved the assignment (otherwise the pin above
  // is vacuous).
  const auto inc_assign =
      static_cast<const SphericalIvfIndex&>(*incremental).assignments();
  EXPECT_FALSE(std::equal(inc_assign.begin(), inc_assign.end(),
                          before.begin(), before.end()));
  // The receiver is untouched: in-flight probes keep the old epoch.
  const auto idx_assign = idx->assignments();
  EXPECT_TRUE(std::equal(idx_assign.begin(), idx_assign.end(),
                         before.begin(), before.end()));

  // Parallel reassignment of the dirty shards matches the serial one.
  ThreadPool pool(3);
  const auto parallel = idx->Rebuilt(model, dirty, kShards, &pool);
  ExpectSameIndex(static_cast<const SphericalIvfIndex&>(*incremental),
                  static_cast<const SphericalIvfIndex&>(*parallel));
}

TEST(SphericalIvfIndexTest, ProbeBatchMatchesSequentialProbes) {
  // The shared-centroid-scan override: per query, the batched candidate
  // set must be bit-identical to a solo Probe — including the mixed
  // want-widths a multi-user miss sweep produces (exclusion-widened
  // overfetch per user) and the want >= catalog full-append path.
  const size_t kItems = 400, kDim = 8, kQueries = 5;
  DotScorer model(kQueries, kItems, kDim, 8);
  const auto idx =
      SphericalIvfIndex::Build(model, kItems, AnnIndexOptions{}, nullptr);

  std::vector<float> queries(kQueries * kDim);
  for (size_t q = 0; q < kQueries; ++q) {
    model.WriteIndexQuery(static_cast<UserId>(q), queries.data() + q * kDim);
  }
  const std::vector<size_t> want = {1, 25, kItems / 2, kItems, 10};

  std::vector<std::vector<ItemId>> batch(kQueries);
  batch[2] = {7};  // appended, not cleared — same contract as Probe
  idx->ProbeBatch(queries.data(), kQueries, want.data(), &batch);
  for (size_t q = 0; q < kQueries; ++q) {
    std::vector<ItemId> solo;
    if (q == 2) solo = {7};
    idx->Probe(queries.data() + q * kDim, want[q], &solo);
    EXPECT_EQ(batch[q], solo) << "query " << q;
  }

  // Degenerate batch sizes: empty is a no-op, one query equals one Probe.
  std::vector<std::vector<ItemId>> none;
  idx->ProbeBatch(queries.data(), 0, want.data(), &none);
  std::vector<std::vector<ItemId>> one(1);
  idx->ProbeBatch(queries.data(), 1, want.data(), &one);
  std::vector<ItemId> solo0;
  idx->Probe(queries.data(), want[0], &solo0);
  EXPECT_EQ(one[0], solo0);
}

TEST(SphericalIvfIndexTest, CodesDequantizeWithinHalfAStepInListOrder) {
  // Position i of codes()/scales() is item list_ids()[i]: 4-bit codes in
  // [-7, 7] biased by 8, scale max|x|/7, so code·scale is within half a
  // step of x, the largest entry hits ±7, no nibble is 0, and every
  // padding dim holds code 0 (nibble 8). Dims 33 and 128 give one and two
  // 32-byte blocks, the first with both nibble halves partly padded.
  for (const size_t dim : {33ul, 128ul}) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    const size_t kItems = 300;
    DotScorer model(4, kItems, dim, 9);
    const auto idx =
        SphericalIvfIndex::Build(model, kItems, AnnIndexOptions{}, nullptr);
    const size_t row_bytes = SphericalIvfIndex::CodeBytes(dim);
    ASSERT_EQ(row_bytes, dim == 33 ? 32u : 64u);
    ASSERT_EQ(idx->codes().size(), kItems * row_bytes);
    ASSERT_EQ(idx->scales().size(), kItems);
    std::vector<float> x(dim);
    for (size_t i = 0; i < kItems; ++i) {
      const ItemId v = idx->list_ids()[i];
      model.CopyIndexVectors(v, v + 1, x.data());
      const float scale = idx->scales()[i];
      const uint8_t* code = idx->codes().data() + i * row_bytes;
      int max_code = 0;
      for (size_t j = 0; j < 2 * row_bytes; ++j) {
        const int nibble = (code[CodeByteOf(j)] >> CodeShiftOf(j)) & 15;
        ASSERT_GE(nibble, 1) << "item " << v << " dim " << j;
        if (j >= dim) {
          EXPECT_EQ(nibble, 8) << "item " << v << " padding dim " << j;
          continue;
        }
        EXPECT_LE(std::abs(static_cast<float>(nibble - 8) * scale - x[j]),
                  0.5f * scale * 1.001f)
            << "item " << v << " dim " << j;
        max_code = std::max(max_code, std::abs(nibble - 8));
      }
      EXPECT_EQ(max_code, 7) << "item " << v;
    }
  }
}

TEST(SphericalIvfIndexTest, ProbeReturnsTheWantBestAsAPrefix) {
  // Below a full probe the probe keeps the `want` best of the probed lists
  // under one total order (quantized score, then lower id), best first:
  // a smaller want is a prefix of a larger one over the same lists.
  const size_t kItems = 2000, kDim = 16;
  DotScorer model(8, kItems, kDim, 10);
  const auto idx =
      SphericalIvfIndex::Build(model, kItems, AnnIndexOptions{}, nullptr);
  ASSERT_LT(idx->nprobe(), idx->num_centroids());
  std::vector<float> query(kDim);
  for (UserId u = 0; u < 8; ++u) {
    model.WriteIndexQuery(u, query.data());
    std::vector<ItemId> small, large;
    idx->Probe(query.data(), 10, &small);
    idx->Probe(query.data(), 40, &large);
    ASSERT_EQ(small.size(), 10u);
    ASSERT_EQ(large.size(), 40u);
    EXPECT_TRUE(std::equal(small.begin(), small.end(), large.begin()))
        << "user " << u;
  }
}

TEST(SphericalIvfIndexTest, ProbeBatchSharingCodeRowsMatchesSoloProbes) {
  // Below a full probe a batch scans each list once for every query that
  // probes it, two queries per code-row load: an odd batch, lists probed
  // by one, two or three queries, a want beyond the probed lists'
  // population, and a full-probe want in the same batch must each return
  // exactly the solo probe's ids, in order — at dim 33 (one code block)
  // and dim 128 (two).
  const size_t kItems = 2000, kQueries = 7;
  for (const size_t dim : {33ul, 128ul}) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    DotScorer model(kQueries, kItems, dim, 11);
    const auto idx =
        SphericalIvfIndex::Build(model, kItems, AnnIndexOptions{}, nullptr);
    ASSERT_LT(idx->nprobe(), idx->num_centroids());
    std::vector<float> queries(kQueries * dim);
    for (size_t q = 0; q < kQueries; ++q) {
      model.WriteIndexQuery(static_cast<UserId>(q), queries.data() + q * dim);
    }
    const std::vector<size_t> want = {40, 40, 1, kItems - 10, 40, kItems, 7};
    std::vector<std::vector<ItemId>> batch(kQueries);
    idx->ProbeBatch(queries.data(), kQueries, want.data(), &batch);
    for (size_t q = 0; q < kQueries; ++q) {
      std::vector<ItemId> solo;
      idx->Probe(queries.data() + q * dim, want[q], &solo);
      EXPECT_EQ(batch[q], solo) << "query " << q;
    }
  }
}

TEST(SphericalIvfIndexTest, FactoryBuildsIvfForDotGeometry) {
  const size_t kItems = 120, kDim = 4;
  DotScorer model(4, kItems, kDim, 6);
  const auto idx = BuildCandidateIndex(model, kItems, AnnIndexOptions{},
                                       nullptr);
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->dim(), kDim);

  // Unindexable models (the ItemScorer default index_dim() == 0) get no
  // index: the serving layer keeps its exact sweep.
  class PlainScorer : public ItemScorer {
   public:
    float Score(UserId u, ItemId v) const override {
      return static_cast<float>(u + v);
    }
  };
  PlainScorer plain;
  EXPECT_EQ(BuildCandidateIndex(plain, kItems, AnnIndexOptions{}, nullptr),
            nullptr);
}

TEST(SphericalIvfIndexTest, ExplicitOptionsAreClampedToCatalog) {
  const size_t kItems = 40, kDim = 4;
  DotScorer model(4, kItems, kDim, 7);
  AnnIndexOptions options;
  options.num_centroids = 1000;  // > catalog
  options.nprobe = 1000;
  const auto idx = SphericalIvfIndex::Build(model, kItems, options, nullptr);
  EXPECT_EQ(idx->num_centroids(), kItems);
  EXPECT_EQ(idx->nprobe(), idx->num_centroids());
}

}  // namespace
}  // namespace mars
