// SphericalIvfIndex unit tests: list/assignment invariants, probe
// coverage, build determinism (serial == parallel), and the incremental
// Rebuilt pinning contract (reassigning only the dirty shards gives
// bit-identically the same index as reassigning everything, because the
// centroids are reused).
#include "ann/ivf_index.h"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "ann/candidate_index.h"
#include "common/facet_store.h"
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
  // want-widths the serving coalescer produces (exclusion-widened
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
