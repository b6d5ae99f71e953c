// What PublishEpoch does to cached entries when item shards are dirty.
//
// A server whose misses take the exact sweep refreshes each entry in
// place, and drops it when the merge cannot prove exactness (the
// k-th-rank cutoff fell). A server whose misses probe the ANN index
// refreshes nothing: it drops every entry at publish without scoring, and
// each next query pays one lazy miss. Either way the next answer must be
// bit-identical to a cold server over the new snapshot.
//
// The oracle is a dot-product scorer whose perturbed copies rewrite only
// the dirty shard ranges, so the tracker contract ("clean rows byte
// identical") holds exactly. Copies share one call ledger, so a test can
// check that a publish scored nothing.
#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/facet_store.h"
#include "common/rng.h"
#include "common/vec.h"
#include "data/dataset.h"
#include "eval/scorer.h"
#include "serve/top_k_server.h"
#include "serve/write_tracker.h"

namespace mars {
namespace {

constexpr size_t kFullProbe = 1u << 20;
constexpr size_t kShards = 8;
constexpr size_t kUsers = 40, kItems = 240, kDim = 12;

/// Scoring and query calls of every copy of one CountingDotScorer.
struct CallLedger {
  std::atomic<uint64_t> queries{0};  // WriteIndexQuery
  std::atomic<uint64_t> scores{0};   // ScoreItems, ScoreItemRange(Multi)
};

/// Dot-geometry scorer with copyable snapshots: publishing a perturbed
/// *copy* keeps earlier snapshots immutable and clean rows byte-identical.
class CountingDotScorer : public ItemScorer {
 public:
  CountingDotScorer(uint64_t seed, std::shared_ptr<CallLedger> calls)
      : calls_(std::move(calls)), user_(kUsers * kDim), item_(kItems * kDim) {
    Rng rng(seed);
    for (auto& x : user_) x = static_cast<float>(rng.Normal());
    for (auto& x : item_) x = static_cast<float>(rng.Normal());
  }

  float Score(UserId u, ItemId v) const override {
    return Dot(user_.data() + u * kDim, item_.data() + v * kDim, kDim);
  }
  void ScoreItems(UserId u, std::span<const ItemId> items,
                  float* out) const override {
    calls_->scores.fetch_add(1, std::memory_order_relaxed);
    ItemScorer::ScoreItems(u, items, out);
  }
  void ScoreItemRange(UserId u, ItemId begin, ItemId end,
                      float* out) const override {
    calls_->scores.fetch_add(1, std::memory_order_relaxed);
    ItemScorer::ScoreItemRange(u, begin, end, out);
  }
  void ScoreItemRangeMulti(std::span<const UserId> users, ItemId begin,
                           ItemId end, float* const* out) const override {
    calls_->scores.fetch_add(1, std::memory_order_relaxed);
    ItemScorer::ScoreItemRangeMulti(users, begin, end, out);
  }
  size_t index_dim() const override { return kDim; }
  void CopyIndexVectors(ItemId begin, ItemId end, float* out) const override {
    std::copy(item_.begin() + begin * kDim, item_.begin() + end * kDim, out);
  }
  void WriteIndexQuery(UserId u, float* out) const override {
    calls_->queries.fetch_add(1, std::memory_order_relaxed);
    std::copy(user_.begin() + u * kDim, user_.begin() + (u + 1) * kDim, out);
  }

  /// A copy with the item rows of `dirty` shards redrawn, each of their
  /// items marked in `tracker`.
  std::shared_ptr<CountingDotScorer> Perturbed(
      const std::vector<size_t>& dirty, uint64_t seed,
      WriteTracker* tracker) const {
    auto next = std::make_shared<CountingDotScorer>(*this);
    for (const size_t s : dirty) {
      const auto [begin, end] = FacetStore::ShardRange(kItems, s, kShards);
      Rng rng(seed + s);
      for (size_t i = begin * kDim; i < end * kDim; ++i) {
        next->item_[i] = static_cast<float>(rng.Normal());
      }
      for (size_t v = begin; v < end; ++v) {
        tracker->MarkItem(static_cast<ItemId>(v));
      }
    }
    return next;
  }

 private:
  std::shared_ptr<CallLedger> calls_;
  std::vector<float> user_, item_;
};

TopKServerOptions Options(bool ann) {
  TopKServerOptions opts;
  opts.k = 7;
  opts.ann.enable = ann;
  opts.ann.index.nprobe = kFullProbe;
  opts.cache.item_shards = kShards;
  opts.cache.max_users = kUsers;
  return opts;
}

/// Every user's next answer from `server` equals a cold exact server's
/// over `snapshot`, bit for bit; `cached` is the from_cache each must have.
void ExpectColdAnswers(TopKServer* server,
                       std::shared_ptr<const ItemScorer> snapshot,
                       const std::vector<bool>& cached) {
  TopKServer cold(std::move(snapshot), kUsers, kItems, Options(false));
  for (UserId u = 0; u < kUsers; ++u) {
    const TopKResponse got = server->TopK(u);
    const TopKResponse want = cold.TopK(u);
    EXPECT_EQ(got.from_cache, cached[u]) << "user " << u;
    EXPECT_EQ(got.items, want.items) << "user " << u;
    EXPECT_EQ(got.scores, want.scores) << "user " << u;
  }
}

TEST(TopKServerInvalidation, RefreshDropsFollowCutoffContract) {
  // Exact-sweep server: dirtying 6 of 8 item shards pushes many old top-k
  // lists below their cutoff. Each entry is refreshed or dropped, the
  // drop path fires, and every next answer is the cold sweep's.
  auto base = std::make_shared<CountingDotScorer>(
      14, std::make_shared<CallLedger>());
  TopKServer server(std::shared_ptr<const ItemScorer>(base), kUsers, kItems,
                    Options(false));
  for (UserId u = 0; u < kUsers; ++u) server.TopK(u);

  WriteTracker tracker(kUsers, kItems, kShards);
  const auto next = base->Perturbed({0, 1, 2, 3, 4, 5}, 950, &tracker);
  server.PublishEpoch(next, &tracker);
  const TopKServerStats st = server.stats();
  EXPECT_GT(st.refresh_drops, 0u);
  EXPECT_GT(st.refreshed, 0u);
  EXPECT_EQ(st.refreshed + st.refresh_drops, kUsers);
  EXPECT_EQ(st.invalidated, st.refresh_drops);

  // Refreshed entries answer from the cache, dropped ones re-sweep.
  std::vector<bool> cached(kUsers);
  server.ForEachCached(
      [&](UserId u, std::span<const ItemId>, std::span<const float>) {
        cached[u] = true;
      });
  ExpectColdAnswers(&server, next, cached);
}

TEST(TopKServerAnnPublishTest, ItemDirtyPublishDropsWithoutScoring) {
  // ANN server at full probe: a publish that dirties a strict subset of
  // item shards drops every warmed entry and scores nothing; re-inserting
  // the dirty shards into the index reads only their index vectors.
  const auto calls = std::make_shared<CallLedger>();
  auto base = std::make_shared<CountingDotScorer>(11, calls);
  TopKServer server(std::shared_ptr<const ItemScorer>(base), kUsers, kItems,
                    Options(true));
  for (UserId u = 0; u < kUsers; ++u) server.TopK(u);
  ASSERT_EQ(server.stats().cached_users, kUsers);

  WriteTracker tracker(kUsers, kItems, kShards);
  const auto next = base->Perturbed({1, 3}, 900, &tracker);
  const uint64_t queries = calls->queries.load();
  const uint64_t scores = calls->scores.load();
  server.PublishEpoch(next, &tracker);
  EXPECT_EQ(calls->queries.load(), queries);
  EXPECT_EQ(calls->scores.load(), scores);

  const TopKServerStats st = server.stats();
  EXPECT_EQ(st.refreshed, 0u);
  EXPECT_EQ(st.refresh_drops, 0u);
  EXPECT_EQ(st.invalidated, kUsers);
  EXPECT_EQ(st.cached_users, 0u);

  ExpectColdAnswers(&server, next, std::vector<bool>(kUsers, false));
  const TopKServerStats after = server.stats();
  EXPECT_EQ(after.ann_probes, after.misses);
  EXPECT_EQ(after.exact_fallbacks, 0u);
}

TEST(TopKServerAnnPublishTest, UserOnlyPublishKeepsCleanUsersCached) {
  // With no item shard dirty there is nothing to drop for: only the
  // entries of dirty users go, and clean users keep their hits.
  auto base = std::make_shared<CountingDotScorer>(
      12, std::make_shared<CallLedger>());
  TopKServer server(std::shared_ptr<const ItemScorer>(base), kUsers, kItems,
                    Options(true));
  for (UserId u = 0; u < kUsers; ++u) server.TopK(u);

  WriteTracker tracker(kUsers, kItems, kShards);
  tracker.MarkUser(0);
  const size_t dirty_shard = tracker.UserShardOf(0);
  server.PublishEpoch(std::make_shared<CountingDotScorer>(*base), &tracker);

  std::vector<bool> cached(kUsers);
  size_t dropped = 0;
  for (UserId u = 0; u < kUsers; ++u) {
    cached[u] = tracker.UserShardOf(u) != dirty_shard;
    dropped += cached[u] ? 0 : 1;
  }
  ASSERT_GT(dropped, 0u);
  ASSERT_LT(dropped, kUsers);
  EXPECT_EQ(server.stats().invalidated, dropped);
  EXPECT_EQ(server.stats().refreshed, 0u);
  ExpectColdAnswers(&server, base, cached);
}

}  // namespace
}  // namespace mars
