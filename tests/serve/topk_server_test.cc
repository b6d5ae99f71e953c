#include "serve/top_k_server.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/facet_store.h"
#include "core/mar.h"
#include "core/mars.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "models/bpr.h"
#include "models/cml.h"
#include "models/lrml.h"
#include "models/metricf.h"
#include "models/recommender.h"
#include "models/sml.h"
#include "models/transcf.h"
#include "serve/write_tracker.h"

namespace mars {
namespace {

/// Brute-force reference: ScoreItems over the whole catalog, ranked
/// (score desc, id asc) — the ordering TopKServer pins.
std::pair<std::vector<ItemId>, std::vector<float>> BruteForceTopK(
    const ItemScorer& scorer, UserId u, size_t num_items, size_t k,
    const ImplicitDataset* exclude = nullptr) {
  std::vector<ItemId> ids;
  for (ItemId v = 0; v < num_items; ++v) {
    if (exclude != nullptr && exclude->HasInteraction(u, v)) continue;
    ids.push_back(v);
  }
  std::vector<float> scores(ids.size());
  scorer.ScoreItems(u, ids, scores.data());
  std::vector<std::pair<float, ItemId>> ranked(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) ranked[i] = {scores[i], ids[i]};
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  });
  ranked.resize(std::min(k, ranked.size()));
  std::vector<ItemId> top;
  std::vector<float> top_scores;
  for (const auto& [s, v] : ranked) {
    top.push_back(v);
    top_scores.push_back(s);
  }
  return {top, top_scores};
}

/// Deterministic synthetic scorer for cache-logic tests; `bias` simulates
/// a model whose weights moved.
class ToyScorer : public ItemScorer {
 public:
  explicit ToyScorer(float bias = 0.0f) : bias_(bias) {}
  float Score(UserId u, ItemId v) const override {
    return bias_ + static_cast<float>((v * 37 + u * 11) % 101);
  }

 private:
  float bias_;
};

std::shared_ptr<ImplicitDataset> SmallDataset(size_t users = 60,
                                              size_t items = 150) {
  SyntheticConfig cfg;
  cfg.num_users = users;
  cfg.num_items = items;
  cfg.target_interactions = users * 12;
  cfg.num_facets = 3;
  cfg.seed = 7;
  return GenerateSyntheticDataset(cfg);
}

TrainOptions QuickTrain() {
  TrainOptions options;
  options.epochs = 3;
  options.learning_rate = 0.1;
  options.seed = 42;
  return options;
}

void ExpectServerMatchesBruteForce(Recommender* model,
                                   const ImplicitDataset& data) {
  const size_t k = 7;
  TopKServerOptions opts;
  opts.k = k;
  TopKServer server(model, data.num_users(), data.num_items(), opts);
  for (UserId u = 0; u < 8; ++u) {
    const auto [want_items, want_scores] =
        BruteForceTopK(*model, u, data.num_items(), k);
    const TopKResponse got = server.TopK(u);
    ASSERT_EQ(got.items.size(), want_items.size()) << model->name();
    for (size_t i = 0; i < want_items.size(); ++i) {
      EXPECT_EQ(got.items[i], want_items[i])
          << model->name() << " user " << u << " rank " << i;
      EXPECT_EQ(got.scores[i], want_scores[i])
          << model->name() << " user " << u << " rank " << i;
    }
  }
}

TEST(TopKServerModelEquivalence, Mars) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 4;
  cfg.theta_init_nmf = false;
  Mars model(cfg);
  model.Fit(*data, QuickTrain());
  ExpectServerMatchesBruteForce(&model, *data);
}

TEST(TopKServerModelEquivalence, MarsSingleFacetCosinePath) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 1;
  cfg.theta_init_nmf = false;
  Mars model(cfg);
  model.Fit(*data, QuickTrain());
  // K = 1 sweeps through the same weighted facet dot as ScoreItems (unit
  // rows make it the cosine), so the served scores are bit-identical to
  // the brute-force oracle: no score tolerance.
  ExpectServerMatchesBruteForce(&model, *data);
}

TEST(TopKServerModelEquivalence, MarFree) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 3;
  cfg.theta_init_nmf = false;
  Mar model(cfg, FacetParam::kFree);
  model.Fit(*data, QuickTrain());
  ExpectServerMatchesBruteForce(&model, *data);
}

TEST(TopKServerModelEquivalence, MarProjected) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 3;
  cfg.theta_init_nmf = false;
  Mar model(cfg, FacetParam::kProjected);
  model.Fit(*data, QuickTrain());
  ExpectServerMatchesBruteForce(&model, *data);
}

TEST(TopKServerModelEquivalence, Bpr) {
  const auto data = SmallDataset();
  Bpr model(BprConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectServerMatchesBruteForce(&model, *data);
}

TEST(TopKServerModelEquivalence, Cml) {
  const auto data = SmallDataset();
  Cml model(CmlConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectServerMatchesBruteForce(&model, *data);
}

TEST(TopKServerModelEquivalence, Sml) {
  const auto data = SmallDataset();
  Sml model(SmlConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectServerMatchesBruteForce(&model, *data);
}

TEST(TopKServerModelEquivalence, MetricF) {
  const auto data = SmallDataset();
  MetricF model(MetricFConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectServerMatchesBruteForce(&model, *data);
}

TEST(TopKServerModelEquivalence, TransCf) {
  const auto data = SmallDataset();
  TransCf model(TransCfConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectServerMatchesBruteForce(&model, *data);
}

TEST(TopKServerModelEquivalence, Lrml) {
  const auto data = SmallDataset();
  Lrml model(LrmlConfig{.dim = 16, .memory_slots = 4});
  model.Fit(*data, QuickTrain());
  ExpectServerMatchesBruteForce(&model, *data);
}

TEST(TopKServerTest, KLargerThanCatalogReturnsWholeCatalogRanked) {
  ToyScorer scorer;
  TopKServerOptions opts;
  opts.k = 50;
  TopKServer server(&scorer, /*num_users=*/10, /*num_items=*/5, opts);
  const TopKResponse result = server.TopK(3);
  ASSERT_EQ(result.items.size(), 5u);
  const auto [want_items, want_scores] = BruteForceTopK(scorer, 3, 5, 50);
  EXPECT_EQ(result.items, want_items);
  EXPECT_EQ(result.scores, want_scores);
}

TEST(TopKServerTest, TiesBreakTowardSmallerItemId) {
  class ConstantScorer : public ItemScorer {
   public:
    float Score(UserId, ItemId) const override { return 1.0f; }
  };
  ConstantScorer scorer;
  TopKServerOptions opts;
  opts.k = 4;
  TopKServer server(&scorer, 2, 20, opts);
  const TopKResponse result = server.TopK(0);
  EXPECT_EQ(result.items, (std::vector<ItemId>{0, 1, 2, 3}));
}

/// The exact sweep scores the catalog in blocks of this many items
/// (kBatchBlockItems in top_k_server.cc). The block tests below span two
/// full blocks and a partial third one.
constexpr size_t kSweepBlock = 2048;
constexpr size_t kThreeBlockItems = 2 * kSweepBlock + 300;

/// Integer scores in [0, 65536) that look random across items and users
/// (a few ties, which the block-boundary tie test covers on purpose).
class HashScorer : public ItemScorer {
 public:
  float Score(UserId u, ItemId v) const override {
    uint64_t h = (uint64_t{u} << 32 | v) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 32;
    return static_cast<float>(h % 65536);
  }
};

TEST(TopKServerTest, ExactSweepAcrossBlocksMatchesBruteForce) {
  // Each user's two best items of every block are excluded, so every
  // block has holes exactly where the selection would otherwise look.
  // k = 40 draws about three answers per user from the partial block.
  HashScorer scorer;
  const size_t kUsers = 7, k = 40;
  std::vector<Interaction> log;
  for (UserId u = 0; u < kUsers; ++u) {
    for (size_t bb = 0; bb < kThreeBlockItems; bb += kSweepBlock) {
      const size_t be = std::min(kThreeBlockItems, bb + kSweepBlock);
      std::vector<std::pair<float, ItemId>> block;
      for (size_t v = bb; v < be; ++v) {
        block.emplace_back(scorer.Score(u, v), static_cast<ItemId>(v));
      }
      std::partial_sort(block.begin(), block.begin() + 2, block.end(),
                        [](const auto& a, const auto& b) {
                          return a.first > b.first ||
                                 (a.first == b.first && a.second < b.second);
                        });
      for (size_t i = 0; i < 2; ++i) log.push_back({u, block[i].second, 0});
    }
  }
  ImplicitDataset data(kUsers, kThreeBlockItems, std::move(log));
  TopKServerOptions opts;
  opts.k = k;
  opts.exclude_interactions = &data;
  opts.cache.max_users = 0;  // every TopK below sweeps
  TopKServer server(&scorer, kUsers, kThreeBlockItems, opts);

  std::vector<UserId> users(kUsers);
  for (UserId u = 0; u < kUsers; ++u) users[u] = u;
  const std::vector<TopKResponse> batch = server.TopKBatch(users);
  ASSERT_EQ(server.stats().batch_sweeps, 1u);
  std::vector<bool> block_served(3, false);
  for (UserId u = 0; u < kUsers; ++u) {
    const auto [want_items, want_scores] =
        BruteForceTopK(scorer, u, kThreeBlockItems, k, &data);
    ASSERT_EQ(want_items.size(), k);
    for (ItemId v : want_items) block_served[v / kSweepBlock] = true;
    const TopKResponse solo = server.TopK(u);
    EXPECT_EQ(solo.items, want_items) << "user " << u;
    EXPECT_EQ(solo.scores, want_scores) << "user " << u;
    EXPECT_EQ(batch[u].items, want_items) << "user " << u;
    EXPECT_EQ(batch[u].scores, want_scores) << "user " << u;
  }
  // The answers draw on every block, the partial last one included.
  EXPECT_EQ(block_served, std::vector<bool>(3, true));
}

TEST(TopKServerTest, TiesStraddlingBlockBoundariesBreakTowardSmallerIds) {
  // Sixteen items tie at the top score: eight around the first block
  // boundary (2044..2051) and eight around the second (4092..4099).
  class StraddleScorer : public ItemScorer {
   public:
    float Score(UserId, ItemId v) const override {
      const bool tied = (v + 4 >= kSweepBlock && v < kSweepBlock + 4) ||
                        (v + 4 >= 2 * kSweepBlock && v < 2 * kSweepBlock + 4);
      return tied ? 5.0f : static_cast<float>(v % 5);
    }
  };
  StraddleScorer scorer;
  std::vector<ItemId> tied;
  for (ItemId v = 2044; v < 2052; ++v) tied.push_back(v);
  for (ItemId v = 4092; v < 4100; ++v) tied.push_back(v);
  // k = 6 cuts the ties just past the 2048 boundary, k = 14 just past the
  // 4096 one.
  for (size_t k : {size_t{6}, size_t{14}}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    TopKServerOptions opts;
    opts.k = k;
    TopKServer server(&scorer, 3, kThreeBlockItems, opts);
    const std::vector<ItemId> want(tied.begin(), tied.begin() + k);
    const TopKResponse solo = server.TopK(0);
    EXPECT_EQ(solo.items, want);
    EXPECT_EQ(solo.scores, std::vector<float>(k, 5.0f));
    for (const TopKResponse& r : server.TopKBatch(std::vector<UserId>{1, 2})) {
      EXPECT_EQ(r.items, want);
    }
  }
}

TEST(TopKServerTest, SelectionThresholdCarriesAcrossBlocks) {
  // Block 0 scores v % 50, so it alone fills the selector past its
  // compaction point and sets a rejection threshold at score 49. Block 1
  // ties that score everywhere (larger ids: all rejected) except item
  // 3000, which beats it; the partial block 2 ties it at item 4100 and
  // ends with the best item of the catalog.
  class CarryScorer : public ItemScorer {
   public:
    float Score(UserId, ItemId v) const override {
      if (v < kSweepBlock) return static_cast<float>(v % 50);
      if (v < 2 * kSweepBlock) return v == 3000 ? 49.5f : 49.0f;
      if (v == kThreeBlockItems - 1) return 60.0f;
      return v == 4100 ? 49.0f : 0.0f;
    }
  };
  CarryScorer scorer;
  const size_t k = 10;
  TopKServerOptions opts;
  opts.k = k;
  TopKServer server(&scorer, 6, kThreeBlockItems, opts);
  const std::vector<ItemId> want_items = {
      static_cast<ItemId>(kThreeBlockItems - 1), 3000, 49, 99, 149, 199,
      249, 299, 349, 399};
  const std::vector<float> want_scores = {60.0f, 49.5f, 49.0f, 49.0f,
                                          49.0f, 49.0f, 49.0f, 49.0f,
                                          49.0f, 49.0f};
  const TopKResponse solo = server.TopK(0);
  EXPECT_EQ(solo.items, want_items);
  EXPECT_EQ(solo.scores, want_scores);
  EXPECT_EQ(solo.items, BruteForceTopK(scorer, 0, kThreeBlockItems, k).first);
  for (const TopKResponse& r :
       server.TopKBatch(std::vector<UserId>{1, 2, 3, 4, 5})) {
    EXPECT_EQ(r.items, want_items);
    EXPECT_EQ(r.scores, want_scores);
  }
}

TEST(TopKServerTest, ExcludesInteractedItemsAndServesZeroInteractionUsers) {
  // User 0 interacted with items {1, 3}; user 2 never interacted at all.
  std::vector<Interaction> log = {
      {0, 1, 0}, {0, 3, 1}, {1, 0, 0}, {1, 4, 1}};
  ImplicitDataset data(/*num_users=*/3, /*num_items=*/6, std::move(log));
  ToyScorer scorer;
  TopKServerOptions opts;
  opts.k = 6;
  opts.exclude_interactions = &data;
  TopKServer server(&scorer, data.num_users(), data.num_items(), opts);

  const TopKResponse seen = server.TopK(0);
  ASSERT_EQ(seen.items.size(), 4u);  // 6 items minus the 2 interacted
  for (ItemId v : seen.items) {
    EXPECT_FALSE(data.HasInteraction(0, v));
  }
  const auto [want, _] =
      BruteForceTopK(scorer, 0, data.num_items(), 6, &data);
  EXPECT_EQ(seen.items, want);

  // A user with zero interactions is served the full catalog.
  const TopKResponse cold = server.TopK(2);
  EXPECT_EQ(cold.items.size(), 6u);
  EXPECT_FALSE(cold.from_cache);
  EXPECT_TRUE(server.TopK(2).from_cache);
}

TEST(TopKServerTest, CachesAndCountsHits) {
  ToyScorer scorer;
  TopKServerOptions opts;
  opts.k = 3;
  TopKServer server(&scorer, 20, 30, opts);
  EXPECT_FALSE(server.TopK(5).from_cache);
  EXPECT_TRUE(server.TopK(5).from_cache);
  EXPECT_TRUE(server.TopK(5).from_cache);
  const TopKServerStats stats = server.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.cached_users, 1u);
}

TEST(TopKServerTest, LruEvictionBoundsTheCache) {
  ToyScorer scorer;
  TopKServerOptions opts;
  opts.k = 3;
  opts.cache.max_users = 2;
  opts.cache.stripes = 1;  // one global LRU — the legacy eviction order
  TopKServer server(&scorer, 20, 30, opts);
  server.TopK(0);
  server.TopK(1);
  server.TopK(2);  // evicts user 0 (least recently used)
  EXPECT_EQ(server.stats().evictions, 1u);
  EXPECT_EQ(server.stats().cached_users, 2u);
  EXPECT_TRUE(server.TopK(2).from_cache);
  EXPECT_TRUE(server.TopK(1).from_cache);
  EXPECT_FALSE(server.TopK(0).from_cache);  // was evicted
}

TEST(TopKServerTest, StripedCacheDistributesTheBoundByUserShard) {
  // 4 stripes over 40 users: users 0-9 → stripe 0, 10-19 → stripe 1, …
  // Each stripe runs its own LRU over its share of the global bound, so
  // hammering one stripe never evicts another stripe's users.
  ToyScorer scorer;
  TopKServerOptions opts;
  opts.k = 3;
  opts.cache.max_users = 4;
  opts.cache.stripes = 4;
  TopKServer server(&scorer, 40, 30, opts);
  ASSERT_EQ(server.num_cache_stripes(), 4u);
  server.TopK(35);  // stripe 3
  server.TopK(0);   // stripe 0
  server.TopK(1);   // stripe 0 — evicts user 0 (stripe 0's share is 1)
  EXPECT_EQ(server.stats().evictions, 1u);
  EXPECT_TRUE(server.TopK(35).from_cache);  // other stripe untouched
  EXPECT_TRUE(server.TopK(1).from_cache);
  EXPECT_FALSE(server.TopK(0).from_cache);
}

TEST(TopKServerTest, OneSlotStripeEvictsAndInsertsInLruOrder) {
  // 4 stripes share a bound of 5: stripe 0 (users 0-9) holds 2 entries,
  // stripes 1-3 one each. An insert into a full stripe evicts its least
  // recently used entry and takes over the slot; the eviction and prime
  // counters and each stripe's recency order must read as before.
  ToyScorer scorer;
  TopKServerOptions opts;
  opts.k = 3;
  opts.cache.max_users = 5;
  opts.cache.stripes = 4;
  TopKServer server(&scorer, 40, 30, opts);
  TopKServer reference(&scorer, 40, 30, opts);
  const auto cached = [&server] {
    std::vector<UserId> users;
    server.ForEachCached([&users](UserId u, std::span<const ItemId>,
                                  std::span<const float>) {
      users.push_back(u);
    });
    return users;
  };

  ASSERT_TRUE(server.Prime(12, {7, 3}, {0.5f, 0.25f}));  // stripe 1
  const std::vector<ItemId> items0 = {1, 2, 3};
  const std::vector<float> scores0 = {0.9f, 0.8f, 0.7f};
  const std::vector<TopKServer::PrimeEntry> stripe0 = {
      {0, items0, scores0}, {1, items0, scores0}};
  EXPECT_EQ(server.Prime(stripe0), 2u);
  EXPECT_EQ(cached(), (std::vector<UserId>{1, 0, 12}));
  EXPECT_EQ(server.stats().primed, 3u);
  EXPECT_EQ(server.stats().evictions, 0u);

  EXPECT_FALSE(server.TopK(15).from_cache);  // stripe 1 full: evicts 12
  EXPECT_EQ(server.stats().evictions, 1u);
  EXPECT_EQ(cached(), (std::vector<UserId>{1, 0, 15}));

  // A batch prime into the one-slot stripe evicts once per entry; the
  // last entry stays.
  const std::vector<TopKServer::PrimeEntry> stripe1 = {
      {13, items0, scores0}, {14, {items0.data(), 1}, {scores0.data(), 1}}};
  EXPECT_EQ(server.Prime(stripe1), 2u);
  EXPECT_EQ(server.stats().evictions, 3u);
  EXPECT_EQ(server.stats().primed, 5u);
  EXPECT_EQ(cached(), (std::vector<UserId>{1, 0, 14}));
  const TopKResponse primed = server.TopK(14);
  EXPECT_TRUE(primed.from_cache);
  EXPECT_EQ(primed.items, (std::vector<ItemId>{1}));
  EXPECT_EQ(primed.scores, (std::vector<float>{0.9f}));

  EXPECT_TRUE(server.TopK(0).from_cache);  // 0 becomes most recent
  EXPECT_EQ(cached(), (std::vector<UserId>{0, 1, 14}));
  const TopKResponse swept = server.TopK(2);  // evicts 1, not 0
  EXPECT_FALSE(swept.from_cache);
  EXPECT_EQ(server.stats().evictions, 4u);
  EXPECT_EQ(cached(), (std::vector<UserId>{2, 0, 14}));
  const TopKResponse hit = server.TopK(2);
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(hit.items, reference.TopK(2).items);
  EXPECT_EQ(hit.scores, reference.TopK(2).scores);
  EXPECT_EQ(server.stats().cached_users, 3u);

  // Dropped slots are reused.
  server.InvalidateAll();
  EXPECT_TRUE(cached().empty());
  EXPECT_FALSE(server.TopK(3).from_cache);
  EXPECT_FALSE(server.TopK(4).from_cache);
  EXPECT_EQ(cached(), (std::vector<UserId>{4, 3}));
  EXPECT_EQ(server.TopK(3).items, reference.TopK(3).items);
  EXPECT_EQ(server.stats().evictions, 4u);
}

TEST(TopKServerTest, ZeroCapacityDisablesCaching) {
  ToyScorer scorer;
  TopKServerOptions opts;
  opts.k = 3;
  opts.cache.max_users = 0;
  TopKServer server(&scorer, 20, 30, opts);
  EXPECT_FALSE(server.TopK(5).from_cache);
  EXPECT_FALSE(server.TopK(5).from_cache);
  EXPECT_EQ(server.stats().cached_users, 0u);
}

TEST(TopKServerInvalidation, UserShardInvalidatesOnlyItsUsers) {
  ToyScorer scorer;
  const size_t users = 64;
  WriteTracker tracker(users, 30, /*num_shards=*/8);
  TopKServerOptions opts;
  opts.k = 3;
  opts.cache.item_shards = 8;  // candidate lists must match the tracker's shards
  TopKServer server(&scorer, users, 30, opts);

  const UserId a = 0, b = 63;  // first and last shard
  ASSERT_NE(tracker.UserShardOf(a), tracker.UserShardOf(b));
  server.TopK(a);
  server.TopK(b);

  tracker.MarkUser(a);
  server.AbsorbWrites(&tracker);
  EXPECT_EQ(server.stats().invalidated, 1u);
  EXPECT_FALSE(server.TopK(a).from_cache);  // dropped
  EXPECT_TRUE(server.TopK(b).from_cache);   // untouched shard survives

  // AbsorbWrites consumed the flags.
  EXPECT_FALSE(tracker.AnyDirty());
}

TEST(TopKServerInvalidation, DirtyItemShardRefreshesEntriesInPlace) {
  // A dirty item shard no longer drops cached entries: each surviving
  // entry re-scores just that shard and re-merges. With an unchanged
  // model the refreshed ranking must be identical, and the entries stay
  // warm (hits, not misses).
  ToyScorer scorer;
  WriteTracker tracker(64, 30, /*num_shards=*/8);
  TopKServerOptions opts;
  opts.k = 3;
  opts.cache.item_shards = 8;
  TopKServer server(&scorer, 64, 30, opts);
  const TopKResponse before0 = server.TopK(0);
  const TopKResponse before63 = server.TopK(63);

  tracker.MarkItem(17);
  server.AbsorbWrites(&tracker);
  EXPECT_EQ(server.stats().invalidated, 0u);
  EXPECT_EQ(server.stats().refreshed, 2u);
  // The cheap merge proved exactness (the model didn't change, so the
  // k-th rank held) — no entry was dropped for an unprovable merge.
  EXPECT_EQ(server.stats().refresh_drops, 0u);
  const TopKResponse after0 = server.TopK(0);
  EXPECT_TRUE(after0.from_cache);
  EXPECT_EQ(after0.items, before0.items);
  EXPECT_EQ(after0.scores, before0.scores);
  const TopKResponse after63 = server.TopK(63);
  EXPECT_TRUE(after63.from_cache);
  EXPECT_EQ(after63.items, before63.items);
}

TEST(TopKServerInvalidation, EveryItemShardDirtyDropsInsteadOfRefreshing) {
  // Refreshing every shard costs the same as the cold sweep it would
  // save, so a fully dirty catalog (global-table writers MarkAllItems)
  // falls back to dropping and re-sweeping lazily.
  ToyScorer scorer;
  WriteTracker tracker(64, 30, /*num_shards=*/8);
  TopKServerOptions opts;
  opts.k = 3;
  opts.cache.item_shards = 8;
  TopKServer server(&scorer, 64, 30, opts);
  server.TopK(0);
  server.TopK(63);

  tracker.MarkAllItems();
  server.AbsorbWrites(&tracker);
  EXPECT_EQ(server.stats().invalidated, 2u);
  EXPECT_EQ(server.stats().refreshed, 0u);
  EXPECT_FALSE(server.TopK(0).from_cache);
  EXPECT_FALSE(server.TopK(63).from_cache);
}

TEST(TopKServerInvalidation, PrimedEntriesRefreshLikeSweptOnes) {
  // A primed entry that honors the sidecar pairing contract (it *is* the
  // current snapshot's top-k) refreshes in place exactly like one a sweep
  // produced — warm restarts stay warm across mostly-clean epochs.
  ToyScorer scorer;
  WriteTracker tracker(64, 30, /*num_shards=*/8);
  TopKServerOptions opts;
  opts.k = 3;
  opts.cache.item_shards = 8;
  TopKServer server(&scorer, 64, 30, opts);
  TopKServer reference(&scorer, 64, 30, opts);
  const TopKResponse truth = reference.TopK(5);
  ASSERT_TRUE(server.Prime(5, truth.items, truth.scores));
  const TopKResponse swept = server.TopK(40);  // real sweep alongside
  tracker.MarkItem(17);
  server.AbsorbWrites(&tracker);
  EXPECT_EQ(server.stats().invalidated, 0u);
  EXPECT_EQ(server.stats().refreshed, 2u);
  const TopKResponse primed_after = server.TopK(5);
  EXPECT_TRUE(primed_after.from_cache);
  EXPECT_EQ(primed_after.items, truth.items);
  EXPECT_EQ(primed_after.scores, truth.scores);
  const TopKResponse after = server.TopK(40);
  EXPECT_TRUE(after.from_cache);
  EXPECT_EQ(after.items, swept.items);
}

TEST(TopKServerInvalidation, CleanTrackerInvalidatesNothing) {
  ToyScorer scorer;
  WriteTracker tracker(64, 30, 8);
  TopKServerOptions opts;
  opts.k = 3;
  opts.cache.item_shards = 8;
  TopKServer server(&scorer, 64, 30, opts);
  server.TopK(7);
  server.AbsorbWrites(&tracker);
  EXPECT_EQ(server.stats().invalidated, 0u);
  EXPECT_EQ(server.stats().refreshed, 0u);
  EXPECT_TRUE(server.TopK(7).from_cache);
}

TEST(TopKServerInvalidation, SnapshotVsLiveDivergenceAfterTrainingEpoch) {
  // The serving contract: the server ranks a quiesced snapshot, so after a
  // training epoch the live model diverges until AbsorbWrites+ReplaceModel
  // swap in the fresh snapshot. Simulated with two fits that differ by one
  // epoch (the second reports its writes through the real tracker hook).
  const auto data = SmallDataset(40, 80);
  Bpr before(BprConfig{.dim = 8});
  TrainOptions one_epoch = QuickTrain();
  one_epoch.epochs = 1;
  before.Fit(*data, one_epoch);

  WriteTracker tracker(data->num_users(), data->num_items());
  Bpr after(BprConfig{.dim = 8});
  TrainOptions two_epochs = QuickTrain();
  two_epochs.epochs = 2;
  two_epochs.write_tracker = &tracker;  // dirty-shard reporting from steps
  after.Fit(*data, two_epochs);
  EXPECT_TRUE(tracker.AnyDirty());

  TopKServerOptions opts;
  opts.k = 10;
  TopKServer server(&before, data->num_users(), data->num_items(), opts);
  const UserId u = 3;
  const TopKResponse stale = server.TopK(u);

  // Live model moved, server not refreshed: still the old snapshot's view.
  const TopKResponse still_stale = server.TopK(u);
  EXPECT_TRUE(still_stale.from_cache);
  EXPECT_EQ(still_stale.scores, stale.scores);
  const auto [live_items, live_scores] =
      BruteForceTopK(after, u, data->num_items(), 10);
  EXPECT_NE(stale.scores, live_scores);  // genuine divergence

  // Publish: swap to the new snapshot *then* absorb the epoch's writes
  // (the epoch contract — refreshes must re-score against the new model).
  // Whether u's entry was dropped (its user shard dirty) or incrementally
  // refreshed, the served ranking must now be the new model's.
  server.ReplaceModel(&after);
  server.AbsorbWrites(&tracker);
  EXPECT_EQ(server.epoch(), 1u);
  const TopKResponse fresh = server.TopK(u);
  EXPECT_EQ(fresh.items, live_items);
  EXPECT_EQ(fresh.scores, live_scores);
}

/// Wraps a frozen model and shifts the scores of items inside chosen item
/// ranges by a deterministic per-item amount (mixed signs) — a controlled
/// "epoch" whose score changes are confined to exactly those ranges, so a
/// tracker marking just their shards tells the truth. Shifts ride on top
/// of the wrapped model's own batch kernels, keeping the bit-equality
/// between ScoreItems (brute force) and ScoreItemRange (server sweep).
class ShardShiftScorer : public ItemScorer {
 public:
  ShardShiftScorer(const ItemScorer* base, float delta,
                   std::vector<std::pair<ItemId, ItemId>> ranges)
      : base_(base), delta_(delta), ranges_(std::move(ranges)) {}

  float Score(UserId u, ItemId v) const override {
    return base_->Score(u, v) + Shift(v);
  }
  void ScoreItems(UserId u, std::span<const ItemId> items,
                  float* out) const override {
    base_->ScoreItems(u, items, out);
    for (size_t i = 0; i < items.size(); ++i) out[i] += Shift(items[i]);
  }
  void ScoreItemRange(UserId u, ItemId begin, ItemId end,
                      float* out) const override {
    base_->ScoreItemRange(u, begin, end, out);
    for (ItemId v = begin; v < end; ++v) out[v - begin] += Shift(v);
  }

 private:
  float Shift(ItemId v) const {
    for (const auto& [lo, hi] : ranges_) {
      if (v >= lo && v < hi) {
        return delta_ * static_cast<float>(static_cast<int>(v % 5) - 2);
      }
    }
    return 0.0f;
  }

  const ItemScorer* base_;
  float delta_;
  std::vector<std::pair<ItemId, ItemId>> ranges_;
};

/// The incremental-absorb contract: an epoch that dirties a strict subset
/// of item shards must leave every surviving cache entry *refreshed* —
/// bit-identical to what a cold sweep of the new snapshot would produce —
/// without dropping it.
void ExpectIncrementalAbsorbMatchesColdSweep(Recommender* model,
                                             const ImplicitDataset& data) {
  const size_t kShards = 8;
  const size_t k = 7;
  const size_t users = data.num_users(), items = data.num_items();
  WriteTracker tracker(users, items, kShards);
  ASSERT_EQ(tracker.num_item_shards(), kShards);

  TopKServerOptions opts;
  opts.k = k;
  opts.cache.item_shards = kShards;
  opts.exclude_interactions = &data;
  ShardShiftScorer old_epoch(model, 0.0f, {});
  TopKServer server(&old_epoch, users, items, opts);
  const size_t probe_users = 10;
  std::vector<TopKResponse> before(probe_users);
  for (UserId u = 0; u < probe_users; ++u) before[u] = server.TopK(u);

  // New epoch: shift scores inside item shards {1, 2, 5} only (a strict
  // subset), scaled to the model's own score spread so rankings actually
  // move. Mark exactly those shards dirty.
  const std::vector<size_t> dirty = {1, 2, 5};
  std::vector<std::pair<ItemId, ItemId>> ranges;
  for (const size_t s : dirty) {
    const auto [lo, hi] = FacetStore::ShardRange(items, s, kShards);
    ranges.emplace_back(static_cast<ItemId>(lo), static_cast<ItemId>(hi));
    tracker.MarkItem(static_cast<ItemId>(lo));
  }
  const float spread = before[0].scores.empty()
                           ? 1.0f
                           : before[0].scores.front() -
                                 before[0].scores.back() + 0.1f;
  ShardShiftScorer new_epoch(model, spread, std::move(ranges));

  server.ReplaceModel(&new_epoch);
  server.AbsorbWrites(&tracker);
  // Every entry was either refreshed in place (exact merge) or dropped
  // because its k-th-rank cutoff fell (drops also count as invalidated);
  // no user-shard drops occurred.
  const TopKServerStats after_stats = server.stats();
  EXPECT_EQ(after_stats.refreshed + after_stats.refresh_drops, probe_users)
      << model->name();
  EXPECT_EQ(after_stats.invalidated, after_stats.refresh_drops)
      << model->name();

  // The reference is a full *cold sweep* of the new snapshot (a fresh
  // server), which shares the refresh path's ScoreItemRange kernels —
  // served rankings must be bit-identical to it whether the entry was
  // refreshed in place (cache hit) or dropped and re-swept (miss).
  TopKServer cold(&new_epoch, users, items, opts);
  bool any_moved = false;
  for (UserId u = 0; u < probe_users; ++u) {
    const TopKResponse got = server.TopK(u);
    const TopKResponse want = cold.TopK(u);
    EXPECT_FALSE(want.from_cache);
    EXPECT_EQ(got.items, want.items) << model->name() << " user " << u;
    EXPECT_EQ(got.scores, want.scores) << model->name() << " user " << u;
    any_moved = any_moved || got.items != before[u].items;
  }
  // The shift is scaled to reorder: a refresh that never changes any
  // ranking would be vacuous.
  EXPECT_TRUE(any_moved) << model->name();
}

TEST(TopKServerIncrementalAbsorb, Mars) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 4;
  cfg.theta_init_nmf = false;
  Mars model(cfg);
  model.Fit(*data, QuickTrain());
  ExpectIncrementalAbsorbMatchesColdSweep(&model, *data);
}

TEST(TopKServerIncrementalAbsorb, MarsSingleFacet) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 1;
  cfg.theta_init_nmf = false;
  Mars model(cfg);
  model.Fit(*data, QuickTrain());
  ExpectIncrementalAbsorbMatchesColdSweep(&model, *data);
}

TEST(TopKServerIncrementalAbsorb, MarFree) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 3;
  cfg.theta_init_nmf = false;
  Mar model(cfg, FacetParam::kFree);
  model.Fit(*data, QuickTrain());
  ExpectIncrementalAbsorbMatchesColdSweep(&model, *data);
}

TEST(TopKServerIncrementalAbsorb, MarProjected) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 3;
  cfg.theta_init_nmf = false;
  Mar model(cfg, FacetParam::kProjected);
  model.Fit(*data, QuickTrain());
  ExpectIncrementalAbsorbMatchesColdSweep(&model, *data);
}

TEST(TopKServerIncrementalAbsorb, Bpr) {
  const auto data = SmallDataset();
  Bpr model(BprConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectIncrementalAbsorbMatchesColdSweep(&model, *data);
}

TEST(TopKServerIncrementalAbsorb, Cml) {
  const auto data = SmallDataset();
  Cml model(CmlConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectIncrementalAbsorbMatchesColdSweep(&model, *data);
}

TEST(TopKServerIncrementalAbsorb, Sml) {
  const auto data = SmallDataset();
  Sml model(SmlConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectIncrementalAbsorbMatchesColdSweep(&model, *data);
}

TEST(TopKServerIncrementalAbsorb, MetricF) {
  const auto data = SmallDataset();
  MetricF model(MetricFConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectIncrementalAbsorbMatchesColdSweep(&model, *data);
}

TEST(TopKServerIncrementalAbsorb, TransCf) {
  const auto data = SmallDataset();
  TransCf model(TransCfConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectIncrementalAbsorbMatchesColdSweep(&model, *data);
}

TEST(TopKServerIncrementalAbsorb, Lrml) {
  const auto data = SmallDataset();
  Lrml model(LrmlConfig{.dim = 16, .memory_slots = 4});
  model.Fit(*data, QuickTrain());
  ExpectIncrementalAbsorbMatchesColdSweep(&model, *data);
}

TEST(TopKServerInvalidation, InvalidateAllDropsEverything) {
  ToyScorer scorer;
  TopKServerOptions opts;
  opts.k = 3;
  TopKServer server(&scorer, 20, 30, opts);
  server.TopK(1);
  server.TopK(2);
  server.InvalidateAll();
  EXPECT_EQ(server.stats().invalidated, 2u);
  EXPECT_EQ(server.stats().cached_users, 0u);
  EXPECT_FALSE(server.TopK(1).from_cache);
}

}  // namespace
}  // namespace mars
