// Batched multi-user serving: TopKBatch, and concurrent TopK misses.
//
// The contract under test is bit-identity: every answer produced by a
// multi-user batched sweep (ScoreItemRangeMulti block kernels, shared
// ProbeBatch on the ANN path) must equal — items AND float scores — the
// answer a solo TopK computes against the same snapshot, for every model
// the serving layer supports. The concurrent-miss tests race the miss
// path under TSAN (suite names match the ci.sh sanitizer filter) and pin
// every response to a published snapshot epoch.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
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
#include "serve/top_k_server.h"

namespace mars {
namespace {

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

/// The pinning check: a TopKBatch over `users` (duplicates included) must
/// return, position by position, exactly what a solo-TopK server answers
/// for that user — same items, bit-equal scores. Two fresh servers with
/// identical options, so both sides sweep the same snapshot cold.
void ExpectBatchMatchesSolo(Recommender* model, const ImplicitDataset& data,
                            TopKServerOptions opts) {
  TopKServer batch_server(model, data.num_users(), data.num_items(), opts);
  TopKServer solo_server(model, data.num_users(), data.num_items(), opts);

  const std::vector<UserId> users = {3, 0, 5, 0, 7, 1, 2, 6, 4, 3};
  const std::vector<TopKResponse> got = batch_server.TopKBatch(users);
  ASSERT_EQ(got.size(), users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    const TopKResponse want = solo_server.TopK(users[i]);
    EXPECT_EQ(got[i].items, want.items)
        << model->name() << " position " << i << " user " << users[i];
    EXPECT_EQ(got[i].scores, want.scores)
        << model->name() << " position " << i << " user " << users[i];
  }

  // Batched misses cache exactly like solo ones: the same batch again is
  // answered entirely from the cache, with the same payloads.
  const std::vector<TopKResponse> warm = batch_server.TopKBatch(users);
  for (size_t i = 0; i < users.size(); ++i) {
    EXPECT_TRUE(warm[i].from_cache) << model->name() << " position " << i;
    EXPECT_EQ(warm[i].items, got[i].items) << model->name();
    EXPECT_EQ(warm[i].scores, got[i].scores) << model->name();
  }
}

/// Exact-sweep options shared by the model equivalence cases: exclusions
/// on, so the batched selection handles holes in every block.
TopKServerOptions ExactOpts(const ImplicitDataset& data) {
  TopKServerOptions opts;
  opts.k = 7;
  opts.exclude_interactions = &data;
  return opts;
}

TEST(TopKServerBatchEquivalence, Mars) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 4;
  cfg.theta_init_nmf = false;
  Mars model(cfg);
  model.Fit(*data, QuickTrain());
  ExpectBatchMatchesSolo(&model, *data, ExactOpts(*data));
}

TEST(TopKServerBatchEquivalence, MarsSingleFacetCosinePath) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 1;
  cfg.theta_init_nmf = false;
  Mars model(cfg);
  model.Fit(*data, QuickTrain());
  // K = 1 runs the one-facet WeightedFacetDotBatchMulti against the solo
  // WeightedFacetDotBatch: the same row primitive per user, so batch and
  // solo stay bit-equal.
  ExpectBatchMatchesSolo(&model, *data, ExactOpts(*data));
}

TEST(TopKServerBatchEquivalence, MarFree) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 3;
  cfg.theta_init_nmf = false;
  Mar model(cfg);
  model.Fit(*data, QuickTrain());
  ExpectBatchMatchesSolo(&model, *data, ExactOpts(*data));
}


TEST(TopKServerBatchEquivalence, Bpr) {
  const auto data = SmallDataset();
  Bpr model(BprConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectBatchMatchesSolo(&model, *data, ExactOpts(*data));
}

TEST(TopKServerBatchEquivalence, Cml) {
  const auto data = SmallDataset();
  Cml model(CmlConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectBatchMatchesSolo(&model, *data, ExactOpts(*data));
}

TEST(TopKServerBatchEquivalence, Sml) {
  const auto data = SmallDataset();
  Sml model(SmlConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectBatchMatchesSolo(&model, *data, ExactOpts(*data));
}

TEST(TopKServerBatchEquivalence, MetricF) {
  const auto data = SmallDataset();
  MetricF model(MetricFConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectBatchMatchesSolo(&model, *data, ExactOpts(*data));
}

TEST(TopKServerBatchEquivalence, TransCf) {
  const auto data = SmallDataset();
  TransCf model(TransCfConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectBatchMatchesSolo(&model, *data, ExactOpts(*data));
}

TEST(TopKServerBatchEquivalence, Lrml) {
  const auto data = SmallDataset();
  Lrml model(LrmlConfig{.dim = 16, .memory_slots = 4});
  model.Fit(*data, QuickTrain());
  ExpectBatchMatchesSolo(&model, *data, ExactOpts(*data));
}

TEST(TopKServerBatchEquivalence, BprAnnSharedProbe) {
  // Dot geometry → SphericalIvfIndex: the batched path probes all users
  // through one ProbeBatch (shared centroid scan). Per-query candidate
  // sets are pinned bit-identical to solo probes, so batch == solo holds
  // at *any* nprobe, not just full probe.
  const auto data = SmallDataset();
  Bpr model(BprConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  TopKServerOptions opts = ExactOpts(*data);
  opts.ann.enable = true;
  ExpectBatchMatchesSolo(&model, *data, opts);
}

/// Deterministic synthetic scorer (same formula as the solo suites).
class ToyScorer : public ItemScorer {
 public:
  float Score(UserId u, ItemId v) const override {
    return static_cast<float>((v * 37 + u * 11) % 101);
  }
};

TEST(TopKServerBatchStats, BatchSweepCountersTrackSizes) {
  ToyScorer scorer;
  TopKServerOptions opts;
  opts.k = 4;
  TopKServer server(&scorer, 40, 60, opts);

  // 8 distinct cold users: one multi-user sweep of all 8.
  server.TopKBatch(std::vector<UserId>{0, 1, 2, 3, 4, 5, 6, 7});
  TopKServerStats stats = server.stats();
  EXPECT_EQ(stats.misses, 8u);
  EXPECT_EQ(stats.batch_sweeps, 1u);
  EXPECT_EQ(stats.coalesced_misses, 8u);
  EXPECT_EQ(stats.max_batch_size, 8u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size, 8.0);

  // Duplicates collapse to one sweep slot: {9, 9, 9} is a batch of one
  // unique miss, i.e. a solo sweep — no batch counters move.
  server.TopKBatch(std::vector<UserId>{9, 9, 9});
  stats = server.stats();
  EXPECT_EQ(stats.batch_sweeps, 1u);
  EXPECT_EQ(stats.coalesced_misses, 8u);
  EXPECT_EQ(stats.misses, 9u);  // one miss for the one unique user

  // All-hit batches touch nothing but the hit counters.
  server.TopKBatch(std::vector<UserId>{0, 1, 2});
  stats = server.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.batch_sweeps, 1u);
}

TEST(TopKServerBatchStats, OversizedBatchSplitsAtTheCoalescerCap) {
  constexpr size_t kCap = TopKServer::kMaxBatch;
  ToyScorer scorer;
  TopKServerOptions opts;
  opts.k = 4;
  TopKServer server(&scorer, 2 * kCap + 8, 60, opts);
  // 2·cap + 2 distinct misses sweep as groups of cap + cap + 2.
  std::vector<UserId> users(2 * kCap + 2);
  for (size_t i = 0; i < users.size(); ++i) {
    users[i] = static_cast<UserId>(i);
  }
  server.TopKBatch(users);
  const TopKServerStats stats = server.stats();
  EXPECT_EQ(stats.misses, users.size());
  EXPECT_EQ(stats.batch_sweeps, 3u);
  EXPECT_EQ(stats.coalesced_misses, users.size());
  EXPECT_EQ(stats.max_batch_size, kCap);
}

TEST(TopKServerBatchStats, EmptyAndSingletonBatches) {
  ToyScorer scorer;
  TopKServerOptions opts;
  opts.k = 4;
  TopKServer server(&scorer, 40, 60, opts);
  EXPECT_TRUE(server.TopKBatch(std::span<const UserId>{}).empty());
  const auto one = server.TopKBatch(std::vector<UserId>{5});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].items, server.TopK(5).items);
  const TopKServerStats stats = server.stats();
  EXPECT_EQ(stats.batch_sweeps, 0u);  // a batch of one is a solo sweep
  EXPECT_EQ(stats.coalesced_misses, 0u);
  EXPECT_EQ(stats.max_batch_size, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size, 0.0);
}

/// Deterministic scorer family for the raced tests: `generation` both
/// shifts and reorders, so any response identifies the generation that
/// produced it (same family as the SnapshotHandle serve races).
class GenScorer : public ItemScorer {
 public:
  explicit GenScorer(float generation) : gen_(generation) {}
  float Score(UserId u, ItemId v) const override {
    return static_cast<float>((v * 37 + u * 11) % 101) +
           gen_ * static_cast<float>((v * 13 + 7) % 23);
  }

 private:
  float gen_;
};

std::vector<std::pair<std::vector<ItemId>, std::vector<float>>> BruteForceAll(
    const ItemScorer& scorer, size_t num_users, size_t num_items, size_t k) {
  std::vector<std::pair<std::vector<ItemId>, std::vector<float>>> out(
      num_users);
  for (UserId u = 0; u < num_users; ++u) {
    std::vector<std::pair<float, ItemId>> ranked(num_items);
    for (ItemId v = 0; v < num_items; ++v) {
      ranked[v] = {scorer.Score(u, v), v};
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                return a.first > b.first ||
                       (a.first == b.first && a.second < b.second);
              });
    ranked.resize(std::min(k, ranked.size()));
    for (const auto& [s, v] : ranked) {
      out[u].first.push_back(v);
      out[u].second.push_back(s);
    }
  }
  return out;
}

TEST(TopKServerConcurrentMissTest, RacedMissesPinPublishedEpochs) {
  // The miss-path acceptance race (run under TSAN with no suppressions in
  // scope): query threads hammer an uncached server — every query takes
  // the miss path — while the maintenance thread publishes a stream of
  // model generations. Every response must be bit-identical to the brute
  // force of the generation its `epoch` field claims: a sweep blending two
  // snapshots, or a result stamped with the wrong epoch, fails the
  // per-epoch equality.
  const size_t kUsers = 32, kItems = 300, kK = 6;
  const size_t kGenerations = 6, kThreads = 4;

  std::vector<std::shared_ptr<const GenScorer>> generations;
  std::vector<std::vector<std::pair<std::vector<ItemId>, std::vector<float>>>>
      want(kGenerations);
  for (size_t g = 0; g < kGenerations; ++g) {
    generations.push_back(
        std::make_shared<const GenScorer>(static_cast<float>(g)));
    want[g] = BruteForceAll(*generations[g], kUsers, kItems, kK);
  }
  ASSERT_NE(want[0][0].first, want[1][0].first);

  TopKServerOptions opts;
  opts.k = kK;
  opts.cache.max_users = 0;  // all misses
  TopKServer server(generations[0], kUsers, kItems, opts);

  std::atomic<bool> done{false};
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      size_t q = 0;
      while (!done.load(std::memory_order_acquire)) {
        const UserId u = static_cast<UserId>((q * 3 + t) % kUsers);
        const TopKResponse got = server.TopK(u);
        // The pinning contract, sharpened: not just "some generation" —
        // exactly the generation the result says it ranked.
        const bool ok = got.epoch < kGenerations &&
                        got.items == want[got.epoch][u].first &&
                        got.scores == want[got.epoch][u].second;
        if (!ok) wrong.fetch_add(1, std::memory_order_relaxed);
        ++q;
      }
    });
  }

  for (size_t g = 1; g < kGenerations; ++g) {
    server.ReplaceModel(generations[g]);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(server.stats().hits, 0u);
}

TEST(TopKServerConcurrentMissTest, ConcurrentSameUserMissesCountEachQuery) {
  // Concurrent queries for one user, with the cache on and the entry
  // dropped between rounds: every query is one hit or one miss, every miss
  // is one ANN probe or one exact fallback, and every caller gets the full
  // exact answer. Misses that race each other sweep redundantly.
  const size_t kUsers = 4, kItems = 150, kK = 5, kThreads = 4, kRounds = 50;
  GenScorer scorer(0.0f);
  const auto want = BruteForceAll(scorer, kUsers, kItems, kK);

  TopKServerOptions opts;
  opts.k = kK;
  TopKServer server(&scorer, kUsers, kItems, opts);

  const UserId u = 2;
  std::atomic<size_t> wrong{0};
  for (size_t round = 0; round < kRounds; ++round) {
    server.InvalidateAll();
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        const TopKResponse got = server.TopK(u);
        if (got.items != want[u].first || got.scores != want[u].second) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& th : threads) th.join();
  }

  EXPECT_EQ(wrong.load(), 0u);
  const TopKServerStats stats = server.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kRounds);
  EXPECT_GE(stats.misses, kRounds);  // each round's first query misses
  EXPECT_EQ(stats.ann_probes + stats.exact_fallbacks, stats.misses);
  EXPECT_EQ(stats.batch_sweeps, 0u);  // TopK misses sweep alone
}

TEST(TopKServerConcurrentMissTest, TopKFromPoolWorkersSweepsSerially) {
  // TopK called *from* pool worker threads (embedded serving inside a
  // pipeline task): each worker sweeps its miss on its own thread,
  // exactly and without deadlock.
  const size_t kUsers = 12, kItems = 200, kK = 5;
  GenScorer scorer(0.0f);
  const auto want = BruteForceAll(scorer, kUsers, kItems, kK);

  ThreadPool pool(3);
  TopKServerOptions opts;
  opts.k = kK;
  opts.cache.max_users = 0;
  TopKServer server(&scorer, kUsers, kItems, opts);

  std::atomic<size_t> wrong{0};
  pool.RunBatch(kUsers, [&](size_t i) {
    const UserId u = static_cast<UserId>(i);
    const TopKResponse got = server.TopK(u);
    if (got.items != want[u].first || got.scores != want[u].second) {
      wrong.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(server.stats().misses, kUsers);
}

}  // namespace
}  // namespace mars
