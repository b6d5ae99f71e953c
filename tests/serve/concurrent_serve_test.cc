// Concurrency correctness of the serving read path: N frontend threads
// racing each other, the striped LRU, and the maintenance side
// (ReplaceModel / AbsorbWrites / PublishEpoch). These tests run under the
// TSAN CI job with *no* suppressions in scope — scripts/tsan.supp only
// covers model Fit step lambdas, so any race the serving layer itself
// introduces fails the build.
//
// The correctness bar throughout: every response returned by a query
// that raced an epoch swap must be bit-identical to the brute-force
// ranking of *some* published snapshot — never a blend of two epochs,
// never torn state.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/snapshot_handle.h"
#include "common/vec.h"
#include "data/dataset.h"
#include "eval/scorer.h"
#include "serve/top_k_server.h"
#include "serve/write_tracker.h"

namespace mars {
namespace {

/// Deterministic scorer family: `generation` shifts every score by a
/// constant, so two generations rank identically per (u, v) formula but
/// with distinguishable score values — a response's scores identify
/// exactly which generation produced it.
class GenScorer : public ItemScorer {
 public:
  explicit GenScorer(float generation) : gen_(generation) {}
  float Score(UserId u, ItemId v) const override {
    // Generation also reorders (multiplicative term), so serving a stale
    // generation produces detectably different *rankings*, not just
    // shifted scores.
    return static_cast<float>((v * 37 + u * 11) % 101) +
           gen_ * static_cast<float>((v * 13 + 7) % 23);
  }

 private:
  float gen_;
};

std::vector<std::pair<std::vector<ItemId>, std::vector<float>>>
BruteForceAll(const ItemScorer& scorer, size_t num_users, size_t num_items,
              size_t k) {
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

TEST(SnapshotHandleServeTest, ConcurrentQueriesMatchSingleThreaded) {
  // No maintenance at all: N threads hammering one server must each get
  // the exact single-threaded answer for every query, through hits,
  // misses, racing duplicate sweeps, and striped-LRU churn.
  const size_t kUsers = 64, kItems = 300, kK = 9;
  GenScorer scorer(0.0f);
  const auto want = BruteForceAll(scorer, kUsers, kItems, kK);

  TopKServerOptions opts;
  opts.k = kK;
  opts.cache.max_users = 16;  // far below kUsers → constant eviction
  opts.cache.stripes = 4;
  TopKServer server(&scorer, kUsers, kItems, opts);

  const size_t kThreads = 4, kQueriesPerThread = 400;
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the user space with its own stride, mixing
      // users that stay hot with ones that evict each other.
      for (size_t q = 0; q < kQueriesPerThread; ++q) {
        const UserId u =
            static_cast<UserId>((q * (t + 1) * 7 + t * 13) % kUsers);
        const TopKResponse got = server.TopK(u);
        if (got.items != want[u].first || got.scores != want[u].second) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0u);
  const TopKServerStats stats = server.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kQueriesPerThread);
  EXPECT_LE(stats.cached_users, opts.cache.max_users);
}

TEST(SnapshotHandleServeTest, EvictionChurnUnderConcurrentQueriesStaysExact) {
  // The striped-LRU stress from the issue checklist: a cache so small
  // that nearly every query inserts + evicts, across stripes, from many
  // threads. Checked for exact answers and a consistent hit/miss ledger
  // (and raced under TSAN).
  const size_t kUsers = 48, kItems = 500, kK = 5;
  GenScorer scorer(0.0f);
  const auto want = BruteForceAll(scorer, kUsers, kItems, kK);

  TopKServerOptions opts;
  opts.k = kK;
  opts.cache.max_users = 6;
  opts.cache.stripes = 3;
  TopKServer server(&scorer, kUsers, kItems, opts);

  const size_t kThreads = 4, kQueriesPerThread = 150;
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t q = 0; q < kQueriesPerThread; ++q) {
        const UserId u = static_cast<UserId>((q * 5 + t * 11) % kUsers);
        const TopKResponse got = server.TopK(u);
        if (got.items != want[u].first || got.scores != want[u].second) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0u);
  const TopKServerStats stats = server.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kQueriesPerThread);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.cached_users, opts.cache.max_users);
}

TEST(SnapshotHandleServeTest, QueriesRacingEpochSwapsSeeOnlySnapshots) {
  // The acceptance-criteria race: query threads run flat out while the
  // maintenance thread publishes a stream of epochs (ReplaceModel +
  // AbsorbWrites with an all-dirty tracker). Every response must be
  // bit-identical to the brute force of *some* published generation.
  const size_t kUsers = 40, kItems = 250, kK = 8;
  const size_t kGenerations = 12;

  std::vector<std::shared_ptr<const GenScorer>> generations;
  std::vector<std::vector<std::pair<std::vector<ItemId>, std::vector<float>>>>
      want(kGenerations);
  for (size_t g = 0; g < kGenerations; ++g) {
    generations.push_back(
        std::make_shared<const GenScorer>(static_cast<float>(g)));
    want[g] = BruteForceAll(*generations[g], kUsers, kItems, kK);
  }
  // The generations genuinely rank differently (otherwise the membership
  // check below would be vacuous).
  ASSERT_NE(want[0][0].first, want[1][0].first);

  TopKServerOptions opts;
  opts.k = kK;
  opts.cache.max_users = kUsers;
  opts.cache.stripes = 4;
  TopKServer server(generations[0], kUsers, kItems, opts);
  WriteTracker tracker(kUsers, kItems);

  std::atomic<bool> done{false};
  std::atomic<size_t> wrong{0};
  const size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      size_t q = 0;
      while (!done.load(std::memory_order_acquire)) {
        const UserId u = static_cast<UserId>((q * 3 + t) % kUsers);
        const TopKResponse got = server.TopK(u);
        bool matched = false;
        for (size_t g = 0; g < kGenerations && !matched; ++g) {
          matched = got.items == want[g][u].first &&
                    got.scores == want[g][u].second;
        }
        if (!matched) wrong.fetch_add(1, std::memory_order_relaxed);
        ++q;
      }
    });
  }

  // Maintenance: publish every generation in order, each with an
  // all-dirty tracker (the conservative delta for a full model swap).
  for (size_t g = 1; g < kGenerations; ++g) {
    tracker.MarkAllUsers();
    tracker.MarkAllItems();
    server.PublishEpoch(generations[g], &tracker);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(server.epoch(), kGenerations - 1);
  // After the last absorb, anything still cached must be the final
  // generation (stale entries were dropped by the all-dirty tracker, and
  // the epoch guard blocks in-flight inserts of superseded sweeps).
  for (UserId u = 0; u < kUsers; ++u) {
    const TopKResponse got = server.TopK(u);
    EXPECT_EQ(got.items, want[kGenerations - 1][u].first) << "user " << u;
    EXPECT_EQ(got.scores, want[kGenerations - 1][u].second) << "user " << u;
  }
}

TEST(SnapshotHandleServeTest, IncrementalAbsorbRacingQueriesStaysExact) {
  // Epoch swaps whose tracker marks only a subset of item shards: the
  // maintenance thread runs the *incremental* refresh path under each
  // stripe lock while query threads keep hitting all stripes. Responses
  // must always equal some published generation, and by the end, the
  // current one.
  const size_t kUsers = 32, kItems = 240, kK = 6, kShards = 8;
  const size_t kGenerations = 8;

  // Generation g shifts scores only for items in shard (g % kShards): a
  // strict-subset delta, refreshable in place.
  class ShardGenScorer : public ItemScorer {
   public:
    ShardGenScorer(size_t shard, float delta, size_t num_items,
                   size_t num_shards)
        : lo_(num_items), hi_(0), delta_(delta) {
      // Compute the shard's item range through the tracker's inverse.
      WriteTracker probe(1, num_items, num_shards);
      for (ItemId v = 0; v < num_items; ++v) {
        if (probe.ItemShardOf(v) == shard) {
          lo_ = std::min<size_t>(lo_, v);
          hi_ = std::max<size_t>(hi_, v + 1);
        }
      }
    }
    float Score(UserId u, ItemId v) const override {
      float s = static_cast<float>((v * 31 + u * 17) % 97);
      if (v >= lo_ && v < hi_) {
        s += delta_ * static_cast<float>(static_cast<int>(v % 5) - 2);
      }
      return s;
    }

   private:
    size_t lo_, hi_;
    float delta_;
  };

  std::vector<std::shared_ptr<const ShardGenScorer>> generations;
  std::vector<std::vector<std::pair<std::vector<ItemId>, std::vector<float>>>>
      want(kGenerations);
  for (size_t g = 0; g < kGenerations; ++g) {
    generations.push_back(std::make_shared<const ShardGenScorer>(
        g % kShards, static_cast<float>(g) * 50.0f, kItems, kShards));
    want[g] = BruteForceAll(*generations[g], kUsers, kItems, kK);
  }
  ASSERT_NE(want[0][0].first, want[1][0].first);

  TopKServerOptions opts;
  opts.k = kK;
  opts.cache.max_users = kUsers;
  opts.cache.stripes = 4;
  opts.cache.item_shards = kShards;
  TopKServer server(generations[0], kUsers, kItems, opts);
  WriteTracker tracker(kUsers, kItems, kShards);

  // Warm every user so the incremental path has entries to refresh.
  for (UserId u = 0; u < kUsers; ++u) server.TopK(u);

  std::atomic<bool> done{false};
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      size_t q = 0;
      while (!done.load(std::memory_order_acquire)) {
        const UserId u = static_cast<UserId>((q * 7 + t * 5) % kUsers);
        const TopKResponse got = server.TopK(u);
        bool matched = false;
        for (size_t g = 0; g < kGenerations && !matched; ++g) {
          matched = got.items == want[g][u].first &&
                    got.scores == want[g][u].second;
        }
        if (!matched) wrong.fetch_add(1, std::memory_order_relaxed);
        ++q;
      }
    });
  }

  for (size_t g = 1; g < kGenerations; ++g) {
    // Generations g-1 and g differ exactly in the shards either one
    // shifted; mark both, leaving the other kShards-2 genuinely clean.
    for (ItemId v = 0; v < kItems; ++v) {
      const size_t s = tracker.ItemShardOf(v);
      if (s == (g - 1) % kShards || s == g % kShards) tracker.MarkItem(v);
    }
    server.PublishEpoch(generations[g], &tracker);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  EXPECT_EQ(wrong.load(), 0u);
  const TopKServerStats stats = server.stats();
  EXPECT_GT(stats.refreshed, 0u);  // the incremental path actually ran
  for (UserId u = 0; u < kUsers; ++u) {
    const TopKResponse got = server.TopK(u);
    EXPECT_EQ(got.items, want[kGenerations - 1][u].first) << "user " << u;
    EXPECT_EQ(got.scores, want[kGenerations - 1][u].second) << "user " << u;
  }
}

TEST(SnapshotHandleServeTest, AnnQueriesRacingIndexSwapsSeeOnlySnapshots) {
  // The ANN acceptance race: query threads probe the candidate index
  // flat out while the maintenance thread publishes epochs that swap
  // both the model *and* the index — alternating the incremental
  // Rebuilt path (strict-subset dirty item shards) with the full
  // from-scratch rebuild (all-dirty). Serving runs at full probe, so
  // every response must still be bit-identical to the brute force of
  // *some* published generation: a torn index, a probe against a freed
  // epoch, or a blend of two snapshots all fail the membership check
  // (and TSAN, with no new suppressions in scope).
  const size_t kUsers = 32, kItems = 240, kDim = 8, kK = 6, kShards = 8;
  const size_t kGenerations = 8;

  // Dot-geometry generation family: generation g re-randomizes item rows
  // in shard g % kShards only (clean rows byte-identical across g-1 → g,
  // honouring the tracker contract the incremental index rebuild relies
  // on). User rows are shared.
  class AnnShardGenScorer : public ItemScorer {
   public:
    AnnShardGenScorer(size_t num_users, size_t num_items, size_t dim,
                      size_t shard, size_t generation, size_t num_shards)
        : dim_(dim), user_(num_users * dim), item_(num_items * dim) {
      Rng urng(99);
      for (auto& x : user_) x = static_cast<float>(urng.Normal());
      for (ItemId v = 0; v < num_items; ++v) {
        WriteTracker probe(1, num_items, num_shards);
        const bool moved = probe.ItemShardOf(v) == shard && generation > 0;
        Rng vrng(moved ? 7000 + generation * 131 + v : 100 + v);
        for (size_t i = 0; i < dim; ++i) {
          item_[v * dim + i] = static_cast<float>(vrng.Normal());
        }
      }
    }
    float Score(UserId u, ItemId v) const override {
      return Dot(user_.data() + u * dim_, item_.data() + v * dim_, dim_);
    }
    size_t index_dim() const override { return dim_; }
    void CopyIndexVectors(ItemId begin, ItemId end,
                          float* out) const override {
      std::copy(item_.begin() + begin * dim_, item_.begin() + end * dim_,
                out);
    }
    void WriteIndexQuery(UserId u, float* out) const override {
      std::copy(user_.begin() + u * dim_, user_.begin() + (u + 1) * dim_,
                out);
    }

   private:
    size_t dim_;
    std::vector<float> user_, item_;
  };

  std::vector<std::shared_ptr<const AnnShardGenScorer>> generations;
  std::vector<std::vector<std::pair<std::vector<ItemId>, std::vector<float>>>>
      want(kGenerations);
  for (size_t g = 0; g < kGenerations; ++g) {
    generations.push_back(std::make_shared<const AnnShardGenScorer>(
        kUsers, kItems, kDim, g % kShards, g, kShards));
    want[g] = BruteForceAll(*generations[g], kUsers, kItems, kK);
  }
  ASSERT_NE(want[0][0].first, want[1][0].first);

  TopKServerOptions opts;
  opts.k = kK;
  opts.cache.max_users = kUsers;
  opts.cache.stripes = 4;
  opts.cache.item_shards = kShards;
  opts.ann.enable = true;
  opts.ann.index.nprobe = 1u << 20;  // full probe → responses stay exact
  TopKServer server(generations[0], kUsers, kItems, opts);
  WriteTracker tracker(kUsers, kItems, kShards);
  ASSERT_EQ(server.stats().exact_fallbacks, 0u);

  std::atomic<bool> done{false};
  std::atomic<size_t> wrong{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      size_t q = 0;
      while (!done.load(std::memory_order_acquire)) {
        const UserId u = static_cast<UserId>((q * 3 + t) % kUsers);
        const TopKResponse got = server.TopK(u);
        bool matched = false;
        for (size_t g = 0; g < kGenerations && !matched; ++g) {
          matched = got.items == want[g][u].first &&
                    got.scores == want[g][u].second;
        }
        if (!matched) wrong.fetch_add(1, std::memory_order_relaxed);
        ++q;
      }
    });
  }

  for (size_t g = 1; g < kGenerations; ++g) {
    if (g % 3 == 0) {
      // Every third epoch: conservative all-dirty delta → from-scratch
      // index rebuild racing the probes.
      tracker.MarkAllUsers();
      tracker.MarkAllItems();
    } else {
      // Generations g-1 and g differ exactly in the shards either one
      // re-randomized; user rows are shared and clean item rows are
      // byte-identical, so this is the genuine strict-subset delta: the
      // cache drops every entry (its misses probe, so nothing refreshes)
      // while the index goes through the incremental Rebuilt — both
      // racing the probes.
      for (ItemId v = 0; v < kItems; ++v) {
        const size_t s = tracker.ItemShardOf(v);
        if (s == (g - 1) % kShards || s == g % kShards) tracker.MarkItem(v);
      }
    }
    server.PublishEpoch(generations[g], &tracker);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  done.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();

  EXPECT_EQ(wrong.load(), 0u);
  const TopKServerStats stats = server.stats();
  EXPECT_EQ(stats.exact_fallbacks, 0u);  // never silently lost the index
  EXPECT_EQ(stats.ann_probes, stats.misses);
  for (UserId u = 0; u < kUsers; ++u) {
    const TopKResponse got = server.TopK(u);
    EXPECT_EQ(got.items, want[kGenerations - 1][u].first) << "user " << u;
    EXPECT_EQ(got.scores, want[kGenerations - 1][u].second) << "user " << u;
  }
}

}  // namespace
}  // namespace mars
