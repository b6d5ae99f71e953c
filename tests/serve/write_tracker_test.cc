#include "serve/write_tracker.h"

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/facet_store.h"
#include "core/mar.h"
#include "core/mars.h"
#include "data/synthetic.h"
#include "models/bpr.h"
#include "models/cml.h"
#include "models/lrml.h"
#include "models/metricf.h"
#include "models/sml.h"
#include "models/transcf.h"

namespace mars {
namespace {

TEST(WriteTrackerTest, ShardOfInvertsShardRange) {
  for (const size_t n : {1ul, 5ul, 64ul, 100ul, 129ul}) {
    for (const size_t shards : {1ul, 3ul, 7ul, 64ul}) {
      for (size_t s = 0; s < shards; ++s) {
        const auto [b, e] = FacetStore::ShardRange(n, s, shards);
        for (size_t x = b; x < e; ++x) {
          EXPECT_EQ(FacetStore::ShardOf(n, x, shards), s)
              << "n=" << n << " shards=" << shards << " entity=" << x;
        }
      }
    }
  }
}

TEST(WriteTrackerTest, StartsClean) {
  WriteTracker tracker(100, 200, 8);
  EXPECT_FALSE(tracker.AnyDirty());
  for (size_t s = 0; s < tracker.num_user_shards(); ++s) {
    EXPECT_FALSE(tracker.UserShardDirty(s));
  }
  for (size_t s = 0; s < tracker.num_item_shards(); ++s) {
    EXPECT_FALSE(tracker.ItemShardDirty(s));
  }
}

TEST(WriteTrackerTest, MarksOnlyTheOwningShard) {
  WriteTracker tracker(100, 200, 8);
  tracker.MarkUser(42);
  tracker.MarkItem(7);
  EXPECT_TRUE(tracker.AnyDirty());
  for (size_t s = 0; s < tracker.num_user_shards(); ++s) {
    EXPECT_EQ(tracker.UserShardDirty(s), s == tracker.UserShardOf(42));
  }
  for (size_t s = 0; s < tracker.num_item_shards(); ++s) {
    EXPECT_EQ(tracker.ItemShardDirty(s), s == tracker.ItemShardOf(7));
  }
}

TEST(WriteTrackerTest, MarkAllDirtiesEveryShard) {
  WriteTracker tracker(100, 200, 8);
  tracker.MarkAllItems();
  EXPECT_TRUE(tracker.AnyDirty());
  for (size_t s = 0; s < tracker.num_item_shards(); ++s) {
    EXPECT_TRUE(tracker.ItemShardDirty(s));
  }
  for (size_t s = 0; s < tracker.num_user_shards(); ++s) {
    EXPECT_FALSE(tracker.UserShardDirty(s));
  }
  tracker.MarkAllUsers();
  for (size_t s = 0; s < tracker.num_user_shards(); ++s) {
    EXPECT_TRUE(tracker.UserShardDirty(s));
  }
}

TEST(WriteTrackerTest, ClearResetsEverything) {
  WriteTracker tracker(100, 200, 8);
  tracker.MarkUser(1);
  tracker.MarkItem(199);
  tracker.MarkAllUsers();
  tracker.MarkAllItems();
  tracker.Clear();
  EXPECT_FALSE(tracker.AnyDirty());
}

TEST(WriteTrackerTest, ShardCountClampedToEntityCount) {
  // More shards than entities: one entity per shard, no empty shard to
  // mis-map a mark into.
  WriteTracker tracker(3, 2, 64);
  EXPECT_EQ(tracker.num_user_shards(), 3u);
  EXPECT_EQ(tracker.num_item_shards(), 2u);
  tracker.MarkUser(2);
  EXPECT_TRUE(tracker.UserShardDirty(2));
}

TEST(WriteTrackerTest, ConcurrentMarkingIsSafe) {
  // Hogwild contract: Mark* may race freely. Run under TSAN via
  // scripts/ci.sh --san.
  WriteTracker tracker(1000, 1000, 16);
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&tracker, w] {
      for (int i = 0; i < 5000; ++i) {
        tracker.MarkUser((w * 131 + i * 7) % 1000);
        tracker.MarkItem((w * 17 + i * 13) % 1000);
        if (i % 1000 == 0) tracker.MarkAllItems();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(tracker.AnyDirty());
  for (size_t s = 0; s < tracker.num_item_shards(); ++s) {
    EXPECT_TRUE(tracker.ItemShardDirty(s));
  }
}

TEST(WriteTrackerTest, FitInitialisationDirtiesEveryShard) {
  // Fit rewrites every user and item row before its first step, so the
  // first epoch boundary must see the whole catalog dirty; one training
  // step alone would mark only a shard or two (60 user / 150 item shards).
  SyntheticConfig cfg;
  cfg.num_users = 60;
  cfg.num_items = 150;
  cfg.target_interactions = 600;
  cfg.seed = 5;
  const auto data = GenerateSyntheticDataset(cfg);
  MultiFacetConfig mcfg;
  mcfg.dim = 8;
  mcfg.num_facets = 2;
  mcfg.theta_init_nmf = false;
  const std::vector<std::pair<std::string,
                              std::function<std::unique_ptr<Recommender>()>>>
      models = {
          {"MARS", [&] { return std::make_unique<Mars>(mcfg); }},
          {"MAR", [&] { return std::make_unique<Mar>(mcfg); }},
          {"BPR", [] { return std::make_unique<Bpr>(BprConfig{.dim = 8}); }},
          {"CML", [] { return std::make_unique<Cml>(CmlConfig{.dim = 8}); }},
          {"SML", [] { return std::make_unique<Sml>(SmlConfig{.dim = 8}); }},
          {"MetricF",
           [] { return std::make_unique<MetricF>(MetricFConfig{.dim = 8}); }},
          {"TransCF",
           [] { return std::make_unique<TransCf>(TransCfConfig{.dim = 8}); }},
          {"LRML", [] {
             return std::make_unique<Lrml>(
                 LrmlConfig{.dim = 8, .memory_slots = 4});
           }},
      };
  for (const auto& [name, make] : models) {
    SCOPED_TRACE(name);
    WriteTracker tracker(data->num_users(), data->num_items(), 256);
    ASSERT_EQ(tracker.num_user_shards(), data->num_users());
    ASSERT_EQ(tracker.num_item_shards(), data->num_items());
    size_t callbacks = 0;
    bool all_users = true, all_items = true;
    TrainOptions opts;
    opts.epochs = 2;
    opts.steps_per_epoch = 1;
    opts.write_tracker = &tracker;
    opts.epoch_callback = [&](size_t) {
      if (callbacks++ == 0) {
        for (size_t s = 0; s < tracker.num_user_shards(); ++s) {
          all_users = all_users && tracker.UserShardDirty(s);
        }
        for (size_t s = 0; s < tracker.num_item_shards(); ++s) {
          all_items = all_items && tracker.ItemShardDirty(s);
        }
      }
      tracker.Clear();
    };
    make()->Fit(*data, opts);
    EXPECT_EQ(callbacks, 2u);
    EXPECT_TRUE(all_users);
    EXPECT_TRUE(all_items);
  }
}

}  // namespace
}  // namespace mars
