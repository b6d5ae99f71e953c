#include "data/synthetic.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"

namespace mars {
namespace {

SyntheticConfig SmallConfig() {
  SyntheticConfig cfg;
  cfg.num_users = 200;
  cfg.num_items = 150;
  cfg.target_interactions = 2000;
  cfg.num_facets = 3;
  cfg.num_categories = 9;
  cfg.seed = 5;
  return cfg;
}

TEST(SyntheticTest, RespectsEntityCounts) {
  const auto ds = GenerateSyntheticDataset(SmallConfig());
  EXPECT_EQ(ds->num_users(), 200u);
  EXPECT_EQ(ds->num_items(), 150u);
}

TEST(SyntheticTest, HitsInteractionTargetApproximately) {
  const auto ds = GenerateSyntheticDataset(SmallConfig());
  const double n = static_cast<double>(ds->num_interactions());
  EXPECT_GT(n, 2000 * 0.8);
  EXPECT_LT(n, 2000 * 1.2);
}

TEST(SyntheticTest, EveryUserMeetsMinimumHistory) {
  const auto cfg = SmallConfig();
  const auto ds = GenerateSyntheticDataset(cfg);
  for (UserId u = 0; u < ds->num_users(); ++u) {
    EXPECT_GE(ds->UserDegree(u), cfg.min_user_interactions) << "user " << u;
  }
}

TEST(SyntheticTest, NoDuplicatePairs) {
  const auto ds = GenerateSyntheticDataset(SmallConfig());
  std::set<std::pair<UserId, ItemId>> seen;
  for (const Interaction& x : ds->interactions()) {
    EXPECT_TRUE(seen.emplace(x.user, x.item).second)
        << "duplicate (" << x.user << "," << x.item << ")";
  }
}

TEST(SyntheticTest, TimestampsAreSequentialPerUser) {
  const auto ds = GenerateSyntheticDataset(SmallConfig());
  for (UserId u = 0; u < ds->num_users(); ++u) {
    const auto history = ds->HistoryOf(u);
    for (size_t i = 0; i < history.size(); ++i) {
      EXPECT_EQ(history[i].timestamp, static_cast<int64_t>(i));
    }
  }
}

TEST(SyntheticTest, CategoriesAttached) {
  const auto cfg = SmallConfig();
  const auto ds = GenerateSyntheticDataset(cfg);
  ASSERT_TRUE(ds->has_categories());
  EXPECT_EQ(ds->num_categories(), cfg.num_categories);
  for (ItemId v = 0; v < ds->num_items(); ++v) {
    const int c = ds->ItemCategory(v);
    EXPECT_GE(c, 0);
    EXPECT_LT(c, cfg.num_categories);
  }
  // Names come from the default pool.
  EXPECT_EQ(ds->CategoryName(0), "DVDs");
}

TEST(SyntheticTest, DeterministicForSeed) {
  const auto a = GenerateSyntheticDataset(SmallConfig());
  const auto b = GenerateSyntheticDataset(SmallConfig());
  ASSERT_EQ(a->num_interactions(), b->num_interactions());
  EXPECT_EQ(a->interactions(), b->interactions());
}

/// CRC-32 over every interaction's (user, item, timestamp) in log order,
/// then every item's category — the generator's whole output, in host
/// (little-endian) byte order.
uint32_t DatasetDigest(const ImplicitDataset& ds) {
  std::vector<uint8_t> bytes;
  const auto put = [&bytes](auto v) {
    const auto* p = reinterpret_cast<const uint8_t*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof(v));
  };
  for (const Interaction& x : ds.interactions()) {
    put(x.user);
    put(x.item);
    put(x.timestamp);
  }
  for (ItemId v = 0; v < ds.num_items(); ++v) {
    put(static_cast<int32_t>(ds.ItemCategory(v)));
  }
  return Crc32(bytes.data(), bytes.size());
}

TEST(SyntheticTest, GoldenDigestPinsTheGeneratedDataset) {
  // Every model and benchmark trains on this generator's output, so a
  // refactor of it must not change a byte. DeterministicForSeed only
  // checks that a run agrees with itself; these values pin the output
  // itself, for the taste-only path and the session-chaining path.
  auto cfg = SmallConfig();
  EXPECT_EQ(DatasetDigest(*GenerateSyntheticDataset(cfg)), 0x7fbabf47u);
  cfg.session_chain = 0.3;
  EXPECT_EQ(DatasetDigest(*GenerateSyntheticDataset(cfg)), 0xa840cad8u);
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  auto cfg = SmallConfig();
  const auto a = GenerateSyntheticDataset(cfg);
  cfg.seed = 6;
  const auto b = GenerateSyntheticDataset(cfg);
  EXPECT_NE(a->interactions(), b->interactions());
}

TEST(SyntheticTest, ActivityIsSkewed) {
  auto cfg = SmallConfig();
  cfg.target_interactions = 4000;
  const auto ds = GenerateSyntheticDataset(cfg);
  size_t max_deg = 0, min_deg = SIZE_MAX;
  for (UserId u = 0; u < ds->num_users(); ++u) {
    max_deg = std::max(max_deg, ds->UserDegree(u));
    min_deg = std::min(min_deg, ds->UserDegree(u));
  }
  // Power-law activity: the most active user should dominate the least.
  EXPECT_GE(max_deg, min_deg * 3);
}

TEST(SyntheticTest, CustomCategoryNames) {
  auto cfg = SmallConfig();
  cfg.num_categories = 3;
  cfg.num_facets = 3;
  cfg.category_names = {"Alpha", "Beta", "Gamma"};
  const auto ds = GenerateSyntheticDataset(cfg);
  EXPECT_EQ(ds->CategoryName(0), "Alpha");
  EXPECT_EQ(ds->CategoryName(2), "Gamma");
}

TEST(SyntheticTest, ManyCategoriesGetGeneratedNames) {
  auto cfg = SmallConfig();
  cfg.num_categories = 25;  // beyond the default name pool
  cfg.num_items = 300;
  const auto ds = GenerateSyntheticDataset(cfg);
  EXPECT_EQ(ds->num_categories(), 25);
  EXPECT_EQ(ds->CategoryName(24), "Category-24");
}

TEST(SyntheticTest, SingleFacetDegeneratesGracefully) {
  auto cfg = SmallConfig();
  cfg.num_facets = 1;
  cfg.num_categories = 4;
  const auto ds = GenerateSyntheticDataset(cfg);
  EXPECT_GT(ds->num_interactions(), 0u);
}

TEST(SyntheticTest, DefaultCategoryNamesNonEmptyAndUnique) {
  const auto& names = DefaultCategoryNames();
  EXPECT_GE(names.size(), 12u);
  std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
}

}  // namespace
}  // namespace mars
