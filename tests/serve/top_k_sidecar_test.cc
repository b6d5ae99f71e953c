#include "serve/top_k_sidecar.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/mars.h"
#include "core/persistence.h"
#include "data/synthetic.h"

namespace mars {
namespace {

struct SidecarFixture : public ::testing::Test {
  void SetUp() override {
    SyntheticConfig cfg;
    cfg.num_users = 60;
    cfg.num_items = 150;
    cfg.target_interactions = 900;
    cfg.seed = 13;
    dataset_ = GenerateSyntheticDataset(cfg);

    MultiFacetConfig mcfg;
    mcfg.dim = 12;
    mcfg.num_facets = 2;
    mcfg.theta_nmf_iterations = 3;
    model_ = std::make_unique<Mars>(mcfg);
    TrainOptions opts;
    opts.epochs = 3;
    opts.learning_rate = 0.2;
    model_->Fit(*dataset_, opts);

    // Unique per test: ctest runs tests of one binary as parallel
    // processes, and a shared path would race.
    path_ = ::testing::TempDir() + "/topk_sidecar_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  TopKServer MakeServer() const {
    TopKServerOptions opts;
    opts.k = 10;
    // One stripe = one global LRU: sidecar order round-trips exactly (the
    // recency-order assertions below depend on it; striped servers only
    // order within each stripe).
    opts.cache.stripes = 1;
    return TopKServer(model_.get(), dataset_->num_users(),
                      dataset_->num_items(), opts);
  }

  std::shared_ptr<ImplicitDataset> dataset_;
  std::unique_ptr<Mars> model_;
  std::string path_;
};

TEST_F(SidecarFixture, WarmStartEqualsColdSweepRanking) {
  TopKServer hot = MakeServer();
  for (UserId u = 0; u < 20; ++u) hot.TopK(u);  // populate via cold sweeps
  ASSERT_TRUE(SaveTopKSidecar(hot, path_));

  TopKServer fresh = MakeServer();
  EXPECT_EQ(WarmFromSidecar(&fresh, path_), 20u);
  EXPECT_EQ(fresh.stats().primed, 20u);
  for (UserId u = 0; u < 20; ++u) {
    const TopKResponse warm = fresh.TopK(u);
    EXPECT_TRUE(warm.from_cache) << "u=" << u;
    const TopKResponse cold = hot.TopK(u);
    ASSERT_EQ(warm.items.size(), cold.items.size());
    for (size_t i = 0; i < warm.items.size(); ++i) {
      EXPECT_EQ(warm.items[i], cold.items[i]) << "u=" << u << " pos=" << i;
      EXPECT_EQ(warm.scores[i], cold.scores[i]);
    }
  }
  // No sweeps happened on the warmed server: all 20 queries were hits.
  EXPECT_EQ(fresh.stats().hits, 20u);
  EXPECT_EQ(fresh.stats().misses, 0u);
}

TEST_F(SidecarFixture, WarmStartPreservesLruOrder) {
  TopKServer hot = MakeServer();
  hot.TopK(5);
  hot.TopK(9);
  hot.TopK(2);  // LRU order now: 2, 9, 5
  ASSERT_TRUE(SaveTopKSidecar(hot, path_));

  // A warmed server with capacity for only 2 entries must keep the two
  // hottest users (2 and 9), not the coldest.
  TopKServerOptions opts;
  opts.k = 10;
  opts.cache.max_users = 2;
  opts.cache.stripes = 1;
  TopKServer tiny(model_.get(), dataset_->num_users(), dataset_->num_items(),
                  opts);
  WarmFromSidecar(&tiny, path_);
  EXPECT_EQ(tiny.stats().cached_users, 2u);
  EXPECT_TRUE(tiny.TopK(2).from_cache);
  EXPECT_TRUE(tiny.TopK(9).from_cache);
  EXPECT_FALSE(tiny.TopK(5).from_cache);
}

TEST_F(SidecarFixture, WarmedServerServesAMappedSnapshot) {
  // The intended production flow: sweep + save on the training side, then
  // mmap the v3 snapshot and warm a brand-new server from the sidecar.
  const std::string model_path = ::testing::TempDir() + "/sidecar_model.v3";
  ASSERT_TRUE(SaveMarsV3(*model_, model_path));
  TopKServer hot = MakeServer();
  for (UserId u = 0; u < 8; ++u) hot.TopK(u);
  ASSERT_TRUE(SaveTopKSidecar(hot, path_));

  const auto mapped = LoadMarsMapped(model_path);
  std::remove(model_path.c_str());
  ASSERT_NE(mapped, nullptr);
  TopKServerOptions opts;
  opts.k = 10;
  TopKServer server(mapped.get(), dataset_->num_users(),
                    dataset_->num_items(), opts);
  EXPECT_EQ(WarmFromSidecar(&server, path_), 8u);
  for (UserId u = 0; u < 8; ++u) {
    const TopKResponse warm = server.TopK(u);
    EXPECT_TRUE(warm.from_cache);
    const TopKResponse reference = hot.TopK(u);
    EXPECT_EQ(warm.items, reference.items);
  }
  // A user outside the sidecar sweeps the mapped tensors directly and must
  // rank exactly like the owned model.
  const TopKResponse swept = server.TopK(30);
  EXPECT_FALSE(swept.from_cache);
  EXPECT_EQ(swept.items, hot.TopK(30).items);
}

TEST_F(SidecarFixture, EmptyCacheRoundTrips) {
  TopKServer empty = MakeServer();
  ASSERT_TRUE(SaveTopKSidecar(empty, path_));
  TopKServer fresh = MakeServer();
  EXPECT_EQ(WarmFromSidecar(&fresh, path_), 0u);
  EXPECT_EQ(fresh.stats().cached_users, 0u);
}

TEST_F(SidecarFixture, RejectsShapeMismatch) {
  TopKServer hot = MakeServer();
  hot.TopK(0);
  ASSERT_TRUE(SaveTopKSidecar(hot, path_));

  // Different k.
  TopKServerOptions opts;
  opts.k = 5;
  TopKServer other_k(model_.get(), dataset_->num_users(),
                     dataset_->num_items(), opts);
  EXPECT_EQ(WarmFromSidecar(&other_k, path_), 0u);

  // Different catalog.
  TopKServerOptions opts10;
  opts10.k = 10;
  TopKServer other_catalog(model_.get(), dataset_->num_users(),
                           dataset_->num_items() - 1, opts10);
  EXPECT_EQ(WarmFromSidecar(&other_catalog, path_), 0u);
}

TEST_F(SidecarFixture, RejectsGarbageAndTruncation) {
  TopKServer fresh = MakeServer();
  EXPECT_EQ(WarmFromSidecar(&fresh, "/no/such/sidecar.bin"), 0u);

  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << "not a sidecar";
  }
  EXPECT_EQ(WarmFromSidecar(&fresh, path_), 0u);

  // A valid sidecar truncated mid-entry loads *nothing* (all-or-nothing).
  TopKServer hot = MakeServer();
  for (UserId u = 0; u < 5; ++u) hot.TopK(u);
  ASSERT_TRUE(SaveTopKSidecar(hot, path_));
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 10));
  }
  EXPECT_EQ(WarmFromSidecar(&fresh, path_), 0u);
  EXPECT_EQ(fresh.stats().cached_users, 0u);

  // An entry pointing outside the catalog is rejected too.
  const size_t header = 4 + 4 + 8 * 4;  // magic, version, k, users, items, n
  std::string corrupt = bytes;
  const uint32_t bogus_item = 1u << 30;
  // First entry: user u32, count u32, then scores — patch the first item id
  // (after count floats of scores).
  uint32_t count;
  std::memcpy(&count, corrupt.data() + header + 4, 4);
  std::memcpy(corrupt.data() + header + 8 + count * 4, &bogus_item, 4);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  }
  EXPECT_EQ(WarmFromSidecar(&fresh, path_), 0u);
}

/// Reads a whole file into a string.
std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void Append(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Hand-assembles a sidecar (layout in serve/top_k_sidecar.cc), so a test
/// can state exactly which field is wrong. Every entry ranks `count`
/// in-catalog items, 0..count-1, by descending score.
struct SidecarEntry {
  uint32_t user;
  uint32_t count;
};
std::string BuildSidecar(uint64_t k, uint64_t users, uint64_t items,
                         uint64_t n_entries,
                         const std::vector<SidecarEntry>& entries) {
  std::string b;
  Append<uint32_t>(&b, 0x4B53524Du);  // "MRSK"
  Append<uint32_t>(&b, 1u);
  Append<uint64_t>(&b, k);
  Append<uint64_t>(&b, users);
  Append<uint64_t>(&b, items);
  Append<uint64_t>(&b, n_entries);
  for (const SidecarEntry& e : entries) {
    Append<uint32_t>(&b, e.user);
    Append<uint32_t>(&b, e.count);
    for (uint32_t i = 0; i < e.count; ++i) Append<float>(&b, 1.0f - 0.01f * i);
    for (uint32_t i = 0; i < e.count; ++i) Append<uint32_t>(&b, i);
  }
  return b;
}

TEST_F(SidecarFixture, HandBuiltSidecarLoads) {
  // Pins BuildSidecar against the real layout, so the rejections below
  // fail for the one field each one breaks.
  const size_t users = dataset_->num_users(), items = dataset_->num_items();
  WriteAll(path_, BuildSidecar(10, users, items, 3,
                               {{4, 10}, {7, 3}, {9, 0}}));
  TopKServer server = MakeServer();
  EXPECT_EQ(WarmFromSidecar(&server, path_), 3u);
  EXPECT_EQ(server.stats().cached_users, 3u);
  const TopKResponse r = server.TopK(7);
  EXPECT_TRUE(r.from_cache);
  EXPECT_EQ(r.items, (std::vector<ItemId>{0, 1, 2}));
}

TEST_F(SidecarFixture, TruncationAtEveryLengthLoadsNothing) {
  TopKServer hot = MakeServer();
  for (UserId u = 0; u < 6; ++u) hot.TopK(u);
  ASSERT_TRUE(SaveTopKSidecar(hot, path_));
  const std::string bytes = ReadAll(path_);
  ASSERT_GT(bytes.size(), 40u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteAll(path_, bytes.substr(0, len));
    TopKServer fresh = MakeServer();
    ASSERT_EQ(WarmFromSidecar(&fresh, path_), 0u) << "len=" << len;
    ASSERT_EQ(fresh.stats().cached_users, 0u) << "len=" << len;
  }
  WriteAll(path_, bytes);
  TopKServer whole = MakeServer();
  EXPECT_EQ(WarmFromSidecar(&whole, path_), 6u);
}

TEST_F(SidecarFixture, RejectsEntryLongerThanK) {
  const size_t users = dataset_->num_users(), items = dataset_->num_items();
  WriteAll(path_, BuildSidecar(10, users, items, 2, {{1, 10}, {2, 11}}));
  TopKServer server = MakeServer();
  EXPECT_EQ(WarmFromSidecar(&server, path_), 0u);
  EXPECT_EQ(server.stats().cached_users, 0u);
}

TEST_F(SidecarFixture, RejectsOutOfRangeUser) {
  const size_t users = dataset_->num_users(), items = dataset_->num_items();
  WriteAll(path_, BuildSidecar(10, users, items, 2,
                               {{1, 4}, {static_cast<uint32_t>(users), 4}}));
  TopKServer server = MakeServer();
  EXPECT_EQ(WarmFromSidecar(&server, path_), 0u);
  EXPECT_EQ(server.stats().cached_users, 0u);
}

TEST_F(SidecarFixture, RejectsMoreEntriesThanUsers) {
  const size_t users = dataset_->num_users(), items = dataset_->num_items();
  // users + 1 well-formed entries (one user repeats): only the header's
  // entry count is implausible.
  std::vector<SidecarEntry> entries;
  for (size_t i = 0; i <= users; ++i) {
    entries.push_back({static_cast<uint32_t>(i % users), 2});
  }
  WriteAll(path_, BuildSidecar(10, users, items, users + 1, entries));
  TopKServer server = MakeServer();
  EXPECT_EQ(WarmFromSidecar(&server, path_), 0u);
  EXPECT_EQ(server.stats().cached_users, 0u);
}

/// A sidecar holding one entry, user 4 ranking exactly `items` at
/// `scores` — for the rankings BuildSidecar's well-ordered entries cannot
/// express.
std::string OneEntrySidecar(uint64_t users, uint64_t catalog,
                            const std::vector<ItemId>& items,
                            const std::vector<float>& scores) {
  std::string b = BuildSidecar(10, users, catalog, 1, {});
  Append<uint32_t>(&b, 4);
  Append<uint32_t>(&b, static_cast<uint32_t>(items.size()));
  for (const float s : scores) Append<float>(&b, s);
  for (const ItemId v : items) Append<uint32_t>(&b, v);
  return b;
}

TEST_F(SidecarFixture, RejectsRepeatedItem) {
  const size_t users = dataset_->num_users(), items = dataset_->num_items();
  // Control: the same entry with distinct items loads.
  WriteAll(path_, OneEntrySidecar(users, items, {3, 5, 7}, {0.9f, 0.8f, 0.7f}));
  TopKServer control = MakeServer();
  ASSERT_EQ(WarmFromSidecar(&control, path_), 1u);
  // Item 5 twice, at one score: no sweep ranks an item twice, and the
  // pair breaks the strict (score desc, id asc) order.
  WriteAll(path_, OneEntrySidecar(users, items, {3, 5, 5}, {0.9f, 0.8f, 0.8f}));
  TopKServer server = MakeServer();
  EXPECT_EQ(WarmFromSidecar(&server, path_), 0u);
  EXPECT_EQ(server.stats().cached_users, 0u);
}

TEST_F(SidecarFixture, RejectsOutOfOrderPair) {
  const size_t users = dataset_->num_users(), items = dataset_->num_items();
  // A swapped pair of scores, then a tie listed by descending item id.
  for (const auto& scores : {std::vector<float>{0.9f, 0.7f, 0.8f},
                             std::vector<float>{0.9f, 0.8f, 0.8f}}) {
    WriteAll(path_, OneEntrySidecar(users, items, {3, 7, 5}, scores));
    TopKServer server = MakeServer();
    EXPECT_EQ(WarmFromSidecar(&server, path_), 0u);
    EXPECT_EQ(server.stats().cached_users, 0u);
  }
}

TEST_F(SidecarFixture, RejectsNaNScore) {
  const size_t users = dataset_->num_users(), items = dataset_->num_items();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Mid-ranking, where it breaks the order, and alone, where no pair does.
  for (const auto& scores : {std::vector<float>{0.9f, nan, 0.7f},
                             std::vector<float>{nan}}) {
    const std::vector<ItemId> ranked = {3, 5, 7};
    WriteAll(path_, OneEntrySidecar(
                        users, items,
                        {ranked.begin(), ranked.begin() + scores.size()},
                        scores));
    TopKServer server = MakeServer();
    EXPECT_EQ(WarmFromSidecar(&server, path_), 0u);
    EXPECT_EQ(server.stats().cached_users, 0u);
  }
}

TEST_F(SidecarFixture, RejectsTrailingBytes) {
  TopKServer hot = MakeServer();
  for (UserId u = 0; u < 4; ++u) hot.TopK(u);
  ASSERT_TRUE(SaveTopKSidecar(hot, path_));
  const std::string saved = ReadAll(path_);
  TopKServer control = MakeServer();
  ASSERT_EQ(WarmFromSidecar(&control, path_), 4u);
  // The saver ends the file at its last entry, so anything after it —
  // one stray byte, junk, or a whole well-formed entry the header does
  // not count — marks a file it never wrote.
  const size_t users = dataset_->num_users(), items = dataset_->num_items();
  for (const std::string& bytes :
       {saved + std::string(1, '\0'),
        saved + std::string("trailing junk\0\xff", 15),
        BuildSidecar(10, users, items, 1, {{4, 3}, {7, 3}})}) {
    WriteAll(path_, bytes);
    TopKServer fresh = MakeServer();
    EXPECT_EQ(WarmFromSidecar(&fresh, path_), 0u);
    EXPECT_EQ(fresh.stats().cached_users, 0u);
  }
}

TEST_F(SidecarFixture, RejectsRepeatedUser) {
  const size_t users = dataset_->num_users(), items = dataset_->num_items();
  // User 7 in two well-formed entries: Prime would silently replace the
  // first, and the load would report 3 primed for 2 cached users.
  WriteAll(path_, BuildSidecar(10, users, items, 3,
                               {{4, 10}, {7, 3}, {7, 2}}));
  TopKServer server = MakeServer();
  EXPECT_EQ(WarmFromSidecar(&server, path_), 0u);
  EXPECT_EQ(server.stats().cached_users, 0u);
}

TEST_F(SidecarFixture, PrimeValidatesInput) {
  TopKServer server = MakeServer();
  // Length mismatch.
  EXPECT_FALSE(server.Prime(0, {1, 2}, {1.0f}));
  // Over-long list (k = 10).
  std::vector<ItemId> items(11);
  std::vector<float> scores(11);
  EXPECT_FALSE(server.Prime(0, items, scores));
  // Out-of-range user.
  EXPECT_FALSE(server.Prime(static_cast<UserId>(dataset_->num_users()),
                            {1}, {1.0f}));
  // Out-of-catalog item id.
  EXPECT_FALSE(server.Prime(0, {static_cast<ItemId>(dataset_->num_items())},
                            {1.0f}));
  // Valid prime replaces an existing entry.
  EXPECT_TRUE(server.Prime(0, {3, 1}, {0.9f, 0.5f}));
  EXPECT_TRUE(server.Prime(0, {4}, {0.7f}));
  const TopKResponse r = server.TopK(0);
  EXPECT_TRUE(r.from_cache);
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_EQ(r.items[0], 4u);
  EXPECT_EQ(server.stats().cached_users, 1u);
}

TEST_F(SidecarFixture, WarmThenSaveReproducesTheSidecarBytes) {
  // A striped server whose stripes have evicted and reordered: warming a
  // fresh server from its sidecar and saving that one again must write
  // the same bytes, which pins every stripe's recency order and every
  // ranking through the prime path.
  TopKServerOptions opts;
  opts.k = 10;
  opts.cache.max_users = 16;
  opts.cache.stripes = 4;
  TopKServer hot(model_.get(), dataset_->num_users(), dataset_->num_items(),
                 opts);
  for (UserId step = 0; step < 90; ++step) {
    hot.TopK(static_cast<UserId>((step * 37 + step / 7) % 60));
  }
  ASSERT_GT(hot.stats().evictions, 0u);
  ASSERT_EQ(hot.stats().cached_users, 16u);
  ASSERT_TRUE(SaveTopKSidecar(hot, path_));
  const std::string saved = ReadAll(path_);

  TopKServer fresh(model_.get(), dataset_->num_users(),
                   dataset_->num_items(), opts);
  EXPECT_EQ(WarmFromSidecar(&fresh, path_), 16u);
  EXPECT_EQ(fresh.stats().evictions, 0u);
  ASSERT_TRUE(SaveTopKSidecar(fresh, path_));
  EXPECT_EQ(ReadAll(path_), saved);
}

}  // namespace
}  // namespace mars
