// ANN-aware cache refresh parity. AbsorbWrites can source a refresh's
// dirty-shard candidates from the rebuilt candidate index instead of
// re-scoring whole shards; the contract is that at full probe the ANN
// refresh path is *bit-identical* to the exact path — the same entries
// refresh in place with the same ranked lists, and the same entries drop
// under the cutoff contract. These tests run an ANN server and an exact
// server side by side through identical epoch publishes and demand
// equality of responses, drop decisions, and the stats ledger (with
// `ann_refresh_probes` attributing maintenance work without disturbing
// `ann_probes + exact_fallbacks == misses`). A racing-readers variant
// pins the same parity for the TSAN matrix.
//
// The oracle is a DotScorer copy whose PerturbItems rewrites only the
// dirty shard ranges, so the tracker contract ("clean rows byte
// identical") holds *exactly* — unlike two independently trained models —
// which is what makes bit-level parity a sound assertion.
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ann/candidate_index.h"
#include "common/facet_store.h"
#include "common/rng.h"
#include "common/vec.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "eval/scorer.h"
#include "serve/top_k_server.h"
#include "serve/write_tracker.h"

namespace mars {
namespace {

constexpr size_t kFullProbe = 1u << 20;
constexpr size_t kShards = 8;

/// Dot-geometry oracle with copyable snapshots: publishing a perturbed
/// *copy* keeps earlier snapshots immutable (readers race on them safely)
/// and keeps clean rows byte-identical across epochs.
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

/// Copies `base`, perturbs the given item shards, marks every perturbed
/// item in both trackers, and returns the new snapshot.
std::shared_ptr<DotScorer> PerturbedEpoch(const DotScorer& base,
                                          size_t num_items,
                                          const std::vector<size_t>& dirty,
                                          uint64_t seed, WriteTracker* ta,
                                          WriteTracker* tb) {
  auto next = std::make_shared<DotScorer>(base);
  for (const size_t s : dirty) {
    const auto [begin, end] = FacetStore::ShardRange(num_items, s, kShards);
    next->PerturbItems(begin, end, seed + s);
    for (ItemId v = begin; v < end; ++v) {
      ta->MarkItem(v);
      if (tb != nullptr) tb->MarkItem(v);
    }
  }
  return next;
}

/// The parity harness: an ANN full-probe server and an exact server walk
/// the same warm → publish → query sequence; everything observable must
/// agree, and must equal a cold server built over the new snapshot.
void ExpectRefreshParity(std::shared_ptr<DotScorer> base, size_t num_users,
                         size_t num_items,
                         const ImplicitDataset* exclude = nullptr) {
  TopKServerOptions ann_opts;
  ann_opts.k = 7;
  ann_opts.ann.enable = true;
  ann_opts.ann.index.nprobe = kFullProbe;
  ann_opts.cache.item_shards = kShards;
  ann_opts.cache.max_users = num_users;
  ann_opts.exclude_interactions = exclude;
  TopKServerOptions exact_opts = ann_opts;
  exact_opts.ann.enable = false;

  TopKServer ann_server(std::shared_ptr<const ItemScorer>(base), num_users,
                        num_items, ann_opts);
  TopKServer exact_server(std::shared_ptr<const ItemScorer>(base), num_users,
                          num_items, exact_opts);
  for (UserId u = 0; u < num_users; ++u) {
    const TopKResponse a = ann_server.TopK(u);
    const TopKResponse b = exact_server.TopK(u);
    ASSERT_EQ(a.items, b.items) << "warm user " << u;
    ASSERT_EQ(a.scores, b.scores) << "warm user " << u;
  }

  WriteTracker ta(num_users, num_items, kShards);
  WriteTracker tb(num_users, num_items, kShards);
  const auto next =
      PerturbedEpoch(*base, num_items, {1, 3}, 900, &ta, &tb);
  ann_server.PublishEpoch(next, &ta);
  exact_server.PublishEpoch(next, &tb);

  // Same refresh outcomes, down to which entries dropped; the ANN server
  // attributes every attempt to a probe, the exact server attributes
  // none, and neither perturbs the miss ledger.
  const TopKServerStats sa = ann_server.stats();
  const TopKServerStats sb = exact_server.stats();
  EXPECT_EQ(sa.refreshed, sb.refreshed);
  EXPECT_EQ(sa.refresh_drops, sb.refresh_drops);
  EXPECT_EQ(sa.refreshed + sa.refresh_drops, num_users);
  EXPECT_GT(sa.refreshed, 0u);
  EXPECT_EQ(sa.ann_refresh_probes, num_users);
  EXPECT_EQ(sb.ann_refresh_probes, 0u);

  TopKServer cold(std::shared_ptr<const ItemScorer>(next), num_users,
                  num_items, exact_opts);
  for (UserId u = 0; u < num_users; ++u) {
    const TopKResponse a = ann_server.TopK(u);
    const TopKResponse b = exact_server.TopK(u);
    const TopKResponse want = cold.TopK(u);
    // from_cache equality pins the *drop decision* per user, not just the
    // aggregate counters.
    EXPECT_EQ(a.from_cache, b.from_cache) << "user " << u;
    EXPECT_EQ(a.items, b.items) << "user " << u;
    EXPECT_EQ(a.scores, b.scores) << "user " << u;
    EXPECT_EQ(a.items, want.items) << "user " << u;
    EXPECT_EQ(a.scores, want.scores) << "user " << u;
  }
  const TopKServerStats after = ann_server.stats();
  EXPECT_EQ(after.ann_probes + after.exact_fallbacks, after.misses);
}

TEST(TopKServerAnnRefreshTest, IvfRefreshMatchesExactPathBitForBit) {
  ExpectRefreshParity(std::make_shared<DotScorer>(40, 240, 12, 11), 40, 240);
}

TEST(TopKServerAnnRefreshTest, RefreshParityHoldsWithExclusions) {
  // Exclusions widen the refresh want to k + excluded(u); the probe must
  // still cover every admissible dirty candidate.
  SyntheticConfig cfg;
  cfg.num_users = 40;
  cfg.num_items = 240;
  cfg.target_interactions = 40 * 12;
  cfg.num_facets = 3;
  cfg.seed = 7;
  const auto data = GenerateSyntheticDataset(cfg);
  ExpectRefreshParity(std::make_shared<DotScorer>(40, 240, 12, 13), 40, 240,
                      data.get());
}

TEST(TopKServerAnnRefreshTest, RefreshDropsFollowCutoffContract) {
  // Dirtying most of the catalog pushes many old top-k lists below their
  // cutoff: both paths must drop the *same* users (checked via
  // from_cache in the harness); here we additionally require that the
  // drop path actually fired.
  const size_t kUsers = 40, kItems = 240;
  auto base = std::make_shared<DotScorer>(kUsers, kItems, 12, 14);
  TopKServerOptions opts;
  opts.k = 7;
  opts.ann.enable = true;
  opts.ann.index.nprobe = kFullProbe;
  opts.cache.item_shards = kShards;
  opts.cache.max_users = kUsers;
  TopKServer server(std::shared_ptr<const ItemScorer>(base), kUsers, kItems,
                    opts);
  for (UserId u = 0; u < kUsers; ++u) server.TopK(u);

  WriteTracker tracker(kUsers, kItems, kShards);
  const auto next = PerturbedEpoch(*base, kItems, {0, 1, 2, 3, 4, 5}, 950,
                                   &tracker, nullptr);
  server.PublishEpoch(next, &tracker);
  const TopKServerStats st = server.stats();
  EXPECT_EQ(st.refreshed + st.refresh_drops, kUsers);
  EXPECT_GT(st.refresh_drops, 0u);
  EXPECT_EQ(st.ann_refresh_probes, kUsers);

  // Dropped entries lazily re-sweep to the exact answer on next touch.
  TopKServer cold(std::shared_ptr<const ItemScorer>(next), kUsers, kItems,
                  opts);
  for (UserId u = 0; u < kUsers; ++u) {
    const TopKResponse got = server.TopK(u);
    const TopKResponse want = cold.TopK(u);
    EXPECT_EQ(got.items, want.items) << "user " << u;
    EXPECT_EQ(got.scores, want.scores) << "user " << u;
  }
}

TEST(TopKServerAnnRefreshTest, RefreshParityUnderRacingReaders) {
  // TSAN target: readers hammer TopK while the maintenance thread
  // publishes perturbed epochs whose refreshes ride the ANN probe path.
  // Each published snapshot is an immutable copy, so the only shared
  // mutable state is the server's own — which is exactly what the
  // sanitizer should be watching.
  const size_t kUsers = 32, kItems = 192, kDim = 8;
  auto current = std::make_shared<DotScorer>(kUsers, kItems, kDim, 77);
  TopKServerOptions opts;
  opts.k = 5;
  opts.ann.enable = true;
  opts.ann.index.nprobe = kFullProbe;
  opts.cache.item_shards = kShards;
  opts.cache.max_users = kUsers;
  TopKServer server(std::shared_ptr<const ItemScorer>(current), kUsers,
                    kItems, opts);
  for (UserId u = 0; u < kUsers; ++u) server.TopK(u);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 3; ++t) {
    readers.emplace_back([&server, &stop, t] {
      UserId u = static_cast<UserId>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const TopKResponse got = server.TopK(u % kUsers);
        EXPECT_EQ(got.items.size(), 5u);
        u += 7;
      }
    });
  }
  for (size_t cycle = 0; cycle < 8; ++cycle) {
    WriteTracker tracker(kUsers, kItems, kShards);
    const auto next =
        PerturbedEpoch(*current, kItems, {cycle % kShards,
                                          (cycle + 3) % kShards},
                       1000 + cycle * 16, &tracker, nullptr);
    server.PublishEpoch(next, &tracker);
    current = next;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) r.join();

  const TopKServerStats st = server.stats();
  EXPECT_GT(st.ann_refresh_probes, 0u);
  EXPECT_EQ(st.ann_probes + st.exact_fallbacks, st.misses);

  // Quiesced: one final all-dirty publish forces every surviving entry
  // through a full re-score (no racing inserts left to go stale), after
  // which the cache must agree with a cold exact server bit for bit.
  WriteTracker full(kUsers, kItems, kShards);
  const auto last = PerturbedEpoch(*current, kItems,
                                   {0, 1, 2, 3, 4, 5, 6, 7}, 2000, &full,
                                   nullptr);
  server.PublishEpoch(last, &full);
  TopKServerOptions exact_opts = opts;
  exact_opts.ann.enable = false;
  TopKServer cold(std::shared_ptr<const ItemScorer>(last), kUsers, kItems,
                  exact_opts);
  for (UserId u = 0; u < kUsers; ++u) {
    const TopKResponse got = server.TopK(u);
    const TopKResponse want = cold.TopK(u);
    EXPECT_EQ(got.items, want.items) << "user " << u;
    EXPECT_EQ(got.scores, want.scores) << "user " << u;
  }
}

}  // namespace
}  // namespace mars
