// Shard-granularity dirty tracking of training writes, for serving caches.
//
// Hogwild workers update embedding rows lock-free, so the serving layer can
// never know *exactly* which floats changed — but it does not need to: the
// top-k cache (serve/top_k_server.h) invalidates at the granularity of the
// same balanced entity shards the FacetStore is swept in. Each training
// step marks the shards of the rows it touched with one relaxed atomic
// store per row; models whose steps also write *global* tables (LRML
// memory/keys, TransCF neighborhood means, MARS radii) mark the whole
// catalog instead, since every score depends on them.
//
// Concurrency contract (the snapshot / quiesce contract, ARCHITECTURE.md):
// Mark* calls may race freely with each other; the read/clear side
// (dirty queries, Clear, TopKServer::AbsorbWrites) must run quiesced, at an
// epoch boundary with the trainer pool idle.
#ifndef MARS_SERVE_WRITE_TRACKER_H_
#define MARS_SERVE_WRITE_TRACKER_H_

#include <atomic>
#include <cstddef>
#include <vector>

#include "data/interaction.h"

namespace mars {

/// Per-epoch dirty-shard accumulator shared by trainer and server.
class WriteTracker {
 public:
  /// Default shard count; matches the sweep granularity well enough that
  /// one dirty row invalidates ~1/64th of the cached user population.
  static constexpr size_t kDefaultShards = 64;

  /// Tracks `num_users` user rows and `num_items` item rows in
  /// `num_shards` balanced shards each (clamped to the entity counts so
  /// every shard is non-empty).
  WriteTracker(size_t num_users, size_t num_items,
               size_t num_shards = kDefaultShards);

  /// The shard count a tracker over `num_entities` rows actually uses for
  /// a requested `num_shards` — shared with TopKServer so the server's
  /// per-item-shard candidate lists line up with the tracker's flags.
  static size_t ClampedShardCount(size_t num_entities, size_t num_shards);

  size_t num_users() const { return num_users_; }
  size_t num_items() const { return num_items_; }
  size_t num_user_shards() const { return user_dirty_.size(); }
  size_t num_item_shards() const { return item_dirty_.size(); }

  /// Shard owning user/item row `e` — the inverse of
  /// FacetStore::ShardRange over the same entity count and shard count.
  size_t UserShardOf(UserId u) const;
  size_t ItemShardOf(ItemId v) const;

  // --- Marking side: callable concurrently from Hogwild workers. ----------

  void MarkUser(UserId u) {
    user_dirty_[UserShardOf(u)].store(1, std::memory_order_relaxed);
  }
  void MarkItem(ItemId v) {
    item_dirty_[ItemShardOf(v)].store(1, std::memory_order_relaxed);
  }
  /// Global-table writes: every user / item score is affected.
  void MarkAllUsers() { all_users_.store(1, std::memory_order_relaxed); }
  void MarkAllItems() { all_items_.store(1, std::memory_order_relaxed); }
  /// Every row rewritten — e.g. Fit's initialisation replaced both tables.
  void MarkAll() {
    MarkAllUsers();
    MarkAllItems();
  }

  // --- Reading side: quiesced only (no concurrent Mark*). -----------------

  bool UserShardDirty(size_t shard) const;
  bool ItemShardDirty(size_t shard) const;
  bool AnyDirty() const;
  /// Resets every flag; the next epoch accumulates from scratch.
  void Clear();

 private:
  size_t num_users_;
  size_t num_items_;
  std::vector<std::atomic<uint8_t>> user_dirty_;
  std::vector<std::atomic<uint8_t>> item_dirty_;
  std::atomic<uint8_t> all_users_{0};
  std::atomic<uint8_t> all_items_{0};
};

}  // namespace mars

#endif  // MARS_SERVE_WRITE_TRACKER_H_
