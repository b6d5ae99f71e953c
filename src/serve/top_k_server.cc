#include "serve/top_k_server.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "common/facet_store.h"

namespace mars {

namespace {

/// Items per scoring block of the exact sweep: the B score rows of one
/// block (B · 2048 · 4 bytes) stay cache-resident while the per-user
/// selection consumes them, and the block's item rows are streamed from
/// memory exactly once for the whole batch. Blocking is invisible in the
/// results — selection carries across blocks.
constexpr size_t kBatchBlockItems = 2048;

/// Ranking order of the served lists: score descending, item id ascending
/// on ties — the same deterministic order the equivalence tests pin.
inline bool RanksBetter(const std::pair<float, ItemId>& a,
                        const std::pair<float, ItemId>& b) {
  return a.first > b.first || (a.first == b.first && a.second < b.second);
}

/// Shrinks `buf` to its k best entries by RanksBetter (unsorted).
inline void CompactTopK(std::vector<std::pair<float, ItemId>>* buf,
                        size_t k) {
  if (k == 0) {
    buf->clear();
    return;
  }
  if (buf->size() <= k) return;
  std::nth_element(buf->begin(), buf->begin() + (k - 1), buf->end(),
                   RanksBetter);
  buf->resize(k);
}

/// Sorts a candidate pool's k best into the final ranked (items, scores).
void RankCandidates(std::vector<std::pair<float, ItemId>>* pool, size_t k,
                    std::vector<ItemId>* items, std::vector<float>* scores) {
  CompactTopK(pool, k);
  std::sort(pool->begin(), pool->end(), RanksBetter);
  items->resize(pool->size());
  scores->resize(pool->size());
  for (size_t i = 0; i < pool->size(); ++i) {
    (*items)[i] = (*pool)[i].second;
    (*scores)[i] = (*pool)[i].first;
  }
}

/// Streaming top-k selection over score ranges: threshold + bounded
/// append + rare nth_element compaction, one comparison per item in the
/// steady state. The state object exists so the blocked sweep (BatchSweep
/// feeds one block's scores at a time) carries the threshold *across*
/// blocks — resetting it per block re-warms the candidate buffer every
/// 2k items, which measurably dominates the sweep's non-scoring cost at
/// large catalogs. The threshold is always a sound rejector
/// (anything not beating the current k-th best can never make the
/// top-k), so feeding one range or many yields the same selection.
class RangeTopKSelector {
 public:
  RangeTopKSelector(UserId u, size_t k, const ImplicitDataset* exclude)
      : u_(u), k_(k), exclude_(exclude) {
    buf_.reserve(BufCap());
  }

  void Consume(const float* scores, ItemId begin, ItemId end) {
    if (k_ == 0) return;
    for (ItemId v = begin; v < end; ++v) {
      if (exclude_ != nullptr && exclude_->HasInteraction(u_, v)) continue;
      const std::pair<float, ItemId> cand{scores[v - begin], v};
      if (has_threshold_ && !RanksBetter(cand, threshold_)) continue;
      buf_.push_back(cand);
      if (buf_.size() >= BufCap()) {
        CompactTopK(&buf_, k_);
        threshold_ = buf_[k_ - 1];
        has_threshold_ = true;
      }
    }
  }

  /// Ranks the k best consumed entries into (items, scores).
  void Finish(std::vector<ItemId>* items, std::vector<float>* scores) {
    RankCandidates(&buf_, k_, items, scores);
  }

 private:
  size_t BufCap() const { return 4 * k_; }

  UserId u_;
  size_t k_;
  const ImplicitDataset* exclude_;
  std::vector<std::pair<float, ItemId>> buf_;
  std::pair<float, ItemId> threshold_{};
  bool has_threshold_ = false;
};

size_t ResolveStripeCount(const TopKServerOptions& options,
                          size_t num_users) {
  size_t stripes = options.cache.stripes > 0 ? options.cache.stripes : 16;
  if (options.cache.max_users > 0) {
    stripes = std::min(stripes, options.cache.max_users);
  }
  stripes = std::min(stripes, std::max<size_t>(1, num_users));
  return std::max<size_t>(1, stripes);
}

}  // namespace

TopKServer::TopKServer(std::shared_ptr<const ItemScorer> model,
                       size_t num_users, size_t num_items,
                       TopKServerOptions options)
    : model_(std::move(model)),
      num_users_(num_users),
      num_items_(num_items),
      item_shards_(WriteTracker::ClampedShardCount(
          num_items, options.cache.item_shards)),
      options_(options),
      stripes_(ResolveStripeCount(options, num_users)) {
  MARS_CHECK(model_.Acquire() != nullptr);
  MARS_CHECK(num_items >= 1);
  MARS_CHECK(options.cache.item_shards >= 1);
  // Distribute the cache bound exactly: stripe i takes an extra slot
  // until the remainder is used up, so the capacities sum to the bound.
  const size_t n = stripes_.size();
  for (size_t i = 0; i < n; ++i) {
    stripes_[i].capacity =
        options_.cache.max_users / n + (i < options_.cache.max_users % n);
    stripes_[i].depth = std::min(options_.k, num_items_);
  }
  if (options_.ann.prebuilt != nullptr) {
    MARS_CHECK_MSG(options_.ann.prebuilt->num_items() == num_items_,
                   "injected ANN index must cover the server's catalog");
    ann_enabled_ = true;
    ann_index_.Publish(options_.ann.prebuilt);
  } else if (options_.ann.enable) {
    ann_enabled_ = true;
    RefreshAnnIndex(model_.Acquire(), nullptr);
  }
}

TopKServer::TopKServer(const ItemScorer* model, size_t num_users,
                       size_t num_items, TopKServerOptions options)
    : TopKServer(UnownedSnapshot(model), num_users, num_items, options) {}

size_t TopKServer::StripeOf(UserId u) const {
  return FacetStore::ShardOf(num_users_, u, stripes_.size());
}

void TopKServer::Stripe::Unlink(uint32_t s) {
  CacheSlot& slot = slots[s];
  (slot.prev == kNoSlot ? lru_head : slots[slot.prev].next) = slot.next;
  (slot.next == kNoSlot ? lru_tail : slots[slot.next].prev) = slot.prev;
}

void TopKServer::Stripe::PushFront(uint32_t s) {
  CacheSlot& slot = slots[s];
  slot.prev = kNoSlot;
  slot.next = lru_head;
  (lru_head == kNoSlot ? lru_tail : slots[lru_head].prev) = s;
  lru_head = s;
}

void TopKServer::Stripe::Store(uint32_t s,
                               std::span<const ItemId> ranked_items,
                               std::span<const float> ranked_scores,
                               uint64_t epoch) {
  MARS_DCHECK(ranked_items.size() <= depth &&
              ranked_scores.size() == ranked_items.size());
  CacheSlot& slot = slots[s];
  slot.size = static_cast<uint32_t>(ranked_items.size());
  slot.epoch = epoch;
  if (slot.size == 0) return;
  std::memcpy(items(s), ranked_items.data(), slot.size * sizeof(ItemId));
  std::memcpy(scores(s), ranked_scores.data(), slot.size * sizeof(float));
}

std::pmr::unordered_map<UserId, uint32_t>::iterator
TopKServer::Stripe::Release(
    std::pmr::unordered_map<UserId, uint32_t>::iterator it) {
  const uint32_t s = it->second;
  Unlink(s);
  slots[s].next = free_head;
  free_head = s;
  return map.erase(it);
}

uint32_t TopKServer::Stripe::Claim(UserId u) {
  if (map.size() >= capacity && lru_tail != kNoSlot) {
    // Full: the least recently used entry gives up its slot, and its map
    // node is re-keyed in place of a fresh one.
    const uint32_t s = lru_tail;
    Unlink(s);
    auto node = map.extract(slots[s].user);
    node.key() = u;
    map.insert(std::move(node));
    slots[s].user = u;
    ++evictions;
    return s;
  }
  uint32_t s = free_head;
  if (s != kNoSlot) {
    free_head = slots[s].next;
  } else {
    s = static_cast<uint32_t>(slots.size());
    slots.emplace_back();
    if (s / kSlotsPerBlock == item_blocks.size()) {
      item_blocks.push_back(std::make_unique_for_overwrite<ItemId[]>(
          kSlotsPerBlock * depth));
      score_blocks.push_back(std::make_unique_for_overwrite<float[]>(
          kSlotsPerBlock * depth));
    }
  }
  slots[s].user = u;
  map.emplace(u, s);
  return s;
}

bool TopKServer::TryCacheHit(UserId u, TopKResponse* out) {
  Stripe& stripe = stripes_[StripeOf(u)];
  std::unique_lock<std::mutex> lock(stripe.mu);
  const auto it = stripe.map.find(u);
  if (it == stripe.map.end()) return false;
  ++stripe.hits;
  const uint32_t s = it->second;
  stripe.Unlink(s);
  stripe.PushFront(s);
  const CacheSlot& slot = stripe.slots[s];
  out->items.assign(stripe.items(s), stripe.items(s) + slot.size);
  out->scores.assign(stripe.scores(s), stripe.scores(s) + slot.size);
  out->from_cache = true;
  out->epoch = slot.epoch;
  return true;
}

bool TopKServer::ValidateRequest(const TopKRequest& request,
                                 TopKResponse* out) const {
  if (request.user >= num_users_) {
    out->status = TopKStatus::kInvalidUser;
  } else if (request.k > options_.k) {
    // The cache holds rankings at the configured depth; a deeper list
    // cannot be served as a prefix of it (see serve/request.h).
    out->status = TopKStatus::kInvalidK;
  } else if ((request.flags & ~kTopKFlagsMask) != 0) {
    out->status = TopKStatus::kInvalidFlags;
  } else {
    return true;
  }
  return false;
}

void TopKServer::TruncateToK(uint32_t k, TopKResponse* out) {
  if (k == 0 || out->items.size() <= k) return;
  out->items.resize(k);
  out->scores.resize(k);
}

TopKResponse TopKServer::ServeOne(UserId u, bool bypass_cache) {
  TopKResponse result;
  if (!bypass_cache && TryCacheHit(u, &result)) return result;
  std::vector<TopKResponse> results(1);
  const uint64_t pinned_epoch = SweepMisses({&u, 1}, &results);
  InsertMissEntry(u, results[0], pinned_epoch);
  return std::move(results[0]);
}

TopKResponse TopKServer::TopK(const TopKRequest& request) {
  TopKResponse result;
  if (!ValidateRequest(request, &result)) return result;
  result = ServeOne(request.user,
                    (request.flags & kTopKFlagBypassCache) != 0);
  TruncateToK(request.k, &result);
  return result;
}

TopKResponse TopKServer::TopK(UserId u) {
  MARS_CHECK(u < num_users_);
  return ServeOne(u, /*bypass_cache=*/false);
}

uint64_t TopKServer::SweepMisses(std::span<const UserId> users,
                                 std::vector<TopKResponse>* results) {
  // Pin the current epoch once for the whole batch and sweep it outside
  // every lock — the maintenance side may publish the next epoch
  // mid-sweep without blocking us, and other stripes keep serving hits
  // meanwhile. Snapshot and epoch come from one Acquire, so each
  // result's label is always the epoch actually ranked.
  uint64_t pinned_epoch = 0;
  const std::shared_ptr<const ItemScorer> snapshot =
      model_.Acquire(&pinned_epoch);
  results->resize(users.size());
  // The index may be one epoch stale relative to the snapshot — recall
  // cost only; the re-rank scores with the snapshot.
  const std::shared_ptr<const SphericalIvfIndex> index =
      ProbeIndex(*snapshot);
  if (index != nullptr) {
    AnnBatchSweep(*snapshot, *index, users, results);
  } else {
    BatchSweep(*snapshot, users, results);
  }
  if (users.size() >= 2) {
    // The batching counters describe multi-user sweeps only: a batch of
    // one is a plain miss, however it reached this point.
    batch_sweeps_.fetch_add(1, std::memory_order_relaxed);
    coalesced_misses_.fetch_add(users.size(), std::memory_order_relaxed);
    uint64_t seen = max_batch_.load(std::memory_order_relaxed);
    while (seen < users.size() &&
           !max_batch_.compare_exchange_weak(seen, users.size(),
                                             std::memory_order_relaxed)) {
    }
  }
  if (index != nullptr) {
    ann_probes_.fetch_add(users.size(), std::memory_order_relaxed);
  } else {
    exact_fallbacks_.fetch_add(users.size(), std::memory_order_relaxed);
  }
  for (TopKResponse& r : *results) {
    r.epoch = pinned_epoch;
    r.from_cache = false;
  }
  return pinned_epoch;
}

void TopKServer::InsertMissEntry(UserId u, const TopKResponse& result,
                                 uint64_t pinned_epoch) {
  Stripe& stripe = stripes_[StripeOf(u)];
  std::unique_lock<std::mutex> lock(stripe.mu);
  ++stripe.misses;
  // Cache only when this is still the current epoch (checked under the
  // stripe lock — see the publish-order note in the file comment): if a
  // swap landed mid-sweep, either AbsorbWrites will still scan this
  // stripe after our insert (and repair the entry from the tracker
  // flags), or the epoch moved before we got here and we must not
  // publish a ranking of a superseded snapshot into the cache.
  if (stripe.capacity > 0 && model_.epoch() == pinned_epoch) {
    const auto it = stripe.map.find(u);
    uint32_t s = 0;
    if (it != stripe.map.end()) {
      // A concurrent miss for the same user beat us here; replace its
      // payload (identical unless epochs differ) and reuse its slot.
      s = it->second;
      stripe.Unlink(s);
    } else {
      s = stripe.Claim(u);
    }
    stripe.Store(s, result.items, result.scores, pinned_epoch);
    stripe.PushFront(s);
  } else if (stripe.capacity > 0) {
    // The epoch moved mid-sweep, so this ranking must not be cached —
    // but the caller has already been *served* it at pinned_epoch. An
    // older entry for the same user may still be cached during the
    // publisher's swap-to-absorb window (AbsorbWrites hasn't reached
    // this stripe yet); serving it next would make this caller observe
    // the epoch going backwards. Drop it: per-user observed epochs stay
    // monotone, at the price of one lazy re-miss.
    const auto it = stripe.map.find(u);
    if (it != stripe.map.end() &&
        stripe.slots[it->second].epoch < pinned_epoch) {
      ++stripe.invalidated;
      stripe.Release(it);
    }
  }
}

std::vector<TopKResponse> TopKServer::TopKBatch(
    std::span<const TopKRequest> requests) {
  std::vector<TopKResponse> out(requests.size());
  if (requests.empty()) return out;
  // Per-position resolution exactly as TopK(request) would: malformed
  // requests are stamped and cost no sweep, hits come off the cache
  // (unless bypassed), and the remaining users are deduped
  // (first-occurrence order) and swept as one batch.
  std::vector<UserId> miss_users;
  std::vector<size_t> miss_slot(requests.size(), static_cast<size_t>(-1));
  for (size_t i = 0; i < requests.size(); ++i) {
    const TopKRequest& request = requests[i];
    if (!ValidateRequest(request, &out[i])) continue;
    const UserId u = request.user;
    size_t s = 0;
    while (s < miss_users.size() && miss_users[s] != u) ++s;
    if (s < miss_users.size()) {
      miss_slot[i] = s;
      continue;
    }
    if ((request.flags & kTopKFlagBypassCache) == 0 &&
        TryCacheHit(u, &out[i])) {
      TruncateToK(request.k, &out[i]);
      continue;
    }
    miss_slot[i] = miss_users.size();
    miss_users.push_back(u);
  }
  if (miss_users.empty()) return out;
  // Misses go out in groups of kMaxBatch, bounding the sweep's score
  // buffers for arbitrarily large requests. Each group pins its own epoch,
  // like consecutive TopK calls.
  std::vector<TopKResponse> results(miss_users.size());
  for (size_t base = 0; base < miss_users.size(); base += kMaxBatch) {
    const size_t n = std::min(kMaxBatch, miss_users.size() - base);
    std::vector<TopKResponse> group;
    const uint64_t pinned_epoch =
        SweepMisses({miss_users.data() + base, n}, &group);
    for (size_t s = 0; s < n; ++s) {
      InsertMissEntry(miss_users[base + s], group[s], pinned_epoch);
      results[base + s] = std::move(group[s]);
    }
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    if (miss_slot[i] != static_cast<size_t>(-1)) {
      out[i] = results[miss_slot[i]];
      TruncateToK(requests[i].k, &out[i]);
    }
  }
  return out;
}

std::vector<TopKResponse> TopKServer::TopKBatch(
    std::span<const UserId> users) {
  std::vector<TopKRequest> requests(users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    MARS_CHECK(users[i] < num_users_);
    requests[i].user = users[i];
  }
  return TopKBatch(std::span<const TopKRequest>(requests));
}

void TopKServer::BatchSweep(const ItemScorer& model,
                            std::span<const UserId> users,
                            std::vector<TopKResponse>* results) {
  const size_t B = users.size();
  const size_t k = std::min(options_.k, num_items_);
  const ImplicitDataset* exclude = options_.exclude_interactions;

  // The catalog is scanned in kBatchBlockItems blocks: every item row in a
  // block is read once and scored for all B users (ScoreItemRangeMulti),
  // and the B score rows stay cache-resident while the per-user selection
  // consumes them. An item's score does not depend on the range it was
  // scored in, and the union of per-block top-ks contains the catalog
  // top-k, so blocking never changes the served ranking.
  static thread_local std::vector<float> block_scores;
  std::vector<float*> outs(B);
  // One selector per user for the whole catalog: the rejection threshold
  // tightens once over the first blocks and then survives block
  // boundaries, keeping selection at one comparison per item.
  std::vector<RangeTopKSelector> selectors;
  selectors.reserve(B);
  for (size_t b = 0; b < B; ++b) {
    selectors.emplace_back(users[b], k, exclude);
  }
  const ItemId end = static_cast<ItemId>(num_items_);
  for (ItemId bb = 0; bb < end; bb += static_cast<ItemId>(kBatchBlockItems)) {
    const ItemId be =
        std::min<ItemId>(end, bb + static_cast<ItemId>(kBatchBlockItems));
    block_scores.resize(B * (be - bb));
    for (size_t b = 0; b < B; ++b) {
      outs[b] = block_scores.data() + b * (be - bb);
    }
    if (B == 1) {
      // A lone user scores through the single-user kernels: their row
      // loop runs ~30% faster than the multi-user kernels' one-user tail
      // (DotBatch vs DotBatchMulti, dim 32), and the ScoreItemRangeMulti
      // contract makes the two bit-identical.
      model.ScoreItemRange(users[0], bb, be, outs[0]);
    } else {
      model.ScoreItemRangeMulti(users, bb, be, outs.data());
    }
    for (size_t b = 0; b < B; ++b) {
      selectors[b].Consume(outs[b], bb, be);
    }
  }
  for (size_t b = 0; b < B; ++b) {
    selectors[b].Finish(&(*results)[b].items, &(*results)[b].scores);
  }
}

void TopKServer::AnnBatchSweep(const ItemScorer& model,
                               const SphericalIvfIndex& index,
                               std::span<const UserId> users,
                               std::vector<TopKResponse>* results) {
  const size_t B = users.size();
  const size_t k = std::min(options_.k, num_items_);
  const ImplicitDataset* exclude = options_.exclude_interactions;
  // Per-thread buffers: successive misses on one frontend thread reuse
  // the allocations, so a miss allocates nothing beyond its response. The
  // probe appends to the candidate lists, hence the clears.
  static thread_local std::vector<size_t> wants;
  static thread_local std::vector<float> queries;
  static thread_local std::vector<std::vector<ItemId>> cands;
  static thread_local std::vector<float> cand_scores;
  static thread_local std::vector<std::pair<float, ItemId>> selected;
  wants.resize(B);
  queries.resize(B * index.dim());
  if (cands.size() < B) cands.resize(B);
  for (size_t b = 0; b < B; ++b) cands[b].clear();
  for (size_t b = 0; b < B; ++b) {
    wants[b] = AnnWant(users[b]);
    model.WriteIndexQuery(users[b], queries.data() + b * index.dim());
  }
  // One shared probe: the IVF scores all B queries against the centroid
  // matrix in a single multi-query pass; per query the candidate set is
  // bit-identical to a lone Probe (the ProbeBatch contract), so a batch of
  // B re-ranks to the answers of B batches of one.
  index.ProbeBatch(queries.data(), B, wants.data(), &cands);
  for (size_t b = 0; b < B; ++b) {
    cand_scores.resize(cands[b].size());
    model.ScoreItems(users[b], cands[b], cand_scores.data());
    selected.clear();
    for (size_t i = 0; i < cands[b].size(); ++i) {
      if (exclude != nullptr &&
          exclude->HasInteraction(users[b], cands[b][i])) {
        continue;
      }
      selected.emplace_back(cand_scores[i], cands[b][i]);
    }
    RankCandidates(&selected, k, &(*results)[b].items,
                   &(*results)[b].scores);
  }
}

size_t TopKServer::AnnWant(UserId u) const {
  const size_t k = std::min(options_.k, num_items_);
  const ImplicitDataset* exclude = options_.exclude_interactions;
  const size_t excluded = exclude != nullptr ? exclude->UserDegree(u) : 0;
  return std::max(k * AnnIndexOptions::overfetch, k + excluded);
}

std::shared_ptr<const SphericalIvfIndex> TopKServer::ProbeIndex(
    const ItemScorer& snapshot) const {
  if (!ann_enabled_) return nullptr;
  std::shared_ptr<const SphericalIvfIndex> index = ann_index_.Acquire();
  if (index == nullptr || snapshot.index_dim() != index->dim()) {
    return nullptr;
  }
  return index;
}

void TopKServer::RefreshAnnIndex(
    const std::shared_ptr<const ItemScorer>& snapshot,
    const std::vector<size_t>* dirty_items) {
  if (!ann_enabled_) return;
  if (dirty_items != nullptr) {
    if (const auto current = ProbeIndex(*snapshot)) {
      ann_index_.Publish(
          current->Rebuilt(*snapshot, *dirty_items, item_shards_, nullptr));
      return;
    }
  }
  // From-scratch build: no index yet, an unknown delta, or the model
  // changed shape. Publishing null (an unindexable model) routes misses to
  // the exact sweep.
  ann_index_.Publish(BuildCandidateIndex(*snapshot, num_items_,
                                         options_.ann.index, nullptr));
}

void TopKServer::AbsorbWrites(WriteTracker* tracker) {
  MARS_CHECK(tracker != nullptr);
  MARS_CHECK(tracker->num_users() == num_users_);
  MARS_CHECK(tracker->num_items() == num_items_);
  MARS_CHECK_MSG(tracker->num_item_shards() == item_shards_,
                 "WriteTracker item-shard count must match the server's "
                 "(TopKServerOptions::cache.item_shards)");

  std::vector<size_t> dirty_items;
  for (size_t s = 0; s < item_shards_; ++s) {
    if (tracker->ItemShardDirty(s)) dirty_items.push_back(s);
  }
  const bool all_items_dirty = dirty_items.size() == item_shards_;

  uint64_t current_epoch = 0;
  const std::shared_ptr<const ItemScorer> snapshot =
      model_.Acquire(&current_epoch);
  // Re-insert dirty item shards into the ANN index *before* the cache
  // scan, so every miss racing the scan (and every post-absorb miss)
  // probes lists consistent with the snapshot. All-dirty epochs rebuild
  // from scratch — same policy as the cache's drop-everything case: with
  // everything moved, fresh centroids beat reassignment onto stale ones.
  if (!dirty_items.empty()) {
    RefreshAnnIndex(snapshot, all_items_dirty ? nullptr : &dirty_items);
  }
  // With item shards dirty, entries of clean users are dropped instead of
  // refreshed when every item shard is dirty (refreshing them all costs
  // the cold sweeps they would save) or when misses probe the index (a
  // refresh would run a miss's own probe under the stripe lock, even for
  // entries nobody reads again). Either way the next query pays one lazy
  // miss; only servers whose misses take the exact sweep refresh.
  const bool drop_item_dirty =
      !dirty_items.empty() &&
      (all_items_dirty || ProbeIndex(*snapshot) != nullptr);
  RefreshScratch scratch;
  for (Stripe& stripe : stripes_) {
    std::unique_lock<std::mutex> lock(stripe.mu);
    for (auto it = stripe.map.begin(); it != stripe.map.end();) {
      const bool user_dirty =
          tracker->UserShardDirty(tracker->UserShardOf(it->first));
      bool drop = user_dirty || drop_item_dirty;
      if (!drop && !dirty_items.empty()) {
        if (RefreshEntry(*snapshot, it->first, dirty_items, &scratch,
                         &stripe, it->second)) {
          stripe.slots[it->second].epoch = current_epoch;
          ++stripe.refreshed;
        } else {
          // The k-th-rank cutoff dropped: exactness is unprovable by the
          // cheap merge. Drop and let the next query pay one lazy miss —
          // same bounded-stall policy as the drops above.
          drop = true;
          ++stripe.refresh_drops;
        }
      }
      if (drop) {
        ++stripe.invalidated;
        it = stripe.Release(it);
      } else {
        ++it;
      }
    }
  }
  tracker->Clear();
}

bool TopKServer::RefreshEntry(const ItemScorer& model, UserId u,
                              const std::vector<size_t>& dirty,
                              RefreshScratch* scratch, Stripe* stripe,
                              uint32_t slot) {
  const size_t k = std::min(options_.k, num_items_);
  if (k == 0) return true;  // nothing cached at k == 0; trivially exact
  const ImplicitDataset* exclude = options_.exclude_interactions;
  const size_t size = stripe->slots[slot].size;
  const ItemId* const items = stripe->items(slot);
  const float* const scores = stripe->scores(slot);

  // Old k-th rank — the exactness cutoff. An entry shorter than k listed
  // the whole eligible catalog, so its merge is exhaustive and exact.
  const bool old_full = size >= k;
  const std::pair<float, ItemId> old_kth =
      old_full ? std::pair<float, ItemId>{scores[size - 1], items[size - 1]}
               : std::pair<float, ItemId>{};

  // Survivors: cached rows outside every dirty shard (their scores are
  // byte-identical across the swap by the tracker contract). `dirty` is
  // sorted, so membership is a binary search.
  std::vector<std::pair<float, ItemId>>& candidates = scratch->candidates;
  candidates.clear();
  for (size_t i = 0; i < size; ++i) {
    const size_t s = FacetStore::ShardOf(num_items_, items[i], item_shards_);
    if (!std::binary_search(dirty.begin(), dirty.end(), s)) {
      candidates.emplace_back(scores[i], items[i]);
    }
  }

  // Re-score the dirty shards against the current snapshot, accepting
  // into one shared buffer. The acceptance threshold starts at the *old*
  // k-th rank: a dirty item strictly worse than it can only enter the
  // new top-k if the cutoff drops — and a dropped cutoff fails the
  // exactness check below and re-sweeps anyway, so rejecting early loses
  // nothing. This keeps the refresh at ~one comparison per dirty item
  // (the old per-shard top-k selection dominated refresh cost at mid
  // catalog sizes). The threshold only tightens when accepts pile up.
  std::pair<float, ItemId> threshold = old_kth;
  bool has_threshold = old_full;
  const size_t buf_cap = candidates.size() + 4 * k;
  for (const size_t s : dirty) {
    const auto [begin, end] =
        FacetStore::ShardRange(num_items_, s, item_shards_);
    if (begin >= end) continue;
    scratch->scores.resize(end - begin);
    model.ScoreItemRange(u, begin, end, scratch->scores.data());
    for (ItemId v = begin; v < end; ++v) {
      if (exclude != nullptr && exclude->HasInteraction(u, v)) continue;
      const std::pair<float, ItemId> cand{scratch->scores[v - begin], v};
      // Reject only what is *strictly* worse than the threshold — the
      // old k-th member itself must survive its shard being dirtied.
      if (has_threshold && RanksBetter(threshold, cand)) continue;
      candidates.push_back(cand);
      if (candidates.size() >= buf_cap) {
        CompactTopK(&candidates, k);
        threshold = candidates[k - 1];
        has_threshold = true;
      }
    }
  }

  std::vector<ItemId>& merged_items = scratch->merged_items;
  std::vector<float>& merged_scores = scratch->merged_scores;
  RankCandidates(&candidates, k, &merged_items, &merged_scores);

  // Exactness: with the new cutoff no worse than the old one, a clean
  // item that was below the old cutoff (and therefore not cached) still
  // cannot reach the new top-k. Otherwise the cutoff dropped and an
  // uncached clean item might now qualify — only a full sweep could
  // tell, and that is the caller's cue to drop the entry instead.
  const bool exact =
      !old_full ||
      (merged_items.size() == k &&
       !RanksBetter(old_kth, {merged_scores.back(), merged_items.back()}));
  if (!exact) return false;
  stripe->Store(slot, merged_items, merged_scores, stripe->slots[slot].epoch);
  return true;
}

void TopKServer::ReplaceModel(std::shared_ptr<const ItemScorer> model) {
  MARS_CHECK(model != nullptr);
  model_.Publish(std::move(model));
  // Swap of unknown delta: rebuild the index from scratch against the new
  // snapshot (PublishEpoch takes the cheaper tracker-guided path instead).
  RefreshAnnIndex(model_.Acquire(), nullptr);
}

void TopKServer::ReplaceModel(const ItemScorer* model) {
  MARS_CHECK(model != nullptr);
  ReplaceModel(UnownedSnapshot(model));
}

void TopKServer::PublishEpoch(std::shared_ptr<const ItemScorer> model,
                              WriteTracker* tracker) {
  if (tracker == nullptr) {
    ReplaceModel(std::move(model));
    return;
  }
  MARS_CHECK(model != nullptr);
  // Publish without the full index rebuild of ReplaceModel: the tracker
  // knows what changed, so AbsorbWrites re-inserts exactly the dirty item
  // shards (and clean-item epochs keep the index as is — the rows it
  // indexed are byte-identical in the new snapshot).
  model_.Publish(std::move(model));
  AbsorbWrites(tracker);
}

void TopKServer::InvalidateAll() {
  for (Stripe& stripe : stripes_) {
    std::unique_lock<std::mutex> lock(stripe.mu);
    stripe.invalidated += stripe.map.size();
    stripe.map.clear();
    // Every slot is free again; the ranking blocks stay for reuse.
    stripe.slots.clear();
    stripe.lru_head = stripe.lru_tail = stripe.free_head = kNoSlot;
  }
}

bool TopKServer::Prime(UserId u, const std::vector<ItemId>& items,
                       const std::vector<float>& scores) {
  const PrimeEntry entry{u, items, scores};
  return Prime({&entry, 1}) == 1;
}

size_t TopKServer::Prime(std::span<const PrimeEntry> entries) {
  if (options_.cache.max_users == 0) return 0;
  const size_t cap = std::min(options_.k, num_items_);
  const auto primable = [this, cap](const PrimeEntry& e) {
    return e.user < num_users_ && e.items.size() == e.scores.size() &&
           e.items.size() <= cap &&
           std::all_of(e.items.begin(), e.items.end(),
                       [this](ItemId v) { return v < num_items_; });
  };
  const uint64_t epoch = model_.epoch();
  size_t primed = 0;
  // A run of entries whose users share a stripe (a sidecar lists each
  // stripe's entries together) is primed under one hold of its lock.
  size_t i = 0;
  while (i < entries.size()) {
    if (!primable(entries[i])) {
      ++i;
      continue;
    }
    const size_t s = StripeOf(entries[i].user);
    const auto [first_user, end_user] =
        FacetStore::ShardRange(num_users_, s, stripes_.size());
    size_t end = i + 1;
    while (end < entries.size() && entries[end].user >= first_user &&
           entries[end].user < end_user) {
      ++end;
    }
    Stripe& stripe = stripes_[s];
    std::unique_lock<std::mutex> lock(stripe.mu);
    if (stripe.map.empty()) {
      // A warm start: size the stripe once for what it will hold.
      const size_t will_hold = std::min(stripe.capacity, end - i);
      stripe.map.reserve(will_hold);
      stripe.slots.reserve(will_hold);
    }
    for (; i < end; ++i) {
      const PrimeEntry& e = entries[i];
      if (!primable(e)) continue;
      const auto it = stripe.map.find(e.user);
      uint32_t slot = 0;
      if (it != stripe.map.end()) {
        // A replaced entry goes to the front, as a fresh one would.
        slot = it->second;
        stripe.Unlink(slot);
      } else {
        slot = stripe.Claim(e.user);
      }
      stripe.Store(slot, e.items, e.scores, epoch);
      stripe.PushFront(slot);
      ++stripe.primed;
      ++primed;
    }
  }
  return primed;
}

void TopKServer::ForEachCached(
    const std::function<void(UserId, std::span<const ItemId>,
                             std::span<const float>)>& fn) const {
  for (const Stripe& stripe : stripes_) {
    std::unique_lock<std::mutex> lock(stripe.mu);
    for (uint32_t s = stripe.lru_head; s != kNoSlot;
         s = stripe.slots[s].next) {
      const CacheSlot& slot = stripe.slots[s];
      fn(slot.user, {stripe.items(s), slot.size},
         {stripe.scores(s), slot.size});
    }
  }
}

TopKServerStats TopKServer::stats() const {
  TopKServerStats s;
  for (const Stripe& stripe : stripes_) {
    std::unique_lock<std::mutex> lock(stripe.mu);
    s.hits += stripe.hits;
    s.misses += stripe.misses;
    s.invalidated += stripe.invalidated;
    s.refreshed += stripe.refreshed;
    s.refresh_drops += stripe.refresh_drops;
    s.evictions += stripe.evictions;
    s.primed += stripe.primed;
    s.cached_users += stripe.map.size();
  }
  s.ann_probes = ann_probes_.load(std::memory_order_relaxed);
  s.exact_fallbacks = exact_fallbacks_.load(std::memory_order_relaxed);
  s.coalesced_misses = coalesced_misses_.load(std::memory_order_relaxed);
  s.batch_sweeps = batch_sweeps_.load(std::memory_order_relaxed);
  s.max_batch_size = max_batch_.load(std::memory_order_relaxed);
  s.mean_batch_size =
      s.batch_sweeps > 0
          ? static_cast<double>(s.coalesced_misses) / s.batch_sweeps
          : 0.0;
  return s;
}

}  // namespace mars
