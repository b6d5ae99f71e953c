// Concurrent top-k serving over epoch-swapped model snapshots.
//
// TopKServer answers "top-k items for user u" by sweeping the *entire* catalog
// with the model's ScoreItemRange (the contiguous-block serving adapter every
// model overrides with its batch kernel — DotBatch for dot-product models,
// NegatedSquaredDistanceBatch for the metric models, the fused WeightedFacet*
// batches for MARS/MAR), then keeps the ranked top-k per user in a bounded,
// mutex-striped LRU cache so hot users are answered without touching the
// embedding tables at all.
//
// With ann.enable set (and an indexable model, index_dim() > 0 — see
// eval/scorer.h), the miss path probes the one candidate index,
// SphericalIvfIndex (ann/ivf_index.h), whose 4-bit first pass returns a
// short overfetched candidate list, then re-ranks the list with the
// model's *exact* ScoreItems. Because every
// returned score still comes from the model's own gather kernel, an
// ANN-served ranking can only differ from the exact sweep in which items
// it considered (recall), never in any considered item's score; models
// with no index vectors — and any epoch where the published model stops
// matching the index's shape — fall back to the exact sweep
// (stats().exact_fallbacks counts them, stats().ann_probes the probed
// misses). The index rides the same epoch-swap machinery as the model:
// it lives in its own SnapshotHandle, AbsorbWrites re-inserts only dirty
// item shards (SphericalIvfIndex::Rebuilt keeps its centroids and
// reassigns dirty rows), and ReplaceModel rebuilds from scratch (unknown
// delta). A probe against a one-epoch-stale index costs recall only: the
// re-rank always scores with the pinned model snapshot. Cached entries
// produced by ANN misses are approximate in the same candidate-coverage
// sense, and are never refreshed: a refresh would cost the probe a miss
// costs (see AbsorbWrites below).
//
// The server is split into two roles with different concurrency rights:
//
//  * Read front — TopK(). Any number of frontend threads may call it
//    concurrently. Each query pins the current model snapshot through a
//    SnapshotHandle (common/snapshot_handle.h) for its whole duration, so
//    a query always ranks exactly one published epoch even while the
//    maintenance side swaps in the next. The cache is sharded into
//    mutex-striped segments keyed by user shard; queries for users in
//    different stripes never contend, and a cache miss runs its sweep
//    entirely outside any stripe lock, on the thread that asked, so
//    concurrent misses never wait on each other's work. Concurrent misses
//    for the same user may sweep redundantly (last insert wins) — wasted
//    work, never wrong answers.
//
//  * Maintenance path — ReplaceModel / AbsorbWrites / PublishEpoch /
//    Prime / InvalidateAll / ForEachCached. Single-caller, run at a
//    quiesced epoch boundary (trainer pool idle), from the same
//    epoch_callback that takes Mars::ServingSnapshot; it may race freely
//    with the read front but not with itself. Publish order matters:
//    swap the model first, then absorb the tracker flags (PublishEpoch
//    does both in order) — the epoch bump is what stops in-flight queries
//    from caching results of the superseded snapshot after the absorb
//    scan has passed.
//
// Invalidation is shard-granular: training steps mark dirtied rows in a
// WriteTracker (serve/write_tracker.h), and AbsorbWrites
//  - drops entries whose *user* shard was dirtied (the user row moved, so
//    every score of that user is stale),
//  - when misses probe the ANN index, drops every entry once any item
//    shard is dirty: refreshing an entry would run the probe its next
//    miss runs, under the stripe lock, even for entries nobody reads
//    again — the next query pays that one miss lazily instead,
//  - when misses take the exact sweep, and is *incremental* there: it
//    refreshes surviving entries in place when item shards dirtied:
//    cached entries lying in dirty shards are discarded (stale scores),
//    only the dirty shards are re-scored against the current snapshot,
//    and the k best of (surviving old entries + re-scored dirty
//    candidates) become the new ranking. The merge is exact whenever the
//    new k-th rank is no worse than the old one — clean entries below
//    the old cutoff still cannot reach the new cutoff. When the cutoff
//    *drops* (dirty shards held top items whose scores fell), the merge
//    alone cannot prove exactness and the entry is dropped instead
//    (counted in stats().refresh_drops) — its next query re-sweeps
//    lazily, the same bounded-stall policy as the all-dirty case, so an
//    absorb never holds a stripe lock longer than the cheap refreshes.
//    Mostly-clean epochs therefore keep the cache warm at a fraction of
//    the cold-sweep cost (bench/bench_serve.cpp measures the ratio;
//    scripts/check_bench.py gates it),
//  - drops everything when every item shard is dirty (a full re-sweep per
//    entry costs the same as the cold miss it would save — let the next
//    query pay it lazily).
//
// The snapshot may equally be an immutable *mapped* model
// (core/persistence.h LoadMarsMapped): an mmap'd format-v3 file whose
// score kernels read the mapping directly — quiescent by construction,
// published through the same ReplaceModel contract, and typically
// warm-started from a persisted sidecar (serve/top_k_sidecar.h) instead
// of paying cold full-catalog sweeps.
#ifndef MARS_SERVE_TOP_K_SERVER_H_
#define MARS_SERVE_TOP_K_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ann/ivf_index.h"
#include "common/snapshot_handle.h"
#include "data/dataset.h"
#include "eval/scorer.h"
#include "serve/request.h"
#include "serve/write_tracker.h"

namespace mars {

/// Cache knobs (TopKServerOptions::cache).
struct CacheOptions {
  /// Bounded cache: least-recently-queried users are evicted beyond this.
  /// The bound is distributed across the cache stripes (each stripe runs
  /// its own LRU over its share), so it holds globally by summation.
  size_t max_users = 4096;
  /// Mutex stripes of the cache, keyed by user shard — contiguous user-id
  /// ranges, matching the tracker's shard geometry. 0 means auto (16,
  /// clamped to the cache bound and user count); 1 gives a single global
  /// LRU — the exact pre-concurrency eviction semantics. Each stripe runs
  /// its own LRU over a 1/N share of max_users, so a hot set clustered in
  /// one id range competes for that stripe's share only; raise max_users
  /// (or lower stripes) if hot users are known to be id-contiguous rather
  /// than spread.
  size_t stripes = 0;
  /// Item-shard granularity of AbsorbWrites (exact-sweep refresh and the
  /// index re-insert) — must match the WriteTracker handed to it (both
  /// sides clamp to the catalog size the same way).
  size_t item_shards = WriteTracker::kDefaultShards;
};

/// ANN serving knobs (TopKServerOptions::ann).
struct AnnOptions {
  /// Serve misses through an ANN candidate index when the model is
  /// indexable (index_dim() > 0; probe → exact re-rank, see the file
  /// comment). Models with index_dim() == 0 (the metric models among
  /// them) silently keep the exact sweep and count in exact_fallbacks.
  bool enable = false;
  /// Index build/probe knobs (used when enable is set and no prebuilt
  /// index is injected).
  AnnIndexOptions index;
  /// Optional prebuilt index to serve from (implies enable); must cover
  /// exactly this server's catalog. The bench injects nprobe-swept clones
  /// this way; most callers leave it null and let the server build.
  std::shared_ptr<const SphericalIvfIndex> prebuilt;
};

/// Serving knobs. The cache/ann sprawl lives in nested groups so callers
/// can carry, default, and document each concern as a unit; every group is
/// a plain aggregate, so field-for-field designated initialization keeps
/// working at every level.
struct TopKServerOptions {
  /// Recommendations per query. Results are (score desc, item id asc);
  /// fewer than k come back when the catalog (minus exclusions) is smaller.
  size_t k = 10;
  /// When set, items the user already interacted with are not recommended.
  const ImplicitDataset* exclude_interactions = nullptr;
  CacheOptions cache;
  AnnOptions ann;
};

/// Serving-side counters (cumulative since construction).
struct TopKServerStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidated = 0;  // cached entries dropped by AbsorbWrites
  uint64_t refreshed = 0;    // entries incrementally refreshed in place
                             // (exact-sweep servers only: an ANN server
                             // drops instead, counted in `invalidated`)
  uint64_t refresh_drops = 0;  // refresh candidates dropped instead (the
                               // k-th-rank cutoff dropped; see file doc —
                               // also counted in `invalidated`)
  uint64_t evictions = 0;    // entries dropped by the LRU bound
  uint64_t primed = 0;       // entries inserted by Prime (sidecar warm-up)
  uint64_t ann_probes = 0;   // misses served via the ANN probe/re-rank path
  uint64_t exact_fallbacks = 0;  // misses served by the exact full sweep
                                 // (ann_probes + exact_fallbacks == misses)
  // Batching efficacy (TopKBatch; a "batch" here is a multi-user sweep of
  // >= 2 users — lone misses don't count):
  uint64_t coalesced_misses = 0;  // misses served by a multi-user sweep
  uint64_t batch_sweeps = 0;      // multi-user sweeps executed
  uint64_t max_batch_size = 0;    // largest batch swept so far
  double mean_batch_size = 0.0;   // coalesced_misses / batch_sweeps
  size_t cached_users = 0;
};

/// Full-catalog top-k server: concurrent read front over a striped cache,
/// epoch-swapped snapshots, incremental shard-granular invalidation.
class TopKServer {
 public:
  /// Users per multi-user sweep, at most: TopKBatch sweeps its misses in
  /// groups of this many, bounding the sweep's per-block score buffers.
  static constexpr size_t kMaxBatch = 16;

  /// `model` scores the catalog [0, num_items) for users [0, num_users);
  /// the server shares ownership, so the snapshot stays alive for as long
  /// as any in-flight query has it pinned.
  TopKServer(std::shared_ptr<const ItemScorer> model, size_t num_users,
             size_t num_items, TopKServerOptions options = {});

  /// Legacy non-owning form: `model` must outlive the server and every
  /// in-flight query (callers that own the model by value or unique_ptr).
  TopKServer(const ItemScorer* model, size_t num_users, size_t num_items,
             TopKServerOptions options = {});

  size_t num_users() const { return num_users_; }
  size_t num_items() const { return num_items_; }
  size_t num_item_shards() const { return item_shards_; }
  size_t num_cache_stripes() const { return stripes_.size(); }
  const TopKServerOptions& options() const { return options_; }
  /// Number of model epochs published so far (ReplaceModel calls).
  uint64_t epoch() const { return model_.epoch(); }

  /// Top-k for one request (serve/request.h — the surface the wire codec
  /// and in-process callers share): cache hit, or a full-catalog sweep of
  /// the pinned snapshot that fills the cache. Safe to call concurrently
  /// from any number of threads, including while the maintenance path
  /// publishes. Each miss sweeps alone; concurrent misses for the same
  /// user sweep redundantly (each counts as its own miss, so hits + misses
  /// stays the query count). Callers with several users in hand batch
  /// them through TopKBatch.
  ///
  /// A malformed request (user outside the catalog, k above options().k,
  /// unknown flag bits) is *reported* — empty response with the matching
  /// TopKStatus — never asserted on: requests may come off a wire.
  /// request.k below the configured depth serves the exact prefix of the
  /// configured-depth ranking; kTopKFlagBypassCache skips the cache read
  /// (fresh sweep, still cached afterwards).
  TopKResponse TopK(const TopKRequest& request);

  /// Thin compat overload: the pre-request-API in-process form. Keeps the
  /// original assert-on-bad-id contract (MARS_CHECK) — in-process callers
  /// derive ids from the catalog shape, so a violation is a caller bug.
  TopKResponse TopK(UserId u);

  /// Positional batch form of TopK — the request-batching entry a wire
  /// front-end submits coalesced reads through. Hits (and malformed
  /// requests, which cost no sweep) resolve per position exactly as
  /// TopK(request) would; all missing users are swept together against
  /// one pinned snapshot via the multi-user kernels, each response
  /// bit-identical to a lone TopK against that snapshot and each user
  /// cached under its own pinned-epoch rule. Duplicate users in one call
  /// are served by a single sweep (counted as one miss). Concurrency
  /// rights are TopK's: any number of threads, racing maintenance freely.
  std::vector<TopKResponse> TopKBatch(std::span<const TopKRequest> requests);

  /// Thin compat overload over bare user ids (asserts like TopK(UserId)).
  std::vector<TopKResponse> TopKBatch(std::span<const UserId> users);

  // --- Maintenance path: single caller, quiesced epoch boundary. ----------

  /// Publishes a fresh quiesced snapshot of the same shape as the new
  /// serving epoch. In-flight queries keep the snapshot they pinned; new
  /// queries see this one. Does not invalidate by itself — pair with
  /// AbsorbWrites (after, not before), which knows what actually changed,
  /// or call InvalidateAll for a swap of unknown delta.
  void ReplaceModel(std::shared_ptr<const ItemScorer> model);
  /// Non-owning overload (see the legacy constructor's lifetime note).
  void ReplaceModel(const ItemScorer* model);

  /// Consumes the tracker's dirty flags (and clears them): entries of
  /// users in dirtied user shards are dropped. When item shards dirtied,
  /// a server whose misses probe the ANN index drops every other entry
  /// too, and an exact-sweep server refreshes them incrementally against
  /// the *current* snapshot (see file comment — call ReplaceModel first).
  /// The tracker's shard counts must match the server's (same defaults,
  /// same clamping). When ANN serving is on, dirty item shards are first
  /// re-inserted into the candidate index (an epoch-swapped Rebuilt — see
  /// the file comment) so post-absorb misses probe fresh lists. Each
  /// stripe is scanned under its own lock, so hits for that stripe's
  /// users stall for its drops, or its exact refreshes (≤ 1/4 of a cold
  /// sweep per entry on a mostly-clean epoch), while every other stripe
  /// keeps serving.
  void AbsorbWrites(WriteTracker* tracker);

  /// The epoch-boundary hook: ReplaceModel followed by AbsorbWrites, in
  /// the order the concurrency contract requires. `tracker` may be null
  /// when no write tracking is wired (then this is just ReplaceModel).
  void PublishEpoch(std::shared_ptr<const ItemScorer> model,
                    WriteTracker* tracker);

  /// Drops every cached entry (e.g. after a model swap of unknown delta).
  void InvalidateAll();

  /// One precomputed ranking for Prime: views that need only outlive the
  /// Prime call (WarmFromSidecar passes views of its mapped file).
  struct PrimeEntry {
    UserId user = 0;
    std::span<const ItemId> items;  // ranked best-first
    std::span<const float> scores;  // parallel to items
  };

  /// Inserts a precomputed ranking for `u` as if a sweep had produced it
  /// (the warm-start path of serve/top_k_sidecar.h). The list must be
  /// ranked best-first with parallel scores, at most min(k, num_items)
  /// long, with every id inside the catalog; an existing entry for `u` is
  /// replaced. Counts as neither hit nor miss; the stripe's LRU bound
  /// still applies. AbsorbWrites refreshes or drops a primed entry like a
  /// swept one; a refresh is exact provided the entry really was the
  /// current snapshot's top-k, which is the sidecar pairing contract.
  /// Returns false (no insert) on out-of-range user or item, mismatched
  /// lengths, or an over-long list.
  bool Prime(UserId u, const std::vector<ItemId>& items,
             const std::vector<float>& scores);

  /// Primes `entries` exactly as one Prime call per entry, in order,
  /// would (the last one ends up most recently used), but copies each
  /// ranking straight into its cache slot and takes a stripe's lock once
  /// per run of consecutive entries in that stripe. Returns the number of
  /// entries primed.
  size_t Prime(std::span<const PrimeEntry> entries);

  /// Visits every cached entry, most recently used first *within each
  /// stripe* (stripes are visited in user-shard order; there is no global
  /// recency order across stripes — configure cache.stripes = 1 when one
  /// is required). Maintenance-side only, like AbsorbWrites (used to
  /// persist the cache as a sidecar). The spans view the cache slot and
  /// are valid only during the call. The callback runs under the
  /// stripe's lock: it must not call back into this server (TopK, stats,
  /// Prime, … would self-deadlock on the non-recursive stripe mutex).
  void ForEachCached(
      const std::function<void(UserId, std::span<const ItemId>,
                               std::span<const float>)>& fn) const;

  /// The currently published candidate index — null when ANN serving is
  /// off, the model is not indexable, or no index exists yet. The
  /// persistence hook: save it next to the model snapshot + sidecar
  /// (ann/index_io.h SaveCandidateIndex) so a restart can inject the
  /// mapped file back through AnnOptions::prebuilt instead of re-running
  /// the build. The returned snapshot is pinned like any in-flight
  /// probe's; call at a quiesced boundary so it pairs with the model
  /// being saved.
  std::shared_ptr<const SphericalIvfIndex> AnnIndexSnapshot() const {
    return ann_index_.Acquire();
  }

  TopKServerStats stats() const;

 private:
  /// Slot index meaning "none": the end of an LRU or free list.
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  /// Cache slots per block of a stripe's slot storage.
  static constexpr size_t kSlotsPerBlock = 64;

  /// One cached entry's header. The ranking itself lives in the slot's
  /// row of its block (Stripe::items / Stripe::scores).
  struct CacheSlot {
    UserId user = 0;
    uint32_t size = 0;  // ranked items held, at most the slot depth
    uint32_t prev = kNoSlot;  // toward the most recently used
    uint32_t next = kNoSlot;  // toward the least recently used; when the
                              // slot is free, the next free slot
    uint64_t epoch = 0;  // epoch the entry was computed/refreshed against
  };

  /// One cache segment: its own lock, map, LRU, capacity share, counters.
  /// Counters live here (not in one global struct) so the hot path never
  /// touches a cross-stripe cache line; stats() sums them.
  ///
  /// Each entry is a slot: a header in `slots` and a row of `depth` ids
  /// and `depth` scores in the ranking blocks, which hold kSlotsPerBlock
  /// rows each and are never moved or freed before the stripe. The LRU
  /// is a doubly linked list threaded through the headers. A dropped
  /// entry's slot goes on the free list; an eviction hands the victim's
  /// slot and map node straight to the incoming user. Map nodes come from
  /// the stripe's own pool, which takes memory from the heap in growing
  /// chunks and reuses freed nodes. So a new entry costs one pooled map
  /// node plus a share of a block, an evict-then-insert allocates
  /// nothing, and dropping a warmed server frees a few chunks per stripe
  /// instead of one heap block per entry.
  struct Stripe {
    mutable std::mutex mu;
    // Pools only blocks of up to 32 bytes, the map's nodes (its bucket
    // arrays come from the heap), in chunks of at most kSlotsPerBlock
    // nodes, so a stripe's pool stays near the size of its map.
    std::pmr::unsynchronized_pool_resource map_pool{  // guarded by mu
        std::pmr::pool_options{.max_blocks_per_chunk = kSlotsPerBlock,
                               .largest_required_pool_block = 32}};
    std::pmr::unordered_map<UserId, uint32_t> map{&map_pool};  // user -> slot
    std::vector<CacheSlot> slots;
    std::vector<std::unique_ptr<ItemId[]>> item_blocks;
    std::vector<std::unique_ptr<float[]>> score_blocks;
    uint32_t lru_head = kNoSlot;  // most recently used
    uint32_t lru_tail = kNoSlot;  // least recently used
    uint32_t free_head = kNoSlot;
    size_t depth = 0;  // ranking capacity of a slot: min(k, num_items)
    size_t capacity = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidated = 0;
    uint64_t refreshed = 0;
    uint64_t refresh_drops = 0;
    uint64_t evictions = 0;
    uint64_t primed = 0;

    ItemId* items(uint32_t s) const {
      return item_blocks[s / kSlotsPerBlock].get() +
             (s % kSlotsPerBlock) * depth;
    }
    float* scores(uint32_t s) const {
      return score_blocks[s / kSlotsPerBlock].get() +
             (s % kSlotsPerBlock) * depth;
    }
    void Unlink(uint32_t s);
    void PushFront(uint32_t s);
    /// Copies a ranking of at most `depth` items into slot `s`.
    void Store(uint32_t s, std::span<const ItemId> ranked_items,
               std::span<const float> ranked_scores, uint64_t epoch);
    /// Unlinks slot `s`, frees it and erases its map entry `it`; returns
    /// the iterator after `it`.
    std::pmr::unordered_map<UserId, uint32_t>::iterator Release(
        std::pmr::unordered_map<UserId, uint32_t>::iterator it);
    /// The slot for `u`, which must not be cached: the LRU victim's slot
    /// and map node when the stripe is full (counted in `evictions`),
    /// else a free or new slot. Maps `u` to it; the caller fills it and
    /// links it in.
    uint32_t Claim(UserId u);
  };

  /// Buffers reused across RefreshEntry calls within one AbsorbWrites
  /// pass — refreshes run under a stripe lock, so per-entry allocation
  /// churn there directly lengthens read-front stalls.
  struct RefreshScratch {
    std::vector<float> scores;
    std::vector<std::pair<float, ItemId>> candidates;
    std::vector<ItemId> merged_items;
    std::vector<float> merged_scores;
  };

  size_t StripeOf(UserId u) const;

  /// Request validation shared by TopK(request) and TopKBatch(requests):
  /// returns false (and stamps the rejecting status into `out`) for an
  /// out-of-range user, k above the configured depth, or unknown flags.
  bool ValidateRequest(const TopKRequest& request, TopKResponse* out) const;

  /// Serves one well-formed user query: cache hit unless `bypass_cache`,
  /// else a miss swept alone. The core behind both TopK forms.
  TopKResponse ServeOne(UserId u, bool bypass_cache);

  /// Truncates a configured-depth response to a smaller requested k (a
  /// prefix of a top-K ranking is the top-k ranking). k = 0 keeps the
  /// configured depth.
  static void TruncateToK(uint32_t k, TopKResponse* out);

  /// The hit fast path shared by TopK and TopKBatch: on a hit, bumps the
  /// stripe's counters, touches the LRU, copies the entry into `out` and
  /// returns true.
  bool TryCacheHit(UserId u, TopKResponse* out);

  /// The one miss path, shared by TopK and TopKBatch: pins one (snapshot,
  /// epoch) for the whole span of users, runs one exact sweep
  /// (BatchSweep) or, when ProbeIndex returns an index, one ANN sweep
  /// (AnnBatchSweep) over all of them — a lone miss is a span of one —
  /// stamps per-result epochs, and attributes stats. `users` must be
  /// deduplicated and non-empty; returns the pinned epoch. The batching
  /// counters see only spans of >= 2 users.
  uint64_t SweepMisses(std::span<const UserId> users,
                       std::vector<TopKResponse>* results);

  /// Caches a finished miss for `u` under the pinned-epoch rule (and
  /// counts the miss) — the tail of every miss, shared by TopK and
  /// TopKBatch so every batch member inserts exactly as a lone miss would.
  void InsertMissEntry(UserId u, const TopKResponse& result,
                       uint64_t pinned_epoch);

  /// Exact full-catalog sweep for B >= 1 users: one serial pass over the
  /// catalog in blocks scores *all* users per block through
  /// ScoreItemRangeMulti (ScoreItemRange for a lone user), then runs the
  /// per-user bounded selection while the block's score rows are
  /// cache-hot, so a batch of B ranks bit-identically to B batches of
  /// one. Runs outside every stripe lock, on the calling thread.
  void BatchSweep(const ItemScorer& model, std::span<const UserId> users,
                  std::vector<TopKResponse>* results);

  /// ANN miss path for B >= 1 users: per-user queries written into one
  /// packed buffer, one ProbeBatch that returns each user's AnnWant best
  /// candidates by 4-bit code score (the IVF shares a single
  /// centroid-matrix scan across the batch), then each short list is
  /// re-ranked with the model's exact ScoreItems under the usual
  /// exclusion + (score desc, id asc) ranking.
  /// A batch of B answers bit-identically to B batches of one. Scratch
  /// buffers are per thread, so a miss allocates only its response.
  void AnnBatchSweep(const ItemScorer& model,
                     const SphericalIvfIndex& index,
                     std::span<const UserId> users,
                     std::vector<TopKResponse>* results);

  /// Candidates one ANN probe asks for on behalf of `u`: k·overfetch
  /// absorbs near-boundary ranking churn, and widening to k plus the
  /// user's interaction count guarantees exclusion filtering alone can
  /// never shorten the answer below k (under an exhaustive probe, IVF at
  /// full nprobe, this keeps the served top-k exactly the brute-force
  /// one).
  size_t AnnWant(UserId u) const;

  /// The one predicate for whether misses against `snapshot` probe: the
  /// live candidate index when ANN serving is on and the index's dim()
  /// matches snapshot.index_dim(), else null (the exact sweep). SweepMisses
  /// routes each miss by it, AbsorbWrites drops instead of refreshing
  /// when it holds, and RefreshAnnIndex re-inserts into the index it
  /// returns.
  std::shared_ptr<const SphericalIvfIndex> ProbeIndex(
      const ItemScorer& snapshot) const;

  /// Maintenance-side index refresh against `snapshot`: incremental
  /// (SphericalIvfIndex::Rebuilt over `dirty_items`) when a compatible
  /// index exists and a dirty list is given; otherwise a from-scratch
  /// factory build (which publishes null — exact fallback — for
  /// unindexable models).
  void RefreshAnnIndex(const std::shared_ptr<const ItemScorer>& snapshot,
                       const std::vector<size_t>* dirty_items);

  /// Incremental refresh of the entry in `slot` of `stripe` (the caller
  /// holds its lock) on a server whose misses take the exact sweep:
  /// re-scores the `dirty` item shards (sorted ids) and merges with the
  /// entry's surviving rows. Returns false when the merge cannot prove
  /// exactness (the k-th-rank cutoff dropped) — the caller drops the
  /// entry and its next query re-sweeps lazily, keeping the per-entry
  /// stripe-lock hold bounded.
  bool RefreshEntry(const ItemScorer& model, UserId u,
                    const std::vector<size_t>& dirty,
                    RefreshScratch* scratch, Stripe* stripe, uint32_t slot);

  SnapshotHandle<ItemScorer> model_;
  size_t num_users_;
  size_t num_items_;
  size_t item_shards_;
  TopKServerOptions options_;

  /// ANN serving state: the index epoch-swaps exactly like the model. A
  /// null slot (unindexable model, or ann disabled) keeps misses on the
  /// exact sweep. ann_enabled_ is fixed at construction; ProbeIndex's dim
  /// re-check handles model swaps that invalidate the index.
  bool ann_enabled_ = false;
  SnapshotHandle<SphericalIvfIndex> ann_index_;
  std::atomic<uint64_t> ann_probes_{0};
  std::atomic<uint64_t> exact_fallbacks_{0};

  std::vector<Stripe> stripes_;

  /// Batching efficacy counters (multi-user sweeps only; see stats()).
  std::atomic<uint64_t> batch_sweeps_{0};
  std::atomic<uint64_t> coalesced_misses_{0};
  std::atomic<uint64_t> max_batch_{0};
};

}  // namespace mars

#endif  // MARS_SERVE_TOP_K_SERVER_H_
