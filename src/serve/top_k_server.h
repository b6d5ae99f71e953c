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
// eval/scorer.h), the miss path goes sub-linear: probe the one candidate
// index, SphericalIvfIndex (ann/ivf_index.h), for an overfetched
// candidate block, then re-rank the block with the model's *exact*
// ScoreItems. Because every
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
// sense, and incremental refresh preserves that: survivors keep their
// exact scores and dirty shards are re-scored exactly, so refresh never
// *lowers* an entry's recall.
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
//    entirely outside any stripe lock (fanned over the pool through
//    ThreadPool::RunBatch, whose batch-scoped completion lets concurrent
//    misses share the pool without waiting on each other's work).
//    Concurrent misses for the same user may sweep redundantly (last
//    insert wins) — wasted work, never wrong answers.
//
//  * Maintenance path — ReplaceModel / AbsorbWrites / PublishEpoch /
//    Prime / InvalidateAll / ForEachCached. Single-caller, run at a
//    quiesced epoch boundary (trainer pool idle) exactly like the
//    overlapped-eval snapshot; it may race freely with the read front but
//    not with itself. Publish order matters: swap the model first, then
//    absorb the tracker flags (PublishEpoch does both in order) — the
//    epoch bump is what stops in-flight queries from caching results of
//    the superseded snapshot after the absorb scan has passed.
//
// Invalidation is shard-granular and *incremental*: training steps mark
// dirtied rows in a WriteTracker (serve/write_tracker.h), and
// AbsorbWrites
//  - drops entries whose *user* shard was dirtied (the user row moved, so
//    every score of that user is stale),
//  - refreshes surviving entries in place when item shards dirtied:
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
//  - falls back to dropping everything when every item shard is dirty (a
//    full re-sweep per entry costs the same as the cold miss it would
//    save — let the next query pay it lazily).
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
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
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

class ThreadPool;

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
  /// Item-shard granularity of incremental refresh — must match the
  /// WriteTracker handed to AbsorbWrites (both sides clamp to the
  /// catalog size the same way).
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

/// Miss-batching knobs (TopKServerOptions::batch).
///
/// Every TopK miss goes through the coalescer: concurrent misses that land
/// while another miss is sweeping queue up and are served together as one
/// multi-user batched sweep (ScoreItemRangeMulti / ProbeBatch — each item
/// row is streamed once per batch instead of once per user). A batch of B
/// is bit-identical to B batches of one against the same pinned snapshot,
/// and each user caches under its own pinned-epoch rule, so coalescing
/// changes throughput, never answers. An uncontended miss pays one
/// uncontended mutex hop and sweeps alone — no added latency. Pool worker
/// threads bypass the coalescer: a worker waiting on another miss's sweep
/// could deadlock the pool that sweep fans over.
struct BatchOptions {
  /// Users per coalesced batch, at most (bounds the per-chunk score
  /// buffers; excess queued misses form the next batch).
  size_t max_batch = 16;
  /// Optional gathering window: a batch leader waits up to this long for
  /// more misses to queue before sweeping. 0 (default) adds no latency —
  /// batches then form only from misses that queued behind an in-flight
  /// sweep, which is where the win is under real concurrency.
  size_t window_us = 0;
};

/// Serving knobs. The cache/ann/batch sprawl lives in nested groups so
/// callers can carry, default, and document each concern as a unit; every
/// group is a plain aggregate, so field-for-field designated
/// initialization keeps working at every level.
struct TopKServerOptions {
  /// Recommendations per query. Results are (score desc, item id asc);
  /// fewer than k come back when the catalog (minus exclusions) is smaller.
  size_t k = 10;
  /// Fan-out chunks of the exact sweep; 0 means one per pool thread (or 1
  /// serial).
  size_t sweep_shards = 0;
  /// Pool for the parallel sweep (may be null → serial sweep). Models
  /// whose thread_safe() is false are swept serially regardless, and the
  /// server serializes their sweeps across frontend threads too.
  ThreadPool* pool = nullptr;
  /// When set, items the user already interacted with are not recommended.
  const ImplicitDataset* exclude_interactions = nullptr;
  CacheOptions cache;
  AnnOptions ann;
  BatchOptions batch;
};

/// Serving-side counters (cumulative since construction).
struct TopKServerStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t invalidated = 0;  // cached entries dropped by AbsorbWrites
  uint64_t refreshed = 0;    // entries incrementally refreshed in place
  uint64_t refresh_drops = 0;  // refresh candidates dropped instead (the
                               // k-th-rank cutoff dropped; see file doc —
                               // also counted in `invalidated`)
  uint64_t evictions = 0;    // entries dropped by the LRU bound
  uint64_t primed = 0;       // entries inserted by Prime (sidecar warm-up)
  uint64_t ann_probes = 0;   // misses served via the ANN probe/re-rank path
  uint64_t exact_fallbacks = 0;  // misses served by the exact full sweep
                                 // (ann_probes + exact_fallbacks == misses)
  uint64_t ann_refresh_probes = 0;  // entry refreshes whose dirty-shard
                                    // candidates came from an ANN probe
                                    // instead of full shard re-scores. A
                                    // maintenance-side counter: not an
                                    // ann_probe, so the miss identity
                                    // above stays exact. refreshed +
                                    // refresh_drops - ann_refresh_probes
                                    // = exact-path refresh attempts.
  // Batching efficacy (the miss coalescer + TopKBatch; a "batch" here is
  // a multi-user sweep of >= 2 users — lone misses don't count):
  uint64_t coalesced_misses = 0;  // misses served by a multi-user sweep
                                  // (duplicate concurrent misses for one
                                  // user each count — they were misses)
  uint64_t batch_sweeps = 0;      // multi-user sweeps executed
  uint64_t max_batch_size = 0;    // largest batch swept so far
  double mean_batch_size = 0.0;   // coalesced_misses / batch_sweeps
  size_t cached_users = 0;
};

/// Full-catalog top-k server: concurrent read front over a striped cache,
/// epoch-swapped snapshots, incremental shard-granular invalidation.
class TopKServer {
 public:
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
  /// publishes. A miss that arrives while another miss is sweeping joins
  /// the next multi-user batched sweep (BatchOptions) — same answer, one
  /// streaming pass over the catalog for the whole batch. Concurrent
  /// misses for the same user then share one sweep instead of sweeping
  /// redundantly (each still counts as its own miss, so hits + misses
  /// stays the query count).
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
  /// users in dirtied user shards are dropped; surviving entries are
  /// incrementally refreshed against the *current* snapshot when item
  /// shards dirtied (see file comment — call ReplaceModel first). The
  /// tracker's shard counts must match the server's (same defaults, same
  /// clamping). When ANN serving is on, dirty item shards are first
  /// re-inserted into the candidate index (an epoch-swapped Rebuilt — see
  /// the file comment) so post-absorb misses probe fresh lists, and the
  /// surviving entries then refresh *through* that rebuilt index: one
  /// probe supplies the dirty-shard candidates instead of re-scoring
  /// whole shards (stats().ann_refresh_probes; see RefreshEntry). Each
  /// stripe is refreshed under its own lock, so hits for
  /// that stripe's users stall for its refresh (≤ 1/4 of a cold sweep
  /// per entry on a mostly-clean epoch) while every other stripe keeps
  /// serving.
  void AbsorbWrites(WriteTracker* tracker);

  /// The epoch-boundary hook: ReplaceModel followed by AbsorbWrites, in
  /// the order the concurrency contract requires. `tracker` may be null
  /// when no write tracking is wired (then this is just ReplaceModel).
  void PublishEpoch(std::shared_ptr<const ItemScorer> model,
                    WriteTracker* tracker);

  /// Drops every cached entry (e.g. after a model swap of unknown delta).
  void InvalidateAll();

  /// Inserts a precomputed ranking for `u` as if a sweep had produced it
  /// (the warm-start path of serve/top_k_sidecar.h). The list must be
  /// ranked best-first with parallel scores, at most min(k, num_items)
  /// long, with every id inside the catalog; an existing entry for `u` is
  /// replaced. Counts as neither hit nor miss; the stripe's LRU bound
  /// still applies. A primed entry refreshes like a swept one — provided
  /// it really was the current snapshot's top-k, which is the sidecar
  /// pairing contract. Returns false (no insert) on out-of-range user or
  /// item, mismatched lengths, or an over-long list.
  bool Prime(UserId u, std::vector<ItemId> items, std::vector<float> scores);

  /// Visits every cached entry, most recently used first *within each
  /// stripe* (stripes are visited in user-shard order; there is no global
  /// recency order across stripes — configure cache.stripes = 1 when one
  /// is required). Maintenance-side only, like AbsorbWrites (used to
  /// persist the cache as a sidecar). The callback runs under the
  /// stripe's lock: it must not call back into this server (TopK, stats,
  /// Prime, … would self-deadlock on the non-recursive stripe mutex).
  void ForEachCached(
      const std::function<void(UserId, const std::vector<ItemId>&,
                               const std::vector<float>&)>& fn) const;

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
  struct CacheEntry {
    std::vector<ItemId> items;  // ranked best-first
    std::vector<float> scores;
    uint64_t epoch = 0;  // epoch the entry was computed/refreshed against
    std::list<UserId>::iterator lru_pos;
  };

  /// One cache segment: its own lock, map, LRU, capacity share, counters.
  /// Counters live here (not in one global struct) so the hot path never
  /// touches a cross-stripe cache line; stats() sums them.
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<UserId, CacheEntry> map;
    std::list<UserId> lru;  // front = most recently used
    size_t capacity = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidated = 0;
    uint64_t refreshed = 0;
    uint64_t refresh_drops = 0;
    uint64_t evictions = 0;
    uint64_t primed = 0;
  };

  /// Buffers reused across RefreshEntry calls within one AbsorbWrites
  /// pass — refreshes run under a stripe lock, so per-entry allocation
  /// churn there directly lengthens read-front stalls.
  struct RefreshScratch {
    std::vector<float> scores;
    std::vector<std::pair<float, ItemId>> candidates;
    std::vector<ItemId> merged_items;
    std::vector<float> merged_scores;
    // ANN refresh path (see RefreshEntry): probe query, probed ids, and
    // the dirty-shard subset that actually gets re-scored.
    std::vector<float> query;
    std::vector<ItemId> probe_ids;
    std::vector<ItemId> dirty_cands;
  };

  /// One miss waiting in the coalescer: filled in and flagged done by the
  /// batch leader that claims it, under batch_mu_.
  struct PendingMiss {
    UserId user = 0;
    TopKResponse result;
    bool done = false;
  };

  size_t StripeOf(UserId u) const;

  /// Request validation shared by TopK(request) and TopKBatch(requests):
  /// returns false (and stamps the rejecting status into `out`) for an
  /// out-of-range user, k above the configured depth, or unknown flags.
  bool ValidateRequest(const TopKRequest& request, TopKResponse* out) const;

  /// Serves one well-formed user query: cache hit unless `bypass_cache`,
  /// else the (possibly coalesced) miss path. The core behind both TopK
  /// forms.
  TopKResponse ServeOne(UserId u, bool bypass_cache);

  /// Truncates a configured-depth response to a smaller requested k (a
  /// prefix of a top-K ranking is the top-k ranking). k = 0 keeps the
  /// configured depth.
  static void TruncateToK(uint32_t k, TopKResponse* out);

  /// The hit fast path shared by TopK and TopKBatch: on a hit, bumps the
  /// stripe's counters, touches the LRU, copies the entry into `out` and
  /// returns true.
  bool TryCacheHit(UserId u, TopKResponse* out);

  /// The one miss path, shared by TopK, the coalescer and TopKBatch: pins
  /// one (snapshot, epoch) for the whole span of users, runs one exact
  /// sweep (BatchSweep) or one ANN sweep (AnnBatchSweep) over all of them
  /// — a lone miss is a span of one — stamps per-result epochs, and
  /// attributes stats. `users` must be deduplicated and non-empty; returns
  /// the pinned epoch. `extra_requests` is the number of duplicate miss
  /// *queries* beyond the deduped users this sweep also serves (the
  /// coalescer counts each caller as a miss of its own, so the per-path
  /// counters must too — `ann_probes + exact_fallbacks == misses` stays
  /// exact). The batching counters see only spans of >= 2 users.
  uint64_t SweepMisses(std::span<const UserId> users,
                       std::vector<TopKResponse>* results,
                       size_t extra_requests = 0);

  /// Caches a finished miss for `u` under the pinned-epoch rule (and
  /// counts the miss) — the tail of every miss, shared by TopK, the
  /// coalescer and TopKBatch so every batch member inserts exactly as a
  /// lone miss would.
  void InsertMissEntry(UserId u, const TopKResponse& result,
                       uint64_t pinned_epoch);

  /// The coalesced miss path (see BatchOptions): queue behind an in-flight
  /// sweep, else become the leader, claim up to batch.max_batch queued
  /// misses and sweep them as one batch.
  TopKResponse CoalescedMiss(UserId u);

  /// Exact full-catalog sweep for B >= 1 users: one RunBatch job per
  /// item chunk scores *all* users per block through ScoreItemRangeMulti
  /// (ScoreItemRange for a lone user), then runs the per-user bounded
  /// selection while the block's score rows are cache-hot; the per-(user,
  /// chunk) pools merge exactly, so a batch of B ranks bit-identically to
  /// B batches of one. Runs outside every stripe lock; fans out over the
  /// pool when the model allows it and the calling thread is not itself a
  /// pool worker.
  void BatchSweep(const ItemScorer& model, std::span<const UserId> users,
                  std::vector<TopKResponse>* results);

  /// ANN miss path for B >= 1 users: per-user queries written into one
  /// packed buffer, one ProbeBatch for an overfetched candidate block per
  /// user (AnnWant; the IVF shares a single centroid-matrix scan across
  /// the batch), then each block is re-ranked with the model's exact
  /// ScoreItems under the usual exclusion + (score desc, id asc) ranking.
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
  /// one). The miss path and RefreshEntry both ask for this count — the
  /// refresh's exactness argument requires the two to be equal.
  size_t AnnWant(UserId u) const;

  /// Maintenance-side index refresh against `snapshot`: incremental
  /// (SphericalIvfIndex::Rebuilt over `dirty_items`) when a compatible
  /// index exists and a dirty list is given; otherwise a from-scratch
  /// factory build (which publishes null — exact fallback — for
  /// unindexable models).
  void RefreshAnnIndex(const std::shared_ptr<const ItemScorer>& snapshot,
                       const std::vector<size_t>* dirty_items);

  /// Incremental refresh: re-scores the `dirty` item shards (sorted ids)
  /// and merges with the entry's surviving rows. With `ann` non-null (the
  /// just-rebuilt, snapshot-compatible candidate index) the dirty-shard
  /// candidates come from one index probe filtered to the dirty shards —
  /// probe cost instead of full shard re-scores — and only those few
  /// candidates are exact-scored; the acceptance threshold, merge, and
  /// exactness cutoff are the exact path's, so under an exhaustive probe
  /// (IVF at full nprobe) the refreshed entry and the drop decision are
  /// bit-identical to `ann == nullptr`. An approximate probe
  /// degrades candidate coverage only — the same recall axis as
  /// ANN-served misses, never a mis-scored item. Returns false when the
  /// merge cannot prove exactness (the k-th-rank cutoff dropped) — the
  /// caller drops the entry and its next query re-sweeps lazily, keeping
  /// the per-entry stripe-lock hold bounded.
  bool RefreshEntry(const ItemScorer& model, UserId u,
                    const std::vector<size_t>& dirty,
                    const SphericalIvfIndex* ann, RefreshScratch* scratch,
                    CacheEntry* entry);

  void EvictIfOverCap(Stripe* stripe);

  SnapshotHandle<ItemScorer> model_;
  size_t num_users_;
  size_t num_items_;
  size_t item_shards_;
  TopKServerOptions options_;

  /// ANN serving state: the index epoch-swaps exactly like the model. A
  /// null slot (unindexable model, or ann disabled) keeps misses on the
  /// exact sweep. ann_enabled_ is fixed at construction; the per-miss dim
  /// re-check handles model swaps that invalidate the index.
  bool ann_enabled_ = false;
  SnapshotHandle<SphericalIvfIndex> ann_index_;
  std::atomic<uint64_t> ann_probes_{0};
  std::atomic<uint64_t> exact_fallbacks_{0};
  std::atomic<uint64_t> ann_refresh_probes_{0};

  std::vector<Stripe> stripes_;

  /// Miss coalescer (reader-side): misses queue here while a batch leader
  /// sweeps; the leader claims up to batch.max_batch of them on its
  /// way out. batch_mu_ only ever guards queue/flag manipulation — sweeps
  /// run outside it, so the hot uncontended miss pays one mutex hop.
  std::mutex batch_mu_;
  std::condition_variable batch_cv_;
  std::deque<PendingMiss*> batch_queue_;
  bool batch_leader_active_ = false;

  /// Batching efficacy counters (multi-user sweeps only; see stats()).
  std::atomic<uint64_t> batch_sweeps_{0};
  std::atomic<uint64_t> coalesced_misses_{0};
  std::atomic<uint64_t> max_batch_{0};

  /// Serializes sweeps of models whose thread_safe() is false (shared
  /// internal scoring scratch): concurrent queries would race it even on
  /// the serial sweep path.
  std::mutex serial_model_mu_;
};

}  // namespace mars

#endif  // MARS_SERVE_TOP_K_SERVER_H_
