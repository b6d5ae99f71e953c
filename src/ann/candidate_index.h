// Sub-linear candidate retrieval over a frozen model snapshot.
//
// A CandidateIndex turns the serving miss path from "score the whole
// catalog" into "probe the index for a candidate block, then re-rank the
// block with the model's exact scores". The index is *only* a candidate
// generator: every score the server returns still comes from the model's
// own ScoreItems, so an ANN-served response differs from the exact sweep
// at most in *which* items it considered, never in how any considered
// item is scored. Recall — the fraction of the true top-k the candidate
// block covers — is the single quality axis, and the bench
// (bench/bench_serve.cpp) measures it against the brute-force oracle at
// every committed nprobe (scripts/check_bench.py gates it).
//
// One implementation serves every indexable model of eval/scorer.h
// (index_dim() > 0): SphericalIvfIndex (ann/ivf_index.h) over the models' dot
// vectors (BPR, MARS via concatenated facets) — spherical k-means coarse
// centroids with nprobe-configurable inverted lists. Approximate: probing more
// lists trades latency for recall. Every other model (the metric baselines
// included) serves through the exact sweep.
//
// Concurrency contract: a built index is immutable — Probe is
// const-threadsafe and may run from any number of frontend threads.
// Updates go through Rebuilt(), which returns a *new* index and leaves
// the receiver untouched, so the serving layer publishes indexes through
// the same epoch-swap (SnapshotHandle) as model snapshots: in-flight
// probes keep the index they started with. Build/Rebuilt run quiesced at
// an epoch boundary (the AbsorbWrites contract) and fan work over the
// pool with ThreadPool::RunBatch.
#ifndef MARS_ANN_CANDIDATE_INDEX_H_
#define MARS_ANN_CANDIDATE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "data/interaction.h"
#include "eval/scorer.h"

namespace mars {

class ThreadPool;

/// Build-time knobs; every field has a scale-aware auto default so the
/// serving layer can pass a default-constructed value.
struct AnnIndexOptions {
  /// IVF coarse centroids; 0 = auto (~4·sqrt(num_items) — the FAISS
  /// operating range; at least 8, clamped to the catalog).
  size_t num_centroids = 0;
  /// IVF lists probed per query; 0 = auto (num_centroids / 32, at least
  /// 2 — tuned with the auto centroid count against the bench's
  /// recall@10 >= 0.95 gate). Raise toward num_centroids to trade
  /// latency for recall; at num_centroids the candidate block is the
  /// whole catalog and the served ranking is exact.
  size_t nprobe = 0;
  /// Lloyd iterations of the spherical k-means.
  size_t kmeans_iters = 8;
  /// Training-sample bound for k-means (the full catalog is still
  /// assigned to the final centroids).
  size_t kmeans_sample = 16384;
  /// Seed for centroid init; builds are deterministic in (vectors,
  /// options).
  uint64_t seed = 0x5eedu;
  /// Serving overfetch: the miss path asks the index for
  /// max(k * overfetch, k + excluded) candidates, so exclusions and
  /// near-boundary items don't eat the returned k.
  size_t overfetch = 4;
};

/// Immutable candidate generator over one model snapshot's item vectors.
class CandidateIndex {
 public:
  virtual ~CandidateIndex() = default;

  size_t num_items() const { return num_items_; }
  size_t dim() const { return dim_; }
  virtual const char* kind() const = 0;

  /// Appends at least min(want, num_items) candidate item ids to `out`
  /// (which is not cleared), best-effort nearest the query first in
  /// aggregate — order within the block is unspecified; the caller
  /// re-ranks with exact model scores. Ids are unique per call.
  virtual void Probe(const float* query, size_t want,
                     std::vector<ItemId>* out) const = 0;

  /// Batched probe for the serving coalescer: `queries` holds
  /// `num_queries` query vectors of dim() floats, tightly packed;
  /// appends each query's candidates to (*out)[q] (not cleared; `out`
  /// must hold at least num_queries vectors), exactly as
  /// Probe(queries + q·dim(), want[q], &(*out)[q]) would — per query the
  /// candidate set is bit-identical to the solo probe, the contract the
  /// batched miss path relies on. Implementations share cross-query work
  /// (the IVF ranks centroids for all queries off one pass over the
  /// centroid matrix).
  virtual void ProbeBatch(const float* queries, size_t num_queries,
                          const size_t* want,
                          std::vector<std::vector<ItemId>>* out) const = 0;

  /// Returns a fresh index over `model`'s current item vectors, reusing
  /// everything the dirty shards don't invalidate (the IVF keeps its
  /// centroids and re-assigns only dirty rows). `dirty_shards` are sorted
  /// shard ids under FacetStore::ShardRange(num_items, ·, num_shards) —
  /// the WriteTracker geometry. The receiver is left untouched (in-flight
  /// probes keep it). Quiesced-side only.
  virtual std::unique_ptr<CandidateIndex> Rebuilt(
      const ItemScorer& model, const std::vector<size_t>& dirty_shards,
      size_t num_shards, ThreadPool* pool) const = 0;

  /// True when any of the index's flat arrays is borrowed from a mapped
  /// file rather than owned (ann/index_io.h LoadCandidateIndexMapped).
  /// Borrowed state is pinned by an internal keepalive shared_ptr, which
  /// copies through Rebuilt()/clones, so views never dangle.
  virtual bool mapped() const { return storage_keepalive_ != nullptr; }

 protected:
  CandidateIndex() = default;
  CandidateIndex(const CandidateIndex&) = default;
  CandidateIndex& operator=(const CandidateIndex&) = default;

  size_t num_items_ = 0;
  size_t dim_ = 0;
  /// Pins the backing storage of borrowed buffers (the MappedFile of a
  /// loaded index file). Null for fully owned indexes. Default-copied so
  /// every derived index (Rebuilt, CloneWithNprobe) keeps the mapping
  /// alive for as long as any borrowed span survives.
  std::shared_ptr<const void> storage_keepalive_;
};

/// Builds an IVF index over `model`'s index vectors, or returns nullptr
/// when the model is not indexable (index_dim() == 0) or the catalog is
/// empty — the caller keeps the exact-sweep path. `pool` may be null
/// (serial build).
std::unique_ptr<CandidateIndex> BuildCandidateIndex(
    const ItemScorer& model, size_t num_items, const AnnIndexOptions& options,
    ThreadPool* pool);

}  // namespace mars

#endif  // MARS_ANN_CANDIDATE_INDEX_H_
