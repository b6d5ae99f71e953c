// Spherical IVF candidate index for dot-geometry models — the one
// candidate index of the retrieval tier (ann/candidate_index.h holds its
// build knobs and factory).
//
// The index is *only* a candidate generator: every score the server
// returns still comes from the model's own ScoreItems, so an ANN-served
// response differs from the exact sweep at most in *which* items it
// considered, never in how any considered item is scored.
//
// Coarse quantization on the sphere: k-means centroids are unit-normalized
// after every Lloyd update (the spherical k-means mean-direction step), and
// rows are assigned to the centroid of maximum *dot* — for a fixed row the
// ranking over unit centroids equals the cosine ranking, since the row's
// own norm is a constant factor, so neither the catalog vectors nor the
// queries are ever normalized. This is exactly the geometry the paper's
// spherical optimization serves up: MARS facet rows live on unit spheres
// where cosine == dot, and BPR's bias-augmented vectors rank by dot.
//
// A probe scores the query against every centroid (one DotBatch over a
// few hundred rows), takes the nprobe best lists, and concatenates their
// item ids — lists are disjoint, and the server re-ranks with exact model
// scores, so no per-candidate ordering work happens here. When the
// requested candidate count exceeds the nprobe lists' total population
// the probe keeps taking next-best lists, so exclusion-heavy queries
// degrade toward the full catalog instead of returning short.
//
// Rebuilt() implements the incremental maintenance contract: centroids
// are *kept*, only rows in dirty shards are re-read and re-assigned
// (fanned over the pool), and the inverted lists are regenerated by one
// counting sort. Re-assigning every shard therefore gives bit-identically
// the same index — the pinning property the rebuild tests assert.
//
// Concurrency contract: a built index is immutable — Probe is
// const-threadsafe and may run from any number of frontend threads.
// Updates go through Rebuilt(), which returns a *new* index and leaves
// the receiver untouched, so the serving layer publishes indexes through
// the same epoch-swap (SnapshotHandle) as model snapshots: in-flight
// probes keep the index they started with. Build/Rebuilt run quiesced at
// an epoch boundary (the AbsorbWrites contract) and fan work over the
// pool with ThreadPool::RunBatch.
#ifndef MARS_ANN_IVF_INDEX_H_
#define MARS_ANN_IVF_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ann/candidate_index.h"
#include "common/maybe_owned.h"

namespace mars {

/// Immutable candidate generator over one model snapshot's item vectors.
class SphericalIvfIndex {
 public:
  /// Builds over `model`'s items [0, num_items); requires an indexable model
  /// (index_dim() > 0) and num_items >= 1. Deterministic in (vectors,
  /// options); `pool` parallelizes each Lloyd assignment step and the
  /// full-catalog assignment (may be null). The centroid updates stay serial
  /// and in sample order, so the index is bit-identical with or without a
  /// pool.
  static std::unique_ptr<SphericalIvfIndex> Build(
      const ItemScorer& model, size_t num_items,
      const AnnIndexOptions& options, ThreadPool* pool);

  /// Wraps caller-owned flat arrays (a mapped index file) without copying
  /// a byte: `centroids` is num_centroids x dim unit rows, `assign` the
  /// per-item owning centroid, `offsets`/`list_ids` the CSR inverted
  /// lists. `keepalive` pins the backing storage for the life of this
  /// index and everything derived from it. The caller (the index-file
  /// loader) is responsible for having validated the CSR invariants;
  /// probes over the borrowed arrays are bit-identical to a freshly
  /// built index holding the same bytes.
  static std::unique_ptr<SphericalIvfIndex> Borrow(
      size_t num_items, size_t dim, size_t num_centroids, size_t nprobe,
      const float* centroids, const uint32_t* assign, const uint32_t* offsets,
      const ItemId* list_ids, std::shared_ptr<const void> keepalive);

  size_t num_items() const { return num_items_; }
  size_t dim() const { return dim_; }

  /// Appends at least min(want, num_items) candidate item ids to `out`
  /// (which is not cleared), best-effort nearest the query first in
  /// aggregate — order within the block is unspecified; the caller
  /// re-ranks with exact model scores. Ids are unique per call.
  void Probe(const float* query, size_t want, std::vector<ItemId>* out) const;

  /// Batched probe for the serving coalescer: `queries` holds
  /// `num_queries` query vectors of dim() floats, tightly packed;
  /// appends each query's candidates to (*out)[q] (not cleared; `out`
  /// must hold at least num_queries vectors), exactly as
  /// Probe(queries + q·dim(), want[q], &(*out)[q]) would — per query the
  /// candidate set is bit-identical to the solo probe, the contract the
  /// batched miss path relies on. All queries' centroid dots come from
  /// one multi-query pass over the centroid matrix (each centroid row
  /// loaded once per query quad), then the per-query list walk runs
  /// exactly as in Probe.
  void ProbeBatch(const float* queries, size_t num_queries,
                  const size_t* want,
                  std::vector<std::vector<ItemId>>* out) const;

  /// Returns a fresh index over `model`'s current item vectors that keeps
  /// the centroids and re-assigns only the rows of the dirty shards.
  /// `dirty_shards` are sorted shard ids under FacetStore::ShardRange(
  /// num_items, ·, num_shards) — the WriteTracker geometry. The receiver
  /// is left untouched (in-flight probes keep it). Quiesced-side only.
  std::unique_ptr<SphericalIvfIndex> Rebuilt(
      const ItemScorer& model, const std::vector<size_t>& dirty_shards,
      size_t num_shards, ThreadPool* pool) const;

  /// True when any of the index's flat arrays is borrowed from a mapped
  /// file rather than owned (ann/index_io.h LoadCandidateIndexMapped).
  /// Borrowed state is pinned by an internal keepalive shared_ptr, which
  /// copies through Rebuilt()/clones, so views never dangle.
  bool mapped() const { return storage_keepalive_ != nullptr; }

  size_t num_centroids() const { return num_centroids_; }
  size_t nprobe() const { return nprobe_; }
  /// Items assigned to centroid `c`, ascending ids; lists tile the
  /// catalog.
  std::span<const ItemId> List(size_t c) const {
    return {list_ids_.data() + offsets_[c], offsets_[c + 1] - offsets_[c]};
  }
  std::span<const uint32_t> assignments() const { return assign_.span(); }
  // Flat-state spans for persistence (ann/index_io.cc) and tests.
  std::span<const float> centroids() const { return centroids_.span(); }
  std::span<const uint32_t> offsets() const { return offsets_.span(); }
  std::span<const ItemId> list_ids() const { return list_ids_.span(); }

  /// Cheap copy with a different probe width — the bench sweeps the
  /// recall/latency curve without re-running k-means.
  std::unique_ptr<SphericalIvfIndex> CloneWithNprobe(size_t nprobe) const;

 private:
  SphericalIvfIndex() = default;

  /// Regenerates offsets_/list_ids_ from assign_ (counting sort; ids come
  /// out ascending within each list).
  void RebuildLists();

  /// The list walk shared by Probe and ProbeBatch: appends the whole
  /// catalog when `want` covers it; otherwise ranks centroids by the
  /// precomputed query-centroid dots (ties to the lower index) and appends
  /// lists until both nprobe and `want` are met.
  void AppendBestLists(const float* cdots, size_t want,
                       std::vector<ItemId>* out) const;

  size_t num_items_ = 0;
  size_t dim_ = 0;
  /// Pins the backing storage of borrowed buffers (the MappedFile of a
  /// loaded index file). Null for fully owned indexes. Default-copied so
  /// every derived index (Rebuilt, CloneWithNprobe) keeps the mapping
  /// alive for as long as any borrowed span survives.
  std::shared_ptr<const void> storage_keepalive_;
  size_t num_centroids_ = 0;
  size_t nprobe_ = 0;
  // Owned when built, borrowed from the mapping when loaded
  // (common/maybe_owned.h); Rebuilt() on a mapped index copies-on-write
  // only what it mutates (assign_ + the regenerated lists — centroids
  // stay borrowed, the k-means product is never copied).
  MaybeOwned<float> centroids_;    // num_centroids x dim, unit rows
  MaybeOwned<uint32_t> assign_;    // per item, owning centroid
  MaybeOwned<uint32_t> offsets_;   // CSR offsets, num_centroids + 1
  MaybeOwned<ItemId> list_ids_;    // CSR payload, num_items total
};

}  // namespace mars

#endif  // MARS_ANN_IVF_INDEX_H_
