#include "ann/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <utility>

#include "common/check.h"
#include "common/facet_store.h"
#include "common/kernels.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/vec.h"

namespace mars {

namespace {

/// RunBatch is not re-entrant; a build triggered from a pool task (e.g. an
/// epoch callback running on a worker) falls back to the serial path.
bool CanFanOut(ThreadPool* pool) {
  return pool != nullptr && !pool->IsWorkerThread();
}

/// Reads items [begin, end) through the model's index-vector surface and
/// assigns each to its max-dot centroid. The copy buffer is per-thread:
/// chunks re-use it across RunBatch tasks instead of paying a
/// chunk-sized allocation each.
void AssignRange(const ItemScorer& model, ItemId begin, ItemId end,
                 const float* centroids, size_t num_centroids, size_t dim,
                 uint32_t* assign) {
  if (begin >= end) return;
  static thread_local std::vector<float> rows;
  rows.resize((end - begin) * dim);
  model.CopyIndexVectors(begin, end, rows.data());
  NearestCentroidDotBatch(rows.data(), end - begin, dim, centroids,
                          num_centroids, dim, dim, assign + begin);
}

/// Runs `fn(begin, end)` over balanced contiguous chunks of [0, count),
/// fanned over the pool when it can take work and serially otherwise.
/// Per-row results land in disjoint slices, so the output does not depend
/// on the chunking.
void ForEachChunk(size_t count, ThreadPool* pool,
                  const std::function<void(size_t, size_t)>& fn) {
  const size_t chunks =
      CanFanOut(pool)
          ? std::max<size_t>(1, std::min(count, 4 * pool->num_threads()))
          : 1;
  const auto run_chunk = [&](size_t c) {
    const auto [begin, end] = FacetStore::ShardRange(count, c, chunks);
    fn(begin, end);
  };
  if (chunks > 1) {
    pool->RunBatch(chunks, run_chunk);
  } else {
    run_chunk(0);
  }
}

/// Unit-normalizes a centroid row; degenerate rows become e_0 so every
/// centroid stays a valid unit vector.
void NormalizeCentroid(float* row, size_t dim) {
  if (!NormalizeInPlace(row, dim)) {
    Fill(0.0f, row, dim);
    row[0] = 1.0f;
  }
}

}  // namespace

std::unique_ptr<SphericalIvfIndex> SphericalIvfIndex::Build(
    const ItemScorer& model, size_t num_items, const AnnIndexOptions& options,
    ThreadPool* pool) {
  MARS_CHECK(num_items >= 1);
  const size_t dim = model.index_dim();
  MARS_CHECK_MSG(dim >= 1, "SphericalIvfIndex requires an indexable model");

  auto index = std::unique_ptr<SphericalIvfIndex>(new SphericalIvfIndex());
  index->num_items_ = num_items;
  index->dim_ = dim;

  // Auto centroid count ~ 4·sqrt(N) (the FAISS-recommended IVF range):
  // finer lists cost a slightly longer centroid scan but waste far fewer
  // re-ranked candidates per probed list, which is what the recall-vs-
  // speedup gate actually trades. Measured on the bench workload at 50k
  // items, 4·sqrt(N) with nprobe = ncent/32 holds recall@10 ≈ 0.97 while
  // re-ranking ~3% of the catalog; sqrt(N) centroids need >1/4 of the
  // catalog for the same recall.
  size_t ncent =
      options.num_centroids > 0
          ? options.num_centroids
          : std::max<size_t>(
                8, 4 * static_cast<size_t>(std::lround(
                           std::sqrt(static_cast<double>(num_items)))));
  ncent = std::min(ncent, num_items);
  ncent = std::max<size_t>(1, ncent);
  index->num_centroids_ = ncent;
  index->nprobe_ = options.nprobe > 0
                       ? std::min(options.nprobe, ncent)
                       : std::min(ncent, std::max<size_t>(2, ncent / 32));

  // K-means trains on a deterministic strided sample (assignment of the
  // *full* catalog to the final centroids happens below regardless).
  const size_t sample_count =
      std::min(num_items, std::max(options.kmeans_sample, ncent));
  std::vector<float> sample(sample_count * dim);
  std::vector<ItemId> sample_ids(sample_count);
  for (size_t i = 0; i < sample_count; ++i) {
    sample_ids[i] = static_cast<ItemId>(i * num_items / sample_count);
    model.CopyIndexVectors(sample_ids[i], sample_ids[i] + 1,
                           sample.data() + i * dim);
  }

  // Init: ncent distinct sample rows, seeded shuffle.
  std::vector<size_t> perm(sample_count);
  std::iota(perm.begin(), perm.end(), size_t{0});
  Rng rng(options.seed);
  rng.Shuffle(&perm);
  auto& centroids = index->centroids_.mutable_vec();
  centroids.resize(ncent * dim);
  for (size_t c = 0; c < ncent; ++c) {
    Copy(sample.data() + perm[c] * dim, centroids.data() + c * dim, dim);
    NormalizeCentroid(centroids.data() + c * dim, dim);
  }

  // Lloyd iterations with the spherical mean-direction update.
  std::vector<uint32_t> sample_assign(sample_count);
  std::vector<float> sums(ncent * dim);
  std::vector<uint32_t> counts(ncent);
  for (size_t iter = 0; iter < options.kmeans_iters; ++iter) {
    // The assignment step fans out over the pool; the accumulation below
    // stays serial and in sample order, so the centroids' float sums (and
    // so every later bit of the index) do not depend on the pool.
    ForEachChunk(sample_count, pool, [&](size_t begin, size_t end) {
      NearestCentroidDotBatch(sample.data() + begin * dim, end - begin, dim,
                              centroids.data(), ncent, dim, dim,
                              sample_assign.data() + begin);
    });
    std::fill(sums.begin(), sums.end(), 0.0f);
    std::fill(counts.begin(), counts.end(), 0u);
    for (size_t i = 0; i < sample_count; ++i) {
      Axpy(1.0f, sample.data() + i * dim,
           sums.data() + sample_assign[i] * dim, dim);
      ++counts[sample_assign[i]];
    }
    for (size_t c = 0; c < ncent; ++c) {
      float* row = centroids.data() + c * dim;
      if (counts[c] == 0) {
        // Empty cluster: reseed deterministically from the sample so the
        // centroid count never silently shrinks.
        const size_t r = (iter * 2654435761u + c) % sample_count;
        Copy(sample.data() + r * dim, row, dim);
      } else {
        Copy(sums.data() + c * dim, row, dim);
      }
      NormalizeCentroid(row, dim);
    }
  }

  index->assign_.mutable_vec().resize(num_items);
  uint32_t* assign = index->assign_.mutable_data();
  ForEachChunk(num_items, pool, [&](size_t begin, size_t end) {
    AssignRange(model, begin, end, centroids.data(), ncent, dim, assign);
  });
  index->RebuildLists();
  return index;
}

std::unique_ptr<SphericalIvfIndex> SphericalIvfIndex::Borrow(
    size_t num_items, size_t dim, size_t num_centroids, size_t nprobe,
    const float* centroids, const uint32_t* assign, const uint32_t* offsets,
    const ItemId* list_ids, std::shared_ptr<const void> keepalive) {
  MARS_CHECK(num_items >= 1 && dim >= 1);
  MARS_CHECK(num_centroids >= 1 && num_centroids <= num_items);
  auto index = std::unique_ptr<SphericalIvfIndex>(new SphericalIvfIndex());
  index->num_items_ = num_items;
  index->dim_ = dim;
  index->num_centroids_ = num_centroids;
  index->nprobe_ = std::min(std::max<size_t>(1, nprobe), num_centroids);
  index->centroids_.Borrow(centroids, num_centroids * dim);
  index->assign_.Borrow(assign, num_items);
  index->offsets_.Borrow(offsets, num_centroids + 1);
  index->list_ids_.Borrow(list_ids, num_items);
  index->storage_keepalive_ = std::move(keepalive);
  return index;
}

void SphericalIvfIndex::RebuildLists() {
  auto& offsets = offsets_.mutable_vec();
  auto& list_ids = list_ids_.mutable_vec();
  const uint32_t* assign = assign_.data();
  offsets.assign(num_centroids_ + 1, 0);
  for (size_t v = 0; v < num_items_; ++v) ++offsets[assign[v] + 1];
  for (size_t c = 0; c < num_centroids_; ++c) offsets[c + 1] += offsets[c];
  list_ids.resize(num_items_);
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t v = 0; v < num_items_; ++v) {
    list_ids[cursor[assign[v]]++] = static_cast<ItemId>(v);
  }
}

void SphericalIvfIndex::Probe(const float* query, size_t want,
                              std::vector<ItemId>* out) const {
  if (want >= num_items_) {
    const size_t base = out->size();
    out->resize(base + num_items_);
    for (size_t v = 0; v < num_items_; ++v) {
      (*out)[base + v] = static_cast<ItemId>(v);
    }
    return;
  }
  static thread_local std::vector<float> cdots;
  cdots.resize(num_centroids_);
  DotBatch(query, centroids_.data(), num_centroids_, dim_, dim_,
           cdots.data());
  AppendBestLists(cdots.data(), want, out);
}

void SphericalIvfIndex::AppendBestLists(const float* cdots, size_t want,
                                        std::vector<ItemId>* out) const {
  static thread_local std::vector<uint32_t> order;
  order.resize(num_centroids_);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return cdots[a] > cdots[b] || (cdots[a] == cdots[b] && a < b);
  });
  // nprobe lists minimum; keep extending into next-best lists until the
  // requested candidate count is met (lists are disjoint, so appended ids
  // stay unique).
  size_t appended = 0;
  for (size_t i = 0; i < num_centroids_; ++i) {
    if (i >= nprobe_ && appended >= want) break;
    const auto list = List(order[i]);
    out->insert(out->end(), list.begin(), list.end());
    appended += list.size();
  }
}

void SphericalIvfIndex::ProbeBatch(const float* queries, size_t num_queries,
                                   const size_t* want,
                                   std::vector<std::vector<ItemId>>* out) const {
  if (num_queries == 0) return;
  if (num_queries == 1) {
    // A lone query takes the single-query scan: DotBatch runs faster than
    // DotBatchMulti's one-user tail and yields the same candidate set.
    Probe(queries, want[0], &(*out)[0]);
    return;
  }
  // One multi-query pass over the centroid matrix scores every query's
  // centroid dots (each centroid row is loaded once per query quad); the
  // per-query list walk is then identical to Probe, so each query's
  // candidate set is bit-identical to its solo probe.
  static thread_local std::vector<float> all_dots;
  all_dots.resize(num_queries * num_centroids_);
  std::vector<const float*> qs(num_queries);
  std::vector<float*> dots(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    qs[q] = queries + q * dim_;
    dots[q] = all_dots.data() + q * num_centroids_;
  }
  DotBatchMulti(qs.data(), num_queries, centroids_.data(), num_centroids_,
                dim_, dim_, dots.data());
  for (size_t q = 0; q < num_queries; ++q) {
    if (want[q] >= num_items_) {
      auto& dst = (*out)[q];
      const size_t base = dst.size();
      dst.resize(base + num_items_);
      for (size_t v = 0; v < num_items_; ++v) {
        dst[base + v] = static_cast<ItemId>(v);
      }
      continue;
    }
    AppendBestLists(dots[q], want[q], &(*out)[q]);
  }
}

std::unique_ptr<CandidateIndex> SphericalIvfIndex::Rebuilt(
    const ItemScorer& model, const std::vector<size_t>& dirty_shards,
    size_t num_shards, ThreadPool* pool) const {
  MARS_CHECK_MSG(model.index_dim() == dim_,
                 "Rebuilt model must keep the index dim");
  auto next = std::unique_ptr<SphericalIvfIndex>(new SphericalIvfIndex(*this));
  if (dirty_shards.empty()) return next;
  // Centroids are reused: only dirty rows are re-read and re-assigned, so
  // an epoch that dirtied 1/64th of the catalog pays ~1/64th of the full
  // assignment (the k-means cost is never repaid). On a mapped index this
  // is the copy-on-write step: assign_ is materialized (the lists below
  // are regenerated outright), centroids_ stays borrowed from the mapping
  // — the keepalive copied with *this keeps it valid.
  next->assign_.EnsureOwned();
  if (next->offsets_.borrowed()) next->offsets_ = {};
  if (next->list_ids_.borrowed()) next->list_ids_ = {};
  const auto reassign_shard = [&](size_t i) {
    const auto [begin, end] =
        FacetStore::ShardRange(num_items_, dirty_shards[i], num_shards);
    AssignRange(model, begin, end, next->centroids_.data(), num_centroids_,
                dim_, next->assign_.mutable_data());
  };
  if (CanFanOut(pool) && dirty_shards.size() > 1) {
    pool->RunBatch(dirty_shards.size(), reassign_shard);
  } else {
    for (size_t i = 0; i < dirty_shards.size(); ++i) reassign_shard(i);
  }
  next->RebuildLists();
  return next;
}

std::unique_ptr<SphericalIvfIndex> SphericalIvfIndex::CloneWithNprobe(
    size_t nprobe) const {
  auto next = std::unique_ptr<SphericalIvfIndex>(new SphericalIvfIndex(*this));
  next->nprobe_ = std::min(std::max<size_t>(1, nprobe), num_centroids_);
  return next;
}

}  // namespace mars
