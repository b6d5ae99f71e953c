#include "ann/vp_tree_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/facet_store.h"
#include "common/kernels.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/vec.h"

namespace mars {

namespace {

/// Absolute slack on the triangle-inequality prune: the boundary radii
/// and query distances pass through sqrt, so a subtree sitting *exactly*
/// on the pruning boundary could be rejected by a last-ulp rounding
/// difference. The slack only ever widens the visit, so exactness is
/// preserved and the cost is a few extra node visits on exact-tie
/// geometries.
constexpr float kPruneSlack = 1e-5f;

bool CanFanOut(ThreadPool* pool) {
  return pool != nullptr && !pool->IsWorkerThread();
}

/// Heap order: "nearer-ranked" ascending by (distance², id). The search
/// keeps a max-heap under this order, so the front is the current worst
/// member — the id tiebreak matches the serving rank order (score
/// descending, id ascending) under score == -distance².
inline bool RanksNearer(const std::pair<float, ItemId>& a,
                        const std::pair<float, ItemId>& b) {
  return a.first < b.first || (a.first == b.first && a.second < b.second);
}

inline void OfferCandidate(std::pair<float, ItemId> cand, size_t want,
                           std::vector<std::pair<float, ItemId>>* heap) {
  if (heap->size() < want) {
    heap->push_back(cand);
    std::push_heap(heap->begin(), heap->end(), RanksNearer);
    return;
  }
  if (!RanksNearer(cand, heap->front())) return;
  std::pop_heap(heap->begin(), heap->end(), RanksNearer);
  heap->back() = cand;
  std::push_heap(heap->begin(), heap->end(), RanksNearer);
}

}  // namespace

std::unique_ptr<VpTreeIndex> VpTreeIndex::Build(const ItemScorer& model,
                                                size_t num_items,
                                                const AnnIndexOptions& options,
                                                ThreadPool* pool) {
  MARS_CHECK(num_items >= 1);
  MARS_CHECK_MSG(model.index_geometry() == IndexGeometry::kL2,
                 "VpTreeIndex requires an L2-geometry model");
  const size_t dim = model.index_dim();
  MARS_CHECK(dim >= 1);

  auto index = std::unique_ptr<VpTreeIndex>(new VpTreeIndex());
  index->num_items_ = num_items;
  index->dim_ = dim;
  index->leaf_size_ = std::max<size_t>(1, options.leaf_size);
  index->parallel_depth_ = options.vp_parallel_depth;
  index->seed_ = options.seed;

  index->vectors_.mutable_vec().resize(num_items * dim);
  float* vec_data = index->vectors_.mutable_data();
  const size_t chunks =
      CanFanOut(pool)
          ? std::max<size_t>(1, std::min(num_items, 4 * pool->num_threads()))
          : 1;
  const auto copy_chunk = [&](size_t c) {
    const auto [begin, end] = FacetStore::ShardRange(num_items, c, chunks);
    if (begin >= end) return;
    model.CopyIndexVectors(begin, end, vec_data + begin * dim);
  };
  if (chunks > 1) {
    pool->RunBatch(chunks, copy_chunk);
  } else {
    copy_chunk(0);
  }

  auto& ids = index->ids_.mutable_vec();
  ids.resize(num_items);
  std::iota(ids.begin(), ids.end(), ItemId{0});
  index->radii_.mutable_vec().assign(num_items, 0.0f);
  index->BuildTree(pool);
  return index;
}

std::unique_ptr<VpTreeIndex> VpTreeIndex::Borrow(
    size_t num_items, size_t dim, size_t leaf_size, size_t parallel_depth,
    uint64_t seed, const float* vectors, const ItemId* ids, const float* radii,
    std::shared_ptr<const void> keepalive) {
  MARS_CHECK(num_items >= 1 && dim >= 1 && leaf_size >= 1);
  auto index = std::unique_ptr<VpTreeIndex>(new VpTreeIndex());
  index->num_items_ = num_items;
  index->dim_ = dim;
  index->leaf_size_ = leaf_size;
  index->parallel_depth_ = parallel_depth;
  index->seed_ = seed;
  index->vectors_.Borrow(vectors, num_items * dim);
  index->ids_.Borrow(ids, num_items);
  index->radii_.Borrow(radii, num_items);
  index->storage_keepalive_ = std::move(keepalive);
  return index;
}

std::pair<std::pair<size_t, size_t>, std::pair<size_t, size_t>>
VpTreeIndex::PartitionNode(size_t begin, size_t end) {
  ItemId* ids = ids_.mutable_data();
  float* radii = radii_.mutable_data();
  const size_t n = end - begin;
  // Vantage pick: seeded hash of the range — deterministic, and
  // independent of which thread partitions the node.
  uint64_t h = seed_ ^ (begin * 0x9E3779B97F4A7C15ULL + end);
  const size_t pick = SplitMix64(&h) % n;
  std::swap(ids[begin], ids[begin + pick]);
  const float* vp = vectors_.data() + ids[begin] * dim_;

  const size_t cn = n - 1;
  // Thread-local scratch: recursion uses the buffers strictly before
  // recursing, so reuse across levels (and across RunBatch tasks on one
  // worker) is safe.
  static thread_local std::vector<float> d2;
  static thread_local std::vector<std::pair<float, ItemId>> children;
  d2.resize(cn);
  children.resize(cn);
  SquaredDistanceGather(vp, vectors_.data(), dim_, &ids[begin + 1], cn, dim_,
                        d2.data());
  for (size_t i = 0; i < cn; ++i) children[i] = {d2[i], ids[begin + 1 + i]};

  // Median split by (distance², id); the id tiebreak keeps the partition
  // deterministic when many children are equidistant.
  const size_t near_count = (cn + 1) / 2;
  std::nth_element(children.begin(), children.begin() + (near_count - 1),
                   children.end(), RanksNearer);
  radii[begin] = std::sqrt(children[near_count - 1].first);
  for (size_t i = 0; i < cn; ++i) ids[begin + 1 + i] = children[i].second;

  return {{begin + 1, begin + 1 + near_count}, {begin + 1 + near_count, end}};
}

void VpTreeIndex::BuildSubtree(size_t begin, size_t end) {
  if (end - begin <= leaf_size_) return;
  const auto [near, far] = PartitionNode(begin, end);
  BuildSubtree(near.first, near.second);
  BuildSubtree(far.first, far.second);
}

void VpTreeIndex::BuildTree(ThreadPool* pool) {
  const bool fan = CanFanOut(pool) && parallel_depth_ > 0 &&
                   num_items_ > 4 * leaf_size_;
  if (!fan) {
    BuildSubtree(0, num_items_);
    return;
  }
  // Partition the top `parallel_depth_` levels serially; the surviving
  // frontier subtrees own disjoint ranges and build independently.
  std::vector<std::pair<size_t, size_t>> frontier{{0, num_items_}};
  std::vector<std::pair<size_t, size_t>> next;
  for (size_t depth = 0; depth < parallel_depth_; ++depth) {
    next.clear();
    for (const auto& [begin, end] : frontier) {
      if (end - begin <= leaf_size_) continue;
      const auto [near, far] = PartitionNode(begin, end);
      next.push_back(near);
      next.push_back(far);
    }
    if (next.empty()) return;
    frontier.swap(next);
  }
  pool->RunBatch(frontier.size(), [&](size_t i) {
    BuildSubtree(frontier[i].first, frontier[i].second);
  });
}

void VpTreeIndex::Probe(const float* query, size_t want,
                        std::vector<ItemId>* out) const {
  if (want == 0) return;
  if (want >= num_items_) {
    const size_t base = out->size();
    out->resize(base + num_items_);
    for (size_t v = 0; v < num_items_; ++v) {
      (*out)[base + v] = static_cast<ItemId>(v);
    }
    return;
  }
  static thread_local std::vector<std::pair<float, ItemId>> heap;
  heap.clear();
  SearchNode(0, num_items_, query, want, &heap);
  out->reserve(out->size() + heap.size());
  for (const auto& [d2, id] : heap) out->push_back(id);
}

void VpTreeIndex::SearchNode(
    size_t begin, size_t end, const float* query, size_t want,
    std::vector<std::pair<float, ItemId>>* heap) const {
  const size_t n = end - begin;
  if (n == 0) return;
  if (n <= leaf_size_) {
    static thread_local std::vector<float> leaf_d2;
    leaf_d2.resize(n);
    SquaredDistanceGather(query, vectors_.data(), dim_, &ids_[begin], n, dim_,
                          leaf_d2.data());
    for (size_t i = 0; i < n; ++i) {
      OfferCandidate({leaf_d2[i], ids_[begin + i]}, want, heap);
    }
    return;
  }

  const float d2v =
      SquaredDistance(query, vectors_.data() + ids_[begin] * dim_, dim_);
  OfferCandidate({d2v, ids_[begin]}, want, heap);
  const float d = std::sqrt(d2v);
  const float r = radii_[begin];
  const size_t near_count = (n - 1 + 1) / 2;
  const size_t mid = begin + 1 + near_count;

  // Visit the side the query falls in first — it tightens tau before the
  // other side's prune test runs. tau is re-read after the first visit.
  const auto tau = [&]() {
    return heap->size() < want ? std::numeric_limits<float>::infinity()
                               : std::sqrt(heap->front().first);
  };
  if (d <= r) {
    SearchNode(begin + 1, mid, query, want, heap);
    // Far points have d(x, vp) >= r, so d(q, x) >= r - d; skip only when
    // that floor beats the current worst kept distance.
    if (d + tau() >= r - kPruneSlack) SearchNode(mid, end, query, want, heap);
  } else {
    SearchNode(mid, end, query, want, heap);
    // Near points have d(x, vp) <= r, so d(q, x) >= d - r.
    if (d - tau() <= r + kPruneSlack) {
      SearchNode(begin + 1, mid, query, want, heap);
    }
  }
}

std::unique_ptr<CandidateIndex> VpTreeIndex::Rebuilt(
    const ItemScorer& model, const std::vector<size_t>& dirty_shards,
    size_t num_shards, ThreadPool* pool) const {
  MARS_CHECK_MSG(model.index_geometry() == IndexGeometry::kL2 &&
                     model.index_dim() == dim_,
                 "Rebuilt model must keep the index geometry");
  auto next = std::unique_ptr<VpTreeIndex>(new VpTreeIndex(*this));
  if (dirty_shards.empty()) return next;
  // Dirty rows land straight in the vector table (tight rows addressed by
  // id); clean rows are byte-identical by the tracker contract, so the
  // deterministic re-partition below equals a fresh Build over the
  // updated model. On a mapped index this is the copy-on-write step: all
  // three arrays are materialized (the whole tree re-partitions).
  next->vectors_.EnsureOwned();
  next->ids_.EnsureOwned();
  next->radii_.EnsureOwned();
  float* vec_data = next->vectors_.mutable_data();
  const auto refresh_shard = [&](size_t i) {
    const auto [begin, end] =
        FacetStore::ShardRange(num_items_, dirty_shards[i], num_shards);
    if (begin >= end) return;
    model.CopyIndexVectors(begin, end, vec_data + begin * dim_);
  };
  if (CanFanOut(pool) && dirty_shards.size() > 1) {
    pool->RunBatch(dirty_shards.size(), refresh_shard);
  } else {
    for (size_t i = 0; i < dirty_shards.size(); ++i) refresh_shard(i);
  }
  auto& next_ids = next->ids_.mutable_vec();
  std::iota(next_ids.begin(), next_ids.end(), ItemId{0});
  auto& next_radii = next->radii_.mutable_vec();
  std::fill(next_radii.begin(), next_radii.end(), 0.0f);
  next->BuildTree(pool);
  return next;
}

}  // namespace mars
