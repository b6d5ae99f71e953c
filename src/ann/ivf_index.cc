#include "ann/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
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

/// Lloyd iterations of the spherical k-means.
constexpr size_t kKmeansIters = 8;
/// Seed of the centroid-init shuffle.
constexpr uint64_t kKmeansSeed = 0x5eedu;

/// RunBatch is not re-entrant; a build triggered from a pool task (e.g. an
/// epoch callback running on a worker) falls back to the serial path.
bool CanFanOut(ThreadPool* pool) {
  return pool != nullptr && !pool->IsWorkerThread();
}

/// An unsigned key that orders like the float, with both zeros equal and
/// NaN (a corrupt centroid's dot) below everything, so the list ranking
/// stays a total order.
uint32_t RankKey(float x) {
  if (std::isnan(x)) return 0;
  if (x == 0.0f) x = 0.0f;
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return (bits >> 31) != 0 ? ~bits : bits | 0x80000000u;
}

/// The m-th largest (1-based, m <= keys.size()) of `keys`: an MSB-first
/// radix select, 8 bits a pass with branch-free compaction — a few
/// histogram passes where nth_element's partitions mispredict half their
/// branches on a query's centroid dots.
uint32_t KthLargest(const std::vector<uint32_t>& keys, size_t m,
                    std::vector<uint32_t>* scratch) {
  std::vector<uint32_t>& cand = *scratch;
  cand.assign(keys.begin(), keys.end());
  size_t n = cand.size();
  for (int shift = 24; shift >= 0 && n > 1; shift -= 8) {
    size_t hist[256] = {};
    for (size_t i = 0; i < n; ++i) ++hist[(cand[i] >> shift) & 255];
    uint32_t digit = 255;
    for (; hist[digit] < m; --digit) m -= hist[digit];
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      cand[kept] = cand[i];
      kept += ((cand[i] >> shift) & 255) == digit;
    }
    n = kept;
  }
  return cand[0];
}

/// 4-bit quantization of one n-float row into `row_bytes` code bytes
/// (the nibble layout of common/kernels.h): scale = max|x|/7, code =
/// round(x/scale) in [-7, 7], stored biased by 8; padding dims hold code
/// 0. A row with no finite positive maximum gets scale 0 and zero codes.
void QuantizeRow(const float* x, size_t n, size_t row_bytes, uint8_t* code,
                 float* scale) {
  std::fill(code, code + row_bytes, uint8_t{0x88});
  *scale = 0.0f;
  float m = 0.0f;
  for (size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  const float inv = 7.0f / m;
  if (!(m > 0.0f) || !std::isfinite(m) || !std::isfinite(inv)) return;
  *scale = m / 7.0f;
  for (size_t i = 0; i < n; ++i) {
    const auto nibble = static_cast<uint8_t>(
        std::clamp(std::lrintf(x[i] * inv), -7L, 7L) + 8);
    uint8_t& byte = code[CodeByteOf(i)];
    byte = static_cast<uint8_t>((byte & ~(15u << CodeShiftOf(i))) |
                                (nibble << CodeShiftOf(i)));
  }
}

/// Marks a row with no answer against the centroids before the last
/// update: UpdateNearest scans it against every centroid.
constexpr uint32_t kNoAnswer = std::numeric_limits<uint32_t>::max();

/// Rows UpdateNearest gathers per kernel call: a fixed scratch block,
/// and enough row quads to keep the kernel's blocking.
constexpr size_t kGatherRows = 64;

/// The centroids whose bits the last Lloyd update changed: a flag per
/// centroid, and the changed rows packed in ascending index order.
struct MovedCentroids {
  std::vector<uint8_t> moved;
  std::vector<uint32_t> ids;
  std::vector<float> rows;
};

/// Brings rows [0, count)'s nearest centroids up to date after an update
/// that changed `moved`. On entry (assign[r], best[r]) is row r's answer
/// and winning dot against the centroids before the update, or assign[r]
/// is kNoAnswer; on exit they are what NearestCentroidDotBatch over all
/// `centroids` returns, bit for bit.
///
/// A row whose centroid a kept its bits dots a as before, and so does
/// every other unchanged centroid c, which the old scan ranked no higher
/// than a (strictly lower when c < a). So the full scan ends at a or at a
/// changed centroid: scanning only the changed ones, in index order, and
/// keeping a unless one beats it (or ties it at a lower index) gives the
/// same answer. A NaN dot breaks that order (the scan keeps a NaN only on
/// its first centroid), so a NaN old dot or a NaN first changed dot sends
/// the row to the full scan, as do rows with no answer or a changed a.
void UpdateNearest(const float* rows, size_t count, size_t dim,
                   const float* centroids, size_t num_centroids,
                   const MovedCentroids& moved, uint32_t* assign,
                   float* best) {
  static thread_local std::vector<float> batch;
  static thread_local std::vector<uint8_t> full;
  batch.resize(kGatherRows * dim);
  full.resize(count);
  for (size_t r = 0; r < count; ++r) {
    full[r] = assign[r] == kNoAnswer || moved.moved[assign[r]] != 0 ||
              std::isnan(best[r]);
  }
  // Scores the rows whose full flag equals `want_full` against `cents`,
  // kGatherRows at a time, and hands each answer to `apply`.
  const auto scan = [&](bool want_full, const float* cents, size_t ncents,
                        const auto& apply) {
    uint32_t ids[kGatherRows], got[kGatherRows];
    float got_dot[kGatherRows];
    size_t n = 0;
    const auto flush = [&] {
      NearestCentroidDotBatch(batch.data(), n, dim, cents, ncents, dim, dim,
                              got, got_dot);
      for (size_t j = 0; j < n; ++j) apply(ids[j], got[j], got_dot[j]);
      n = 0;
    };
    for (size_t r = 0; r < count; ++r) {
      if ((full[r] != 0) != want_full) continue;
      Copy(rows + r * dim, batch.data() + n * dim, dim);
      ids[n++] = static_cast<uint32_t>(r);
      if (n == kGatherRows) flush();
    }
    if (n > 0) flush();
  };
  if (!moved.ids.empty()) {
    scan(false, moved.rows.data(), moved.ids.size(),
         [&](uint32_t r, uint32_t j, float d) {
           if (std::isnan(d)) {
             full[r] = 1;
             return;
           }
           const uint32_t c = moved.ids[j];
           if (d > best[r] || (d == best[r] && c < assign[r])) {
             assign[r] = c;
             best[r] = d;
           }
         });
  }
  scan(true, centroids, num_centroids, [&](uint32_t r, uint32_t c, float d) {
    assign[r] = c;
    best[r] = d;
  });
}

/// The k-means sample's last answers (UpdateNearest's inputs) for the
/// catalog assignment: sample item sample_ids[i] (ascending) was assigned
/// sample_assign[i] with dot sample_best[i] before `moved`'s update.
struct SampleAnswers {
  const std::vector<ItemId>& sample_ids;
  const std::vector<uint32_t>& sample_assign;
  const std::vector<float>& sample_best;
  const MovedCentroids& moved;
};

/// Reads items [begin, end) through the model's index-vector surface and
/// assigns each to its max-dot centroid; with `codes` set, also quantizes
/// row v into codes + (v - begin)·row_bytes and scales[v - begin]. With
/// `known` set, the sample items in the range start from their last
/// answer (UpdateNearest) instead of a scan over every centroid. The copy
/// buffers are per-thread: chunks re-use them across RunBatch tasks
/// instead of paying a chunk-sized allocation each.
void AssignRange(const ItemScorer& model, ItemId begin, ItemId end,
                 const float* centroids, size_t num_centroids, size_t dim,
                 uint32_t* assign, uint8_t* codes = nullptr,
                 float* scales = nullptr,
                 const SampleAnswers* known = nullptr) {
  if (begin >= end) return;
  static thread_local std::vector<float> rows;
  rows.resize((end - begin) * dim);
  model.CopyIndexVectors(begin, end, rows.data());
  if (known == nullptr) {
    NearestCentroidDotBatch(rows.data(), end - begin, dim, centroids,
                            num_centroids, dim, dim, assign + begin);
  } else {
    static thread_local std::vector<float> best;
    best.resize(end - begin);
    std::fill(assign + begin, assign + end, kNoAnswer);
    const auto& ids = known->sample_ids;
    for (size_t i = std::lower_bound(ids.begin(), ids.end(), begin) -
                    ids.begin();
         i < ids.size() && ids[i] < end; ++i) {
      assign[ids[i]] = known->sample_assign[i];
      best[ids[i] - begin] = known->sample_best[i];
    }
    UpdateNearest(rows.data(), end - begin, dim, centroids, num_centroids,
                  known->moved, assign + begin, best.data());
  }
  if (codes == nullptr) return;
  const size_t row_bytes = SphericalIvfIndex::CodeBytes(dim);
  for (size_t r = 0; r < end - begin; ++r) {
    QuantizeRow(rows.data() + r * dim, dim, row_bytes, codes + r * row_bytes,
                scales + r);
  }
}

/// Quantizes the items at list positions [begin, end) into the code rows
/// at those positions: list order directly, one row read per item.
void QuantizeListRange(const ItemScorer& model, const ItemId* list_ids,
                       size_t begin, size_t end, size_t dim, uint8_t* codes,
                       float* scales) {
  const size_t row_bytes = SphericalIvfIndex::CodeBytes(dim);
  static thread_local std::vector<float> row;
  row.resize(dim);
  for (size_t i = begin; i < end; ++i) {
    model.CopyIndexVectors(list_ids[i], list_ids[i] + 1, row.data());
    QuantizeRow(row.data(), dim, row_bytes, codes + i * row_bytes,
                scales + i);
  }
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

  // Auto centroid count ~ 4·sqrt(N) (the FAISS-recommended IVF range).
  // The auto probe takes half the lists: a probed item costs one
  // contiguous 4-bit code row, not a gathered float row and an exact
  // score, and MARS's θ-weighted neighbours spread over many lists
  // (bench_serve's ann_mars section: recall@10 0.49 at ncent/32, 0.98 at
  // ncent/2 on 50k items).
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
                       : std::min(ncent, std::max<size_t>(2, ncent / 2));

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
  Rng rng(kKmeansSeed);
  rng.Shuffle(&perm);
  auto& centroids = index->centroids_.mutable_vec();
  centroids.resize(ncent * dim);
  for (size_t c = 0; c < ncent; ++c) {
    Copy(sample.data() + perm[c] * dim, centroids.data() + c * dim, dim);
    NormalizeCentroid(centroids.data() + c * dim, dim);
  }

  // Lloyd iterations with the spherical mean-direction update. Each
  // assignment step starts from the previous step's answers and re-scores
  // a row against every centroid only when its own centroid moved
  // (UpdateNearest); the answers are the full scan's either way.
  std::vector<uint32_t> sample_assign(sample_count, kNoAnswer);
  std::vector<float> sample_best(sample_count);
  std::vector<float> sums(ncent * dim);
  std::vector<uint32_t> counts(ncent);
  std::vector<float> next(dim);
  MovedCentroids moved;
  moved.moved.assign(ncent, 0);
  for (size_t iter = 0; iter < kKmeansIters; ++iter) {
    // The assignment step fans out over the pool; the accumulation below
    // stays serial and in sample order, so the centroids' float sums (and
    // so every later bit of the index) do not depend on the pool.
    ForEachChunk(sample_count, pool, [&](size_t begin, size_t end) {
      UpdateNearest(sample.data() + begin * dim, end - begin, dim,
                    centroids.data(), ncent, moved,
                    sample_assign.data() + begin, sample_best.data() + begin);
    });
    std::fill(sums.begin(), sums.end(), 0.0f);
    std::fill(counts.begin(), counts.end(), 0u);
    for (size_t i = 0; i < sample_count; ++i) {
      Axpy(1.0f, sample.data() + i * dim,
           sums.data() + sample_assign[i] * dim, dim);
      ++counts[sample_assign[i]];
    }
    moved.ids.clear();
    moved.rows.clear();
    for (size_t c = 0; c < ncent; ++c) {
      if (counts[c] == 0) {
        // Empty cluster: reseed deterministically from the sample so the
        // centroid count never silently shrinks.
        const size_t r = (iter * 2654435761u + c) % sample_count;
        Copy(sample.data() + r * dim, next.data(), dim);
      } else {
        Copy(sums.data() + c * dim, next.data(), dim);
      }
      NormalizeCentroid(next.data(), dim);
      float* row = centroids.data() + c * dim;
      moved.moved[c] =
          std::memcmp(next.data(), row, dim * sizeof(float)) != 0;
      if (moved.moved[c] == 0) continue;
      Copy(next.data(), row, dim);
      moved.ids.push_back(static_cast<uint32_t>(c));
      moved.rows.insert(moved.rows.end(), next.begin(), next.end());
    }
  }

  // The catalog assignment: the sample items start from their last
  // answer, against the centroids before the final update.
  index->assign_.mutable_vec().resize(num_items);
  uint32_t* assign = index->assign_.mutable_data();
  const SampleAnswers known{sample_ids, sample_assign, sample_best, moved};
  ForEachChunk(num_items, pool, [&](size_t begin, size_t end) {
    AssignRange(model, begin, end, centroids.data(), ncent, dim, assign,
                nullptr, nullptr, &known);
  });
  index->RebuildLists();
  // Quantize straight into list order: no item-order copy of the codes.
  index->codes_.mutable_vec().resize(num_items * CodeBytes(dim));
  index->scales_.mutable_vec().resize(num_items);
  uint8_t* codes = index->codes_.mutable_data();
  float* scales = index->scales_.mutable_data();
  const ItemId* list_ids = index->list_ids_.data();
  ForEachChunk(num_items, pool, [&](size_t begin, size_t end) {
    QuantizeListRange(model, list_ids, begin, end, dim, codes, scales);
  });
  return index;
}

std::unique_ptr<SphericalIvfIndex> BuildCandidateIndex(
    const ItemScorer& model, size_t num_items, const AnnIndexOptions& options,
    ThreadPool* pool) {
  if (num_items == 0 || model.index_dim() == 0) return nullptr;
  return SphericalIvfIndex::Build(model, num_items, options, pool);
}

std::unique_ptr<SphericalIvfIndex> SphericalIvfIndex::Borrow(
    size_t num_items, size_t dim, size_t num_centroids, size_t nprobe,
    const float* centroids, const uint32_t* assign, const uint32_t* offsets,
    const ItemId* list_ids, const uint8_t* codes, const float* scales,
    std::shared_ptr<const void> keepalive) {
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
  index->codes_.Borrow(codes, num_items * CodeBytes(dim));
  index->scales_.Borrow(scales, num_items);
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

bool SphericalIvfIndex::FullProbe(size_t want) const {
  return want >= num_items_ || nprobe_ >= num_centroids_;
}

void SphericalIvfIndex::AppendCatalog(std::vector<ItemId>* out) const {
  const size_t base = out->size();
  out->resize(base + num_items_);
  for (size_t v = 0; v < num_items_; ++v) {
    (*out)[base + v] = static_cast<ItemId>(v);
  }
}

struct SphericalIvfIndex::QueryScan {
  using Cand = std::pair<float, ItemId>;
  /// Ranks by quantized score, then by the lower id: a total order, so the
  /// kept set does not depend on the order rows are offered in.
  static bool Better(const Cand& a, const Cand& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  }

  /// Keeps `cand` if it ranks among the `want` best so far. The heap's
  /// front is the worst kept; once the heap is full, `threshold` is its
  /// score, and the kernel drops rows below it before they get here.
  void Offer(const Cand& cand) {
    if (heap.size() < want) {
      heap.push_back(cand);
      std::push_heap(heap.begin(), heap.end(), Better);
      if (heap.size() == want) threshold = heap.front().first;
      return;
    }
    if (!Better(cand, heap.front())) return;
    std::pop_heap(heap.begin(), heap.end(), Better);
    heap.back() = cand;
    std::push_heap(heap.begin(), heap.end(), Better);
    threshold = heap.front().first;
  }

  /// Room for the kernel to report every row of a `count`-row block.
  void Reserve(size_t count) {
    if (hits.size() < count) {
      hits.resize(count);
      hit_scores.resize(count);
    }
  }

  /// Offers the kernel's `n` hits of a block whose row i is item ids[i].
  /// Rows were filtered by the threshold as of the block's start; it only
  /// rises, so none that fell below it could be kept.
  void Take(size_t n, const ItemId* ids) {
    for (size_t i = 0; i < n; ++i) {
      if (hit_scores[i] >= threshold) Offer({hit_scores[i], ids[hits[i]]});
    }
  }

  std::vector<int8_t> q8;
  int32_t bias = 0;  // 8·Σq8
  std::vector<uint32_t> keys;    // per centroid, RankKey of its dot
  std::vector<uint32_t> order;   // the probed lists, ascending
  std::vector<uint32_t> select;  // KthLargest scratch
  std::vector<Cand> heap;
  std::vector<uint32_t> hits;
  std::vector<float> hit_scores;
  size_t want = 0;
  size_t scanned = 0;
  float threshold = 0.0f;
};

void SphericalIvfIndex::Probe(const float* query, size_t want,
                              std::vector<ItemId>* out) const {
  if (FullProbe(want)) {
    AppendCatalog(out);
    return;
  }
  if (want == 0) return;
  static thread_local std::vector<float> cdots;
  static thread_local QueryScan scan;
  cdots.resize(num_centroids_);
  DotBatch(query, centroids_.data(), num_centroids_, dim_, dim_,
           cdots.data());
  StartScan(query, cdots.data(), want, &scan);
  // Runs of adjacent probed lists are one contiguous block of codes,
  // scales and ids, so each run is one kernel call.
  const std::vector<uint32_t>& order = scan.order;
  for (size_t i = 0; i < order.size();) {
    size_t j = i + 1;
    while (j < order.size() && order[j] == order[j - 1] + 1) ++j;
    ScanRows(offsets_[order[i]], offsets_[order[j - 1] + 1], &scan);
    i = j;
  }
  FinishScan(&scan, out);
}

void SphericalIvfIndex::StartScan(const float* query, const float* cdots,
                                  size_t want, QueryScan* scan) const {
  const size_t row_bytes = CodeBytes(dim_);
  scan->want = want;
  scan->scanned = 0;
  scan->threshold = -std::numeric_limits<float>::infinity();
  scan->heap.clear();
  // The query in int8, scaled so its largest entry maps to ±127; the
  // common query scale does not change the ranking, so it is dropped.
  std::vector<int8_t>& q8 = scan->q8;
  q8.assign(2 * row_bytes, 0);
  float qmax = 0.0f;
  for (size_t i = 0; i < dim_; ++i) qmax = std::max(qmax, std::fabs(query[i]));
  const float qscale = 127.0f / qmax;
  int32_t sum = 0;
  if (qmax > 0.0f && std::isfinite(qscale)) {
    for (size_t i = 0; i < dim_; ++i) {
      q8[i] = static_cast<int8_t>(
          std::clamp(std::lrintf(query[i] * qscale), -127L, 127L));
      sum += q8[i];
    }
  }
  scan->bias = 8 * sum;

  // The nprobe best lists (ties to the lower centroid index), picked in
  // ascending centroid order: their codes are then read in address order,
  // one forward stream over the code array. The scan order does not change
  // the result, since the kept items are the best under a total order.
  std::vector<uint32_t>& keys = scan->keys;
  std::vector<uint32_t>& order = scan->order;
  keys.resize(num_centroids_);
  for (size_t c = 0; c < num_centroids_; ++c) keys[c] = RankKey(cdots[c]);
  const uint32_t kth = KthLargest(keys, nprobe_, &scan->select);
  size_t ties = nprobe_;
  for (size_t c = 0; c < num_centroids_; ++c) ties -= keys[c] > kth;
  // Branch-free: about half the keys sit on each side of kth.
  order.resize(nprobe_ + 1);
  size_t taken = 0;
  for (size_t c = 0; c < num_centroids_; ++c) {
    const bool tie = keys[c] == kth && ties > 0;
    order[taken] = static_cast<uint32_t>(c);
    taken += (keys[c] > kth) | tie;
    ties -= tie;
  }
  order.resize(nprobe_);
}

void SphericalIvfIndex::ScanRows(size_t begin, size_t end,
                                 QueryScan* scan) const {
  const size_t row_bytes = CodeBytes(dim_);
  scan->Reserve(end - begin);
  const size_t n = CodeScoresAtLeast(
      {scan->q8.data(), scan->bias}, codes_.data() + begin * row_bytes,
      scales_.data() + begin, end - begin, row_bytes, scan->threshold,
      scan->hits.data(), scan->hit_scores.data());
  scan->Take(n, list_ids_.data() + begin);
  scan->scanned += end - begin;
}

void SphericalIvfIndex::ScanRowsPair(size_t begin, size_t end, QueryScan* a,
                                     QueryScan* b) const {
  const size_t row_bytes = CodeBytes(dim_);
  a->Reserve(end - begin);
  b->Reserve(end - begin);
  const CodeQuery q[2] = {{a->q8.data(), a->bias}, {b->q8.data(), b->bias}};
  const float threshold[2] = {a->threshold, b->threshold};
  uint32_t* const hits[2] = {a->hits.data(), b->hits.data()};
  float* const hit_scores[2] = {a->hit_scores.data(), b->hit_scores.data()};
  size_t n[2];
  CodeScoresAtLeastPair(q, codes_.data() + begin * row_bytes,
                        scales_.data() + begin, end - begin, row_bytes,
                        threshold, hits, hit_scores, n);
  a->Take(n[0], list_ids_.data() + begin);
  b->Take(n[1], list_ids_.data() + begin);
  a->scanned += end - begin;
  b->scanned += end - begin;
}

void SphericalIvfIndex::FinishScan(QueryScan* scan,
                                   std::vector<ItemId>* out) const {
  if (scan->scanned < scan->want) {
    // Too few items for the want: take next-best lists in rank order.
    const std::vector<uint32_t>& keys = scan->keys;
    std::vector<uint32_t> rest;
    std::vector<bool> probed(num_centroids_, false);
    for (const uint32_t c : scan->order) probed[c] = true;
    for (uint32_t c = 0; c < num_centroids_; ++c) {
      if (!probed[c]) rest.push_back(c);
    }
    std::sort(rest.begin(), rest.end(), [&keys](uint32_t a, uint32_t b) {
      return keys[a] > keys[b] || (keys[a] == keys[b] && a < b);
    });
    for (size_t i = 0; i < rest.size() && scan->scanned < scan->want; ++i) {
      ScanRows(offsets_[rest[i]], offsets_[rest[i] + 1], scan);
    }
  }
  std::sort_heap(scan->heap.begin(), scan->heap.end(), QueryScan::Better);
  for (const QueryScan::Cand& c : scan->heap) out->push_back(c.second);
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
  // centroid dots (each centroid row is loaded once per query quad).
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
  static thread_local std::vector<QueryScan> scans;
  if (scans.size() < num_queries) scans.resize(num_queries);
  std::vector<size_t> active;
  for (size_t q = 0; q < num_queries; ++q) {
    if (FullProbe(want[q])) {
      AppendCatalog(&(*out)[q]);
    } else if (want[q] > 0) {
      StartScan(qs[q], dots[q], want[q], &scans[q]);
      active.push_back(q);
    }
  }
  // One pass over the lists in ascending order: a list's code rows are
  // scored for every query that probes it, two queries per load. Each
  // query sees its lists in the order Probe scans them and keeps the same
  // total-order best, so its candidates equal its solo probe's.
  std::vector<size_t> cursor(active.size(), 0);
  std::vector<QueryScan*> here;
  for (uint32_t c = 0; c < num_centroids_; ++c) {
    here.clear();
    for (size_t a = 0; a < active.size(); ++a) {
      const std::vector<uint32_t>& order = scans[active[a]].order;
      if (cursor[a] < order.size() && order[cursor[a]] == c) {
        here.push_back(&scans[active[a]]);
        ++cursor[a];
      }
    }
    size_t i = 0;
    for (; i + 2 <= here.size(); i += 2) {
      ScanRowsPair(offsets_[c], offsets_[c + 1], here[i], here[i + 1]);
    }
    if (i < here.size()) ScanRows(offsets_[c], offsets_[c + 1], here[i]);
  }
  for (const size_t q : active) FinishScan(&scans[q], &(*out)[q]);
}

std::unique_ptr<SphericalIvfIndex> SphericalIvfIndex::Rebuilt(
    const ItemScorer& model, const std::vector<size_t>& dirty_shards,
    size_t num_shards, ThreadPool* pool) const {
  MARS_CHECK_MSG(model.index_dim() == dim_,
                 "Rebuilt model must keep the index dim");
  if (dirty_shards.empty()) {
    return std::unique_ptr<SphericalIvfIndex>(new SphericalIvfIndex(*this));
  }
  // Centroids are reused: only dirty rows are re-read and re-assigned, so
  // an epoch that dirtied 1/64th of the catalog pays ~1/64th of the full
  // assignment (the k-means cost is never repaid). Only what the rebuild
  // keeps is copied; the lists and codes are regenerated below. On a
  // mapped index this is the copy-on-write step: assign_ is materialized,
  // centroids_ stays borrowed from the mapping — the keepalive copied
  // from *this keeps it valid.
  auto next = std::unique_ptr<SphericalIvfIndex>(new SphericalIvfIndex());
  next->num_items_ = num_items_;
  next->dim_ = dim_;
  next->storage_keepalive_ = storage_keepalive_;
  next->num_centroids_ = num_centroids_;
  next->nprobe_ = nprobe_;
  next->centroids_ = centroids_;
  next->assign_ = assign_;
  next->assign_.EnsureOwned();
  // Each dirty row is read once: assigned, and quantized in item order into
  // a buffer that covers only the dirty shards (slot i holds shard
  // dirty_shards[i], starting at row dirty_row[i]).
  const size_t row_bytes = CodeBytes(dim_);
  const size_t num_dirty = dirty_shards.size();
  std::vector<size_t> dirty_begin(num_dirty), dirty_row(num_dirty + 1, 0);
  for (size_t i = 0; i < num_dirty; ++i) {
    const auto [begin, end] =
        FacetStore::ShardRange(num_items_, dirty_shards[i], num_shards);
    dirty_begin[i] = begin;
    dirty_row[i + 1] = dirty_row[i] + (end - begin);
  }
  std::vector<uint8_t> dirty_codes(dirty_row[num_dirty] * row_bytes);
  std::vector<float> dirty_scales(dirty_row[num_dirty]);
  const auto reassign_shard = [&](size_t i) {
    const auto [begin, end] =
        FacetStore::ShardRange(num_items_, dirty_shards[i], num_shards);
    AssignRange(model, begin, end, next->centroids_.data(), num_centroids_,
                dim_, next->assign_.mutable_data(),
                dirty_codes.data() + dirty_row[i] * row_bytes,
                dirty_scales.data() + dirty_row[i]);
  };
  if (CanFanOut(pool) && num_dirty > 1) {
    pool->RunBatch(num_dirty, reassign_shard);
  } else {
    for (size_t i = 0; i < num_dirty; ++i) reassign_shard(i);
  }
  next->RebuildLists();

  // Regather the list-ordered codes list by list. A clean item keeps its
  // centroid, so new list c is old list c's clean items, in the same
  // ascending order, merged with the dirty items now filed under c: its
  // clean rows stream from the old list in order, and a dirty item's row
  // comes from the fresh buffer.
  constexpr size_t kClean = ~size_t{0};
  std::vector<size_t> slot_of_shard(num_shards, kClean);
  for (size_t i = 0; i < num_dirty; ++i) slot_of_shard[dirty_shards[i]] = i;
  const auto slot_of = [&](ItemId v) {
    return slot_of_shard[FacetStore::ShardOf(num_items_, v, num_shards)];
  };
  next->codes_.mutable_vec().resize(num_items_ * row_bytes);
  next->scales_.mutable_vec().resize(num_items_);
  uint8_t* codes = next->codes_.mutable_data();
  float* scales = next->scales_.mutable_data();
  const ItemId* new_ids = next->list_ids_.data();
  const uint32_t* new_offsets = next->offsets_.data();
  ForEachChunk(num_centroids_, pool, [&](size_t c_begin, size_t c_end) {
    for (size_t c = c_begin; c < c_end; ++c) {
      size_t old = offsets_[c];
      for (size_t j = new_offsets[c]; j < new_offsets[c + 1]; ++j) {
        const ItemId v = new_ids[j];
        const size_t slot = slot_of(v);
        const uint8_t* src_code;
        float src_scale;
        if (slot != kClean) {
          const size_t row = dirty_row[slot] + (v - dirty_begin[slot]);
          src_code = dirty_codes.data() + row * row_bytes;
          src_scale = dirty_scales[row];
        } else {
          while (list_ids_[old] != v) ++old;  // skip the old dirty ids
          src_code = codes_.data() + old * row_bytes;
          src_scale = scales_[old];
        }
        std::memcpy(codes + j * row_bytes, src_code, row_bytes);
        scales[j] = src_scale;
      }
    }
  });
  return next;
}

std::unique_ptr<SphericalIvfIndex> SphericalIvfIndex::CloneWithNprobe(
    size_t nprobe) const {
  auto next = std::unique_ptr<SphericalIvfIndex>(new SphericalIvfIndex(*this));
  next->nprobe_ = std::min(std::max<size_t>(1, nprobe), num_centroids_);
  return next;
}

}  // namespace mars
