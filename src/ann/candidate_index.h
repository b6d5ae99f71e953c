// Build knobs and the factory of the retrieval tier.
//
// The one candidate index is SphericalIvfIndex (ann/ivf_index.h): it
// turns the serving miss path from "score the whole catalog" into "probe
// the index for a short candidate list, then re-rank the list with the
// model's exact scores". The probe scores every item of the probed lists
// by its 4-bit code row and keeps the k·overfetch best, so the re-rank
// touches 40 float rows at k = 10 however many lists were probed. It
// serves every indexable model of eval/scorer.h (index_dim() > 0: BPR,
// MARS via concatenated θ·r-weighted facets); every other model (the
// metric baselines included) serves through the exact sweep. Recall —
// the fraction of the true top-k the candidate list covers — is the
// single quality axis, and the bench (bench/bench_serve.cpp) measures it
// against the brute-force oracle at every committed nprobe, for BPR and
// for MARS (scripts/check_bench.py gates both).
#ifndef MARS_ANN_CANDIDATE_INDEX_H_
#define MARS_ANN_CANDIDATE_INDEX_H_

#include <cstddef>
#include <memory>

#include "eval/scorer.h"

namespace mars {

class SphericalIvfIndex;
class ThreadPool;

/// Build-time knobs; every field has a scale-aware auto default so the
/// serving layer can pass a default-constructed value. Builds are
/// deterministic in (vectors, options).
struct AnnIndexOptions {
  /// IVF coarse centroids; 0 = auto (~4·sqrt(num_items) — the FAISS
  /// operating range; at least 8, clamped to the catalog).
  size_t num_centroids = 0;
  /// IVF lists probed per query; 0 = auto (num_centroids / 2, at least
  /// 2). A probed item costs one contiguous 4-bit code row (64 bytes at
  /// dim 128) in the first pass, not an exact re-rank, so half the lists
  /// is affordable, and MARS's θ-weighted neighbours need it: recall@10
  /// >= 0.95 on the bench's MARS catalog needs more than a quarter of the
  /// lists. Lower it to trade recall for latency; at num_centroids the
  /// probe skips the codes, the candidate list is the whole catalog and
  /// the served ranking is exact.
  size_t nprobe = 0;
  /// Training-sample bound for k-means (the full catalog is still
  /// assigned to the final centroids).
  size_t kmeans_sample = 16384;
  /// Serving overfetch: the miss path asks the index for
  /// max(k * overfetch, k + excluded) candidates — the length of the list
  /// the quantized first pass hands to the exact re-rank — so exclusions
  /// and near-boundary items don't eat the returned k.
  static constexpr size_t overfetch = 4;
};

/// A second name for the one index. It exists only because the
/// wire-to-wire benchmark package (wirebench/) names the type and changes
/// only together with the benchmark; everything else names
/// SphericalIvfIndex. Delete it in the next change to the benchmark.
using CandidateIndex = SphericalIvfIndex;

/// Builds an IVF index over `model`'s index vectors, or returns nullptr
/// when the model is not indexable (index_dim() == 0) or the catalog is
/// empty — the caller keeps the exact-sweep path. `pool` may be null
/// (serial build). Defined in ann/ivf_index.cc.
std::unique_ptr<SphericalIvfIndex> BuildCandidateIndex(
    const ItemScorer& model, size_t num_items, const AnnIndexOptions& options,
    ThreadPool* pool);

}  // namespace mars

#endif  // MARS_ANN_CANDIDATE_INDEX_H_
