// Batched dense kernels over blocks of embedding rows.
//
// These extend the scalar primitives in vec.h to the block shapes the
// serving and evaluation hot paths actually touch: one user row scored
// against many candidate rows, and one entity's K facet rows scored against
// another entity's K facet rows in a single pass. All kernels take an
// explicit `stride` (in floats) between consecutive rows so they work both
// on tightly packed Matrix rows (stride == n) and on the aligned, padded
// rows of FacetStore (stride >= n, see common/facet_store.h). Row
// accumulation dispatches once per call between a generic 8-wide
// accumulator form (autovectorized at the build's baseline ISA) and an
// explicit AVX2+FMA twin when the host supports it — measured 1.3-1.7x on
// the 1024-row serving shape (see kernels_detail.h for the rounding
// contract and bench/microbench_kernels.cpp for the comparison; measure
// before changing the shapes).
//
// There are two row primitives — dot and squared distance — and each score
// family reduces through exactly one of them: dot products (BPR and the
// other dot baselines), negated squared distance (the metric models CML,
// SML and MetricF), the weighted facet dot (MARS at every K, including
// K = 1: unit rows make dot == cosine) and the weighted facet squared
// distance (MAR). Within one process the single, gather, batch and
// multi-user forms of a family share that primitive, so Score,
// ScoreItems, ScoreItemRange and ScoreItemRangeMulti rank bit-identically.
#ifndef MARS_COMMON_KERNELS_H_
#define MARS_COMMON_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace mars {

/// out[i] = Dot(u, rows + i*stride) for i in [0, count).
void DotBatch(const float* u, const float* rows, size_t count, size_t stride,
              size_t n, float* out);

/// Gather variant: candidate i lives at `base + ids[i] * stride`. This is
/// the ScoreItems shape — the evaluator hands models an arbitrary id list.
void DotGather(const float* u, const float* base, size_t stride,
               const uint32_t* ids, size_t count, size_t n, float* out);

/// out[i] = -||u - row_{ids[i]}||² — the metric-model preference score
/// (CML/SML/MetricF all score through models/metric_model.h).
void NegatedSquaredDistanceGather(const float* u, const float* base,
                                  size_t stride, const uint32_t* ids,
                                  size_t count, size_t n, float* out);

/// Contiguous-block form of the above: out[i] = -||u - row_i||² for i in
/// [0, count) — the metric models' full-catalog serving sweep.
void NegatedSquaredDistanceBatch(const float* u, const float* rows,
                                 size_t count, size_t stride, size_t n,
                                 float* out);

/// Multi-user forms: `num_users` query rows swept against one contiguous
/// candidate block, each candidate row loaded once and applied to every
/// user (register-blocked over user quads in the AVX2 path). `us[b]`
/// points at user b's row; `out[b]` receives that user's `count` scores.
/// Contract: out[b][i] is bit-identical to the corresponding single-user
/// batch kernel — per user the reduction runs the same row primitive in
/// the same order, so a multi-user sweep ranks exactly like B
/// solo sweeps (the serve-layer batch≡solo guarantee rides on this).
void DotBatchMulti(const float* const* us, size_t num_users,
                   const float* rows, size_t count, size_t stride, size_t n,
                   float* const* out);
void NegatedSquaredDistanceBatchMulti(const float* const* us,
                                      size_t num_users, const float* rows,
                                      size_t count, size_t stride, size_t n,
                                      float* const* out);

/// out[i] = argmax_c Dot(rows + i*stride, centroids + c*centroid_stride)
/// for i in [0, count); ties resolve to the lowest centroid index. This is
/// the IVF coarse-assignment step of ann/ivf_index.h: with unit-norm
/// centroids, max dot over c equals max cosine (the row's own norm is
/// constant across centroids), so rows need no normalization. With
/// `best_dot` set, best_dot[i] receives the winning dot, bit-identical to
/// DotBatch's score of that (row, centroid) pair.
///
/// The argmax is the sequential scan `best = dot(c0); take c if dot > best`
/// over c in order: a NaN dot never wins, and a NaN dot on centroid 0
/// keeps centroid 0. The AVX2 twin blocks four rows against three
/// centroids (twelve DotBatch-exact dots per block, each pair's two FMA
/// chains run as two passes so the accumulators fit the registers) and
/// takes the three in centroid order, so it returns the scan's answer.
void NearestCentroidDotBatch(const float* rows, size_t count, size_t stride,
                             const float* centroids, size_t num_centroids,
                             size_t centroid_stride, size_t n, uint32_t* out,
                             float* best_dot = nullptr);

/// The 4-bit first pass of the IVF probe (ann/ivf_index.h). A code row
/// of `row_bytes` bytes (a multiple of 32) holds 2·row_bytes nibbles in
/// 32-byte blocks: byte j of block b holds dim 64b + j in its low nibble
/// and dim 64b + 32 + j in its high nibble (CodeByteOf/CodeShiftOf). A
/// nibble is a code in [-7, 7] biased by 8, so 0 is never written, but
/// any nibble scores exactly.
constexpr size_t CodeByteOf(size_t dim) { return dim / 64 * 32 + dim % 32; }
constexpr unsigned CodeShiftOf(size_t dim) { return dim % 64 < 32 ? 0 : 4; }

/// An int8 query for the code scan: `q` holds 2·row_bytes entries in dim
/// order (zero past the model's dim) and `bias` = 8·Σq, so a row's code
/// dot is Σ_j q[j]·nibble[j] − bias.
struct CodeQuery {
  const int8_t* q = nullptr;
  int32_t bias = 0;
};

/// Scores `count` code rows, `row_bytes` apart, as score_r = scales[r] ·
/// float(Σ_j q[j]·nibble_r[j] − bias), and writes the index and score of
/// every row with score_r >= threshold to `hits`/`hit_scores` in
/// ascending r, returning how many. The dot is exact in int32 (each term
/// is at most 127·15), so the AVX2 (`vpmaddubsw`) and generic forms
/// report the same rows with the same bits on every host.
size_t CodeScoresAtLeast(const CodeQuery& q, const uint8_t* codes,
                         const float* scales, size_t count, size_t row_bytes,
                         float threshold, uint32_t* hits, float* hit_scores);

/// CodeScoresAtLeast for two queries over the same rows — a batched miss
/// whose queries probe the same list: each code row is loaded once for
/// both. For k in {0, 1}, hits[k]/hit_scores[k]/num_hits[k] are exactly
/// what CodeScoresAtLeast(q[k], ..., threshold[k], ...) reports.
void CodeScoresAtLeastPair(const CodeQuery* q, const uint8_t* codes,
                           const float* scales, size_t count,
                           size_t row_bytes, const float* threshold,
                           uint32_t* const* hits, float* const* hit_scores,
                           size_t* num_hits);

/// Σ_k w[k] · <u + k·u_stride, v + k·v_stride> over n dims — the fused
/// multi-facet cosine score of MARS (unit rows make dot == cosine). One
/// traversal of both entity blocks.
float WeightedFacetDot(const float* u, size_t u_stride, const float* v,
                       size_t v_stride, const float* w, size_t num_facets,
                       size_t n);

/// Σ_k w[k] · ||(u + k·u_stride) - (v + k·v_stride)||^2 — the fused
/// multi-facet metric score of MAR (negate for a preference score).
float WeightedFacetSquaredDistance(const float* u, size_t u_stride,
                                   const float* v, size_t v_stride,
                                   const float* w, size_t num_facets,
                                   size_t n);

/// Full-catalog forms of the fused facet scores: one user entity block
/// swept against `count` consecutive entity blocks starting at `blocks`
/// (blocks are `block_stride` floats apart, facet rows `row_stride` apart
/// within a block — FacetStore::entity_stride()/row_stride()). These are
/// the MARS/MAR serving sweeps over the contiguous item store.
void WeightedFacetDotBatch(const float* u, size_t u_stride,
                           const float* blocks, size_t block_stride,
                           size_t row_stride, const float* w,
                           size_t num_facets, size_t count, size_t n,
                           float* out);
void WeightedFacetSquaredDistanceBatch(const float* u, size_t u_stride,
                                       const float* blocks,
                                       size_t block_stride, size_t row_stride,
                                       const float* w, size_t num_facets,
                                       size_t count, size_t n, float* out);

/// Multi-user forms of the fused facet sweeps: `num_users` user entity
/// blocks (us[b], each with facet rows u_stride apart) against `count`
/// consecutive candidate blocks, with a *per-user* facet weight vector
/// ws[b] (MARS bakes each user's Θ·radii into it). Each candidate facet
/// row is loaded once per user quad. Same bit-identity contract as
/// DotBatchMulti: out[b] matches the single-user WeightedFacet*Batch call.
void WeightedFacetDotBatchMulti(const float* const* us, size_t u_stride,
                                const float* const* ws, size_t num_users,
                                const float* blocks, size_t block_stride,
                                size_t row_stride, size_t num_facets,
                                size_t count, size_t n, float* const* out);
void WeightedFacetSquaredDistanceBatchMulti(
    const float* const* us, size_t u_stride, const float* const* ws,
    size_t num_users, const float* blocks, size_t block_stride,
    size_t row_stride, size_t num_facets, size_t count, size_t n,
    float* const* out);

}  // namespace mars

#endif  // MARS_COMMON_KERNELS_H_
