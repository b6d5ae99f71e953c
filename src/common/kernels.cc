#include "common/kernels.h"

#include "common/kernels_detail.h"

namespace mars {

namespace {

using kernels_detail::DotRowGeneric;
using kernels_detail::HasAvx2Fma;
using kernels_detail::SquaredDistanceRowGeneric;

// Each public kernel dispatches once per *call* (not per row) between the
// generic autovectorized loop and an AVX2+FMA twin whose row primitives
// inline into a target-annotated batch loop. Families share row
// primitives on both paths, so gather and batch forms stay bit-identical
// to each other whichever path the host takes — see kernels_detail.h for
// the measured wins (1.3-1.7x on this shape) and the rounding contract.

#if MARS_KERNELS_HAVE_AVX2

using kernels_detail::DotRowAvx2;
using kernels_detail::DotRowAvx2X4;
using kernels_detail::Hsum256X4;
using kernels_detail::SquaredDistanceRowAvx2;
using kernels_detail::SquaredDistanceRowAvx2X4;

MARS_AVX2_FN void DotBatchAvx2(const float* u, const float* rows,
                               size_t count, size_t stride, size_t n,
                               float* out) {
  for (size_t r = 0; r < count; ++r) {
    out[r] = DotRowAvx2(u, rows + r * stride, n);
  }
}

MARS_AVX2_FN void NegatedSquaredDistanceBatchAvx2(const float* u,
                                                  const float* rows,
                                                  size_t count, size_t stride,
                                                  size_t n, float* out) {
  for (size_t r = 0; r < count; ++r) {
    out[r] = -SquaredDistanceRowAvx2(u, rows + r * stride, n);
  }
}

MARS_AVX2_FN void DotGatherAvx2(const float* u, const float* base,
                                size_t stride, const uint32_t* ids,
                                size_t count, size_t n, float* out) {
  for (size_t r = 0; r < count; ++r) {
    out[r] = DotRowAvx2(u, base + ids[r] * stride, n);
  }
}

MARS_AVX2_FN void NegatedSquaredDistanceGatherAvx2(
    const float* u, const float* base, size_t stride, const uint32_t* ids,
    size_t count, size_t n, float* out) {
  for (size_t r = 0; r < count; ++r) {
    out[r] = -SquaredDistanceRowAvx2(u, base + ids[r] * stride, n);
  }
}

MARS_AVX2_FN float WeightedFacetDotAvx2(const float* u, size_t u_stride,
                                        const float* v, size_t v_stride,
                                        const float* w, size_t num_facets,
                                        size_t n) {
  float score = 0.0f;
  for (size_t k = 0; k < num_facets; ++k) {
    score += w[k] * DotRowAvx2(u + k * u_stride, v + k * v_stride, n);
  }
  return score;
}

MARS_AVX2_FN float WeightedFacetSquaredDistanceAvx2(
    const float* u, size_t u_stride, const float* v, size_t v_stride,
    const float* w, size_t num_facets, size_t n) {
  float score = 0.0f;
  for (size_t k = 0; k < num_facets; ++k) {
    score +=
        w[k] * SquaredDistanceRowAvx2(u + k * u_stride, v + k * v_stride, n);
  }
  return score;
}

MARS_AVX2_FN void WeightedFacetDotBatchAvx2(const float* u, size_t u_stride,
                                            const float* blocks,
                                            size_t block_stride,
                                            size_t row_stride, const float* w,
                                            size_t num_facets, size_t count,
                                            size_t n, float* out) {
  for (size_t r = 0; r < count; ++r) {
    out[r] = WeightedFacetDotAvx2(u, u_stride, blocks + r * block_stride,
                                  row_stride, w, num_facets, n);
  }
}

MARS_AVX2_FN void WeightedFacetSquaredDistanceBatchAvx2(
    const float* u, size_t u_stride, const float* blocks, size_t block_stride,
    size_t row_stride, const float* w, size_t num_facets, size_t count,
    size_t n, float* out) {
  for (size_t r = 0; r < count; ++r) {
    out[r] = WeightedFacetSquaredDistanceAvx2(u, u_stride,
                                              blocks + r * block_stride,
                                              row_stride, w, num_facets, n);
  }
}

// Multi-user batch loops: candidate rows in the outer loop so each row is
// loaded once per user quad (DotRowAvx2X4 / SquaredDistanceRowAvx2X4 share
// the row's vector loads across four FMA chains); the B mod 4 remainder
// users run the single-user row primitive. Per user both shapes execute
// the identical op sequence, keeping every lane bit-identical to the
// single-user kernel.

MARS_AVX2_FN void DotBatchMultiAvx2(const float* const* us, size_t num_users,
                                    const float* rows, size_t count,
                                    size_t stride, size_t n,
                                    float* const* out) {
  const size_t quads = num_users & ~static_cast<size_t>(3);
  for (size_t r = 0; r < count; ++r) {
    const float* row = rows + r * stride;
    size_t b = 0;
    for (; b < quads; b += 4) {
      float s[4];
      DotRowAvx2X4(us + b, row, n, s);
      for (size_t j = 0; j < 4; ++j) out[b + j][r] = s[j];
    }
    for (; b < num_users; ++b) out[b][r] = DotRowAvx2(us[b], row, n);
  }
}

MARS_AVX2_FN void NegatedSquaredDistanceBatchMultiAvx2(
    const float* const* us, size_t num_users, const float* rows, size_t count,
    size_t stride, size_t n, float* const* out) {
  const size_t quads = num_users & ~static_cast<size_t>(3);
  for (size_t r = 0; r < count; ++r) {
    const float* row = rows + r * stride;
    size_t b = 0;
    for (; b < quads; b += 4) {
      float s[4];
      SquaredDistanceRowAvx2X4(us + b, row, n, s);
      for (size_t j = 0; j < 4; ++j) out[b + j][r] = -s[j];
    }
    for (; b < num_users; ++b) {
      out[b][r] = -SquaredDistanceRowAvx2(us[b], row, n);
    }
  }
}

MARS_AVX2_FN void WeightedFacetDotBatchMultiAvx2(
    const float* const* us, size_t u_stride, const float* const* ws,
    size_t num_users, const float* blocks, size_t block_stride,
    size_t row_stride, size_t num_facets, size_t count, size_t n,
    float* const* out) {
  const size_t quads = num_users & ~static_cast<size_t>(3);
  for (size_t r = 0; r < count; ++r) {
    const float* block = blocks + r * block_stride;
    size_t b = 0;
    for (; b < quads; b += 4) {
      float score[4] = {0.0f, 0.0f, 0.0f, 0.0f};
      for (size_t k = 0; k < num_facets; ++k) {
        const float* uf[4] = {us[b] + k * u_stride, us[b + 1] + k * u_stride,
                              us[b + 2] + k * u_stride,
                              us[b + 3] + k * u_stride};
        float d[4];
        DotRowAvx2X4(uf, block + k * row_stride, n, d);
        for (size_t j = 0; j < 4; ++j) score[j] += ws[b + j][k] * d[j];
      }
      for (size_t j = 0; j < 4; ++j) out[b + j][r] = score[j];
    }
    for (; b < num_users; ++b) {
      out[b][r] = WeightedFacetDotAvx2(us[b], u_stride, block, row_stride,
                                       ws[b], num_facets, n);
    }
  }
}

MARS_AVX2_FN void WeightedFacetSquaredDistanceBatchMultiAvx2(
    const float* const* us, size_t u_stride, const float* const* ws,
    size_t num_users, const float* blocks, size_t block_stride,
    size_t row_stride, size_t num_facets, size_t count, size_t n,
    float* const* out) {
  const size_t quads = num_users & ~static_cast<size_t>(3);
  for (size_t r = 0; r < count; ++r) {
    const float* block = blocks + r * block_stride;
    size_t b = 0;
    for (; b < quads; b += 4) {
      float score[4] = {0.0f, 0.0f, 0.0f, 0.0f};
      for (size_t k = 0; k < num_facets; ++k) {
        const float* uf[4] = {us[b] + k * u_stride, us[b + 1] + k * u_stride,
                              us[b + 2] + k * u_stride,
                              us[b + 3] + k * u_stride};
        float d[4];
        SquaredDistanceRowAvx2X4(uf, block + k * row_stride, n, d);
        for (size_t j = 0; j < 4; ++j) score[j] += ws[b + j][k] * d[j];
      }
      for (size_t j = 0; j < 4; ++j) out[b + j][r] = score[j];
    }
    for (; b < num_users; ++b) {
      out[b][r] = WeightedFacetSquaredDistanceAvx2(
          us[b], u_stride, block, row_stride, ws[b], num_facets, n);
    }
  }
}

// Four rows against three centroids: the twelve (row, centroid) dots of
// DotRowAvx2, each with its own two FMA chains. Twelve accumulators and
// the three centroid vectors fill the sixteen ymm registers (the row
// vectors are memory operands), so each pair's chains run as two passes:
// the even 8-float blocks (plus the lone 8-float tail block) into acc0,
// then the odd blocks into acc1, each chain in DotRowAvx2's order.
// acc0 + acc1, the Hsum256X4 pairing and the in-order scalar tail then
// give lane j of out[k] the DotRowAvx2(a[j], b[k]) bits.
MARS_AVX2_FN inline void DotRowsAvx2X4X3(const float* const* a,
                                         const float* const* b, size_t n,
                                         __m128* out) {
  __m256 even[3][4];
  __m256 acc[3][4];
#pragma GCC unroll 3
  for (size_t k = 0; k < 3; ++k) {
#pragma GCC unroll 4
    for (size_t j = 0; j < 4; ++j) acc[k][j] = _mm256_setzero_ps();
  }
  const size_t pairs_end = n & ~static_cast<size_t>(15);
  const size_t even_end = n & ~static_cast<size_t>(7);
  for (size_t i = 0; i < even_end; i += 16) {
    const __m256 b0 = _mm256_loadu_ps(b[0] + i);
    const __m256 b1 = _mm256_loadu_ps(b[1] + i);
    const __m256 b2 = _mm256_loadu_ps(b[2] + i);
#pragma GCC unroll 4
    for (size_t j = 0; j < 4; ++j) {
      const __m256 x = _mm256_loadu_ps(a[j] + i);
      acc[0][j] = _mm256_fmadd_ps(x, b0, acc[0][j]);
      acc[1][j] = _mm256_fmadd_ps(x, b1, acc[1][j]);
      acc[2][j] = _mm256_fmadd_ps(x, b2, acc[2][j]);
    }
  }
#pragma GCC unroll 3
  for (size_t k = 0; k < 3; ++k) {
#pragma GCC unroll 4
    for (size_t j = 0; j < 4; ++j) {
      even[k][j] = acc[k][j];
      acc[k][j] = _mm256_setzero_ps();
    }
  }
  for (size_t i = 8; i < pairs_end; i += 16) {
    const __m256 b0 = _mm256_loadu_ps(b[0] + i);
    const __m256 b1 = _mm256_loadu_ps(b[1] + i);
    const __m256 b2 = _mm256_loadu_ps(b[2] + i);
#pragma GCC unroll 4
    for (size_t j = 0; j < 4; ++j) {
      const __m256 x = _mm256_loadu_ps(a[j] + i);
      acc[0][j] = _mm256_fmadd_ps(x, b0, acc[0][j]);
      acc[1][j] = _mm256_fmadd_ps(x, b1, acc[1][j]);
      acc[2][j] = _mm256_fmadd_ps(x, b2, acc[2][j]);
    }
  }
#pragma GCC unroll 3
  for (size_t k = 0; k < 3; ++k) {
#pragma GCC unroll 4
    for (size_t j = 0; j < 4; ++j) {
      acc[k][j] = _mm256_add_ps(even[k][j], acc[k][j]);
    }
    out[k] = Hsum256X4(acc[k]);
  }
  if (even_end == n) return;
  for (size_t k = 0; k < 3; ++k) {
    alignas(16) float d[4];
    _mm_store_ps(d, out[k]);
    for (size_t j = 0; j < 4; ++j) {
      float s = d[j];
      for (size_t t = even_end; t < n; ++t) s += a[j][t] * b[k][t];
      d[j] = s;
    }
    out[k] = _mm_load_ps(d);
  }
}

/// One step of four lanes' strict-'>' running argmax: lane j takes
/// centroid c where dv[j] > best[j].
MARS_AVX2_FN inline void TakeBetter(size_t c, __m128 dv, __m128* best,
                                    __m128i* best_c) {
  const __m128 better = _mm_cmp_ps(dv, *best, _CMP_GT_OQ);  // d > best
  *best = _mm_blendv_ps(*best, dv, better);
  *best_c = _mm_blendv_epi8(*best_c, _mm_set1_epi32(static_cast<int32_t>(c)),
                            _mm_castps_si128(better));
}

// Rows in quads, centroids in threes (DotRowsAvx2X4X3: each centroid row
// is loaded once per four sample rows and each row vector once per three
// centroids); the num_centroids mod 3 tail centroids run DotRowAvx2X4,
// whose lanes carry the same bits. Each lane keeps its own strict-'>'
// running argmax in one vector compare-and-blend, taken in centroid
// order, so ties still resolve to the lowest centroid index. The count
// mod 4 tail rows run the single-row loop.
MARS_AVX2_FN void NearestCentroidDotBatchAvx2(
    const float* rows, size_t count, size_t stride, const float* centroids,
    size_t num_centroids, size_t centroid_stride, size_t n, uint32_t* out,
    float* best_dot) {
  const auto centroid = [&](size_t c) {
    return centroids + c * centroid_stride;
  };
  const size_t quads = count & ~static_cast<size_t>(3);
  size_t r = 0;
  for (; r < quads; r += 4) {
    const float* const quad[4] = {rows + r * stride, rows + (r + 1) * stride,
                                  rows + (r + 2) * stride,
                                  rows + (r + 3) * stride};
    __m128 best = _mm_setzero_ps();  // set from centroid 0 below
    __m128i best_c = _mm_setzero_si128();
    size_t c = 0;
    for (; c + 3 <= num_centroids; c += 3) {
      const float* const trio[3] = {centroid(c), centroid(c + 1),
                                    centroid(c + 2)};
      __m128 d[3];
      DotRowsAvx2X4X3(quad, trio, n, d);
      if (c == 0) {
        best = d[0];
      } else {
        TakeBetter(c, d[0], &best, &best_c);
      }
      TakeBetter(c + 1, d[1], &best, &best_c);
      TakeBetter(c + 2, d[2], &best, &best_c);
    }
    for (; c < num_centroids; ++c) {
      float d[4];
      DotRowAvx2X4(quad, centroid(c), n, d);
      if (c == 0) {
        best = _mm_loadu_ps(d);
      } else {
        TakeBetter(c, _mm_loadu_ps(d), &best, &best_c);
      }
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + r), best_c);
    if (best_dot != nullptr) _mm_storeu_ps(best_dot + r, best);
  }
  for (; r < count; ++r) {
    const float* row = rows + r * stride;
    float best = DotRowAvx2(row, centroids, n);
    uint32_t best_c = 0;
    for (size_t c = 1; c < num_centroids; ++c) {
      const float d = DotRowAvx2(row, centroid(c), n);
      if (d > best) {
        best = d;
        best_c = static_cast<uint32_t>(c);
      }
    }
    out[r] = best_c;
    if (best_dot != nullptr) best_dot[r] = best;
  }
}

/// Scores one quad's raw dots as scale·(dot − bias) and appends the rows
/// at or above the threshold; a quad with none costs one compare and no
/// store.
MARS_AVX2_FN inline size_t EmitCodeQuad(__m128i dots, __m128i bias,
                                        const float* scales, size_t r,
                                        __m128 thr, uint32_t* hits,
                                        float* hit_scores, size_t n) {
  const __m128 score =
      _mm_mul_ps(_mm_loadu_ps(scales + r),
                 _mm_cvtepi32_ps(_mm_sub_epi32(dots, bias)));
  int mask = _mm_movemask_ps(_mm_cmp_ps(score, thr, _CMP_GE_OQ));
  if (mask == 0) return n;
  alignas(16) float s[4];
  _mm_store_ps(s, score);
  for (; mask != 0; mask &= mask - 1) {
    const int j = __builtin_ctz(static_cast<unsigned>(mask));
    hits[n] = static_cast<uint32_t>(r + j);
    hit_scores[n++] = s[j];
  }
  return n;
}

MARS_AVX2_FN void CodeScoresAtLeastPairAvx2(
    const CodeQuery* q, const uint8_t* codes, const float* scales,
    size_t count, size_t row_bytes, const float* threshold,
    uint32_t* const* hits, float* const* hit_scores, size_t* num_hits) {
  const int8_t* const qs[2] = {q[0].q, q[1].q};
  const __m128i bias[2] = {_mm_set1_epi32(q[0].bias),
                           _mm_set1_epi32(q[1].bias)};
  const __m128 thr[2] = {_mm_set1_ps(threshold[0]),
                         _mm_set1_ps(threshold[1])};
  size_t n[2] = {0, 0};
  size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    __m128i dots[2];
    kernels_detail::CodeDotRowsAvx2X4Pair(qs, codes + r * row_bytes,
                                          row_bytes, dots);
    for (size_t k = 0; k < 2; ++k) {
      n[k] = EmitCodeQuad(dots[k], bias[k], scales, r, thr[k], hits[k],
                          hit_scores[k], n[k]);
    }
  }
  for (; r < count; ++r) {
    for (size_t k = 0; k < 2; ++k) {
      const float score =
          scales[r] * static_cast<float>(kernels_detail::CodeDotRowAvx2(
                                             qs[k], codes + r * row_bytes,
                                             row_bytes) -
                                         q[k].bias);
      if (score >= threshold[k]) {
        hits[k][n[k]] = static_cast<uint32_t>(r);
        hit_scores[k][n[k]++] = score;
      }
    }
  }
  num_hits[0] = n[0];
  num_hits[1] = n[1];
}

#endif  // MARS_KERNELS_HAVE_AVX2

}  // namespace

void DotBatch(const float* u, const float* rows, size_t count, size_t stride,
              size_t n, float* out) {
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    DotBatchAvx2(u, rows, count, stride, n, out);
    return;
  }
#endif
  for (size_t r = 0; r < count; ++r) {
    out[r] = DotRowGeneric(u, rows + r * stride, n);
  }
}

void DotGather(const float* u, const float* base, size_t stride,
               const uint32_t* ids, size_t count, size_t n, float* out) {
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    DotGatherAvx2(u, base, stride, ids, count, n, out);
    return;
  }
#endif
  for (size_t r = 0; r < count; ++r) {
    out[r] = DotRowGeneric(u, base + ids[r] * stride, n);
  }
}

void NegatedSquaredDistanceGather(const float* u, const float* base,
                                  size_t stride, const uint32_t* ids,
                                  size_t count, size_t n, float* out) {
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    NegatedSquaredDistanceGatherAvx2(u, base, stride, ids, count, n, out);
    return;
  }
#endif
  for (size_t r = 0; r < count; ++r) {
    out[r] = -SquaredDistanceRowGeneric(u, base + ids[r] * stride, n);
  }
}

size_t CodeScoresAtLeast(const CodeQuery& q, const uint8_t* codes,
                         const float* scales, size_t count, size_t row_bytes,
                         float threshold, uint32_t* hits, float* hit_scores) {
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    return kernels_detail::CodeScoresAtLeastAvx2(
        q, codes, scales, count, row_bytes, threshold, hits, hit_scores);
  }
#endif
  return kernels_detail::CodeScoresAtLeastGeneric(
      q, codes, scales, count, row_bytes, threshold, hits, hit_scores);
}

void CodeScoresAtLeastPair(const CodeQuery* q, const uint8_t* codes,
                           const float* scales, size_t count,
                           size_t row_bytes, const float* threshold,
                           uint32_t* const* hits, float* const* hit_scores,
                           size_t* num_hits) {
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    CodeScoresAtLeastPairAvx2(q, codes, scales, count, row_bytes, threshold,
                              hits, hit_scores, num_hits);
    return;
  }
#endif
  for (size_t k = 0; k < 2; ++k) {
    num_hits[k] = kernels_detail::CodeScoresAtLeastGeneric(
        q[k], codes, scales, count, row_bytes, threshold[k], hits[k],
        hit_scores[k]);
  }
}

float WeightedFacetDot(const float* u, size_t u_stride, const float* v,
                       size_t v_stride, const float* w, size_t num_facets,
                       size_t n) {
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    return WeightedFacetDotAvx2(u, u_stride, v, v_stride, w, num_facets, n);
  }
#endif
  float score = 0.0f;
  for (size_t k = 0; k < num_facets; ++k) {
    score += w[k] * DotRowGeneric(u + k * u_stride, v + k * v_stride, n);
  }
  return score;
}

float WeightedFacetSquaredDistance(const float* u, size_t u_stride,
                                   const float* v, size_t v_stride,
                                   const float* w, size_t num_facets,
                                   size_t n) {
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    return WeightedFacetSquaredDistanceAvx2(u, u_stride, v, v_stride, w,
                                            num_facets, n);
  }
#endif
  float score = 0.0f;
  for (size_t k = 0; k < num_facets; ++k) {
    score += w[k] * SquaredDistanceRowGeneric(u + k * u_stride,
                                              v + k * v_stride, n);
  }
  return score;
}

void NegatedSquaredDistanceBatch(const float* u, const float* rows,
                                 size_t count, size_t stride, size_t n,
                                 float* out) {
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    NegatedSquaredDistanceBatchAvx2(u, rows, count, stride, n, out);
    return;
  }
#endif
  for (size_t r = 0; r < count; ++r) {
    out[r] = -SquaredDistanceRowGeneric(u, rows + r * stride, n);
  }
}

void NearestCentroidDotBatch(const float* rows, size_t count, size_t stride,
                             const float* centroids, size_t num_centroids,
                             size_t centroid_stride, size_t n, uint32_t* out,
                             float* best_dot) {
  if (count == 0 || num_centroids == 0) return;
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    NearestCentroidDotBatchAvx2(rows, count, stride, centroids, num_centroids,
                                centroid_stride, n, out, best_dot);
    return;
  }
#endif
  for (size_t r = 0; r < count; ++r) {
    const float* row = rows + r * stride;
    float best = DotRowGeneric(row, centroids, n);
    uint32_t best_c = 0;
    for (size_t c = 1; c < num_centroids; ++c) {
      const float d = DotRowGeneric(row, centroids + c * centroid_stride, n);
      if (d > best) {
        best = d;
        best_c = static_cast<uint32_t>(c);
      }
    }
    out[r] = best_c;
    if (best_dot != nullptr) best_dot[r] = best;
  }
}

void WeightedFacetDotBatch(const float* u, size_t u_stride,
                           const float* blocks, size_t block_stride,
                           size_t row_stride, const float* w,
                           size_t num_facets, size_t count, size_t n,
                           float* out) {
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    WeightedFacetDotBatchAvx2(u, u_stride, blocks, block_stride, row_stride,
                              w, num_facets, count, n, out);
    return;
  }
#endif
  for (size_t r = 0; r < count; ++r) {
    const float* block = blocks + r * block_stride;
    float score = 0.0f;
    for (size_t k = 0; k < num_facets; ++k) {
      score += w[k] * DotRowGeneric(u + k * u_stride, block + k * row_stride,
                                    n);
    }
    out[r] = score;
  }
}

void DotBatchMulti(const float* const* us, size_t num_users,
                   const float* rows, size_t count, size_t stride, size_t n,
                   float* const* out) {
  if (num_users == 0 || count == 0) return;
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    DotBatchMultiAvx2(us, num_users, rows, count, stride, n, out);
    return;
  }
#endif
  // Generic path: the candidate row stays hot across the inner user loop;
  // per user this is exactly the single-user generic reduction.
  for (size_t r = 0; r < count; ++r) {
    const float* row = rows + r * stride;
    for (size_t b = 0; b < num_users; ++b) {
      out[b][r] = DotRowGeneric(us[b], row, n);
    }
  }
}

void NegatedSquaredDistanceBatchMulti(const float* const* us,
                                      size_t num_users, const float* rows,
                                      size_t count, size_t stride, size_t n,
                                      float* const* out) {
  if (num_users == 0 || count == 0) return;
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    NegatedSquaredDistanceBatchMultiAvx2(us, num_users, rows, count, stride,
                                         n, out);
    return;
  }
#endif
  for (size_t r = 0; r < count; ++r) {
    const float* row = rows + r * stride;
    for (size_t b = 0; b < num_users; ++b) {
      out[b][r] = -SquaredDistanceRowGeneric(us[b], row, n);
    }
  }
}

void WeightedFacetDotBatchMulti(const float* const* us, size_t u_stride,
                                const float* const* ws, size_t num_users,
                                const float* blocks, size_t block_stride,
                                size_t row_stride, size_t num_facets,
                                size_t count, size_t n, float* const* out) {
  if (num_users == 0 || count == 0) return;
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    WeightedFacetDotBatchMultiAvx2(us, u_stride, ws, num_users, blocks,
                                   block_stride, row_stride, num_facets,
                                   count, n, out);
    return;
  }
#endif
  for (size_t r = 0; r < count; ++r) {
    const float* block = blocks + r * block_stride;
    for (size_t b = 0; b < num_users; ++b) {
      float score = 0.0f;
      for (size_t k = 0; k < num_facets; ++k) {
        score += ws[b][k] * DotRowGeneric(us[b] + k * u_stride,
                                          block + k * row_stride, n);
      }
      out[b][r] = score;
    }
  }
}

void WeightedFacetSquaredDistanceBatchMulti(
    const float* const* us, size_t u_stride, const float* const* ws,
    size_t num_users, const float* blocks, size_t block_stride,
    size_t row_stride, size_t num_facets, size_t count, size_t n,
    float* const* out) {
  if (num_users == 0 || count == 0) return;
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    WeightedFacetSquaredDistanceBatchMultiAvx2(us, u_stride, ws, num_users,
                                               blocks, block_stride,
                                               row_stride, num_facets, count,
                                               n, out);
    return;
  }
#endif
  for (size_t r = 0; r < count; ++r) {
    const float* block = blocks + r * block_stride;
    for (size_t b = 0; b < num_users; ++b) {
      float score = 0.0f;
      for (size_t k = 0; k < num_facets; ++k) {
        score += ws[b][k] * SquaredDistanceRowGeneric(us[b] + k * u_stride,
                                                      block + k * row_stride,
                                                      n);
      }
      out[b][r] = score;
    }
  }
}

void WeightedFacetSquaredDistanceBatch(const float* u, size_t u_stride,
                                       const float* blocks,
                                       size_t block_stride, size_t row_stride,
                                       const float* w, size_t num_facets,
                                       size_t count, size_t n, float* out) {
#if MARS_KERNELS_HAVE_AVX2
  if (HasAvx2Fma()) {
    WeightedFacetSquaredDistanceBatchAvx2(u, u_stride, blocks, block_stride,
                                          row_stride, w, num_facets, count, n,
                                          out);
    return;
  }
#endif
  for (size_t r = 0; r < count; ++r) {
    const float* block = blocks + r * block_stride;
    float score = 0.0f;
    for (size_t k = 0; k < num_facets; ++k) {
      score += w[k] * SquaredDistanceRowGeneric(u + k * u_stride,
                                                block + k * row_stride, n);
    }
    out[r] = score;
  }
}

namespace kernels_detail {

size_t CodeScoresAtLeastGeneric(const CodeQuery& q, const uint8_t* codes,
                                const float* scales, size_t count,
                                size_t row_bytes, float threshold,
                                uint32_t* hits, float* hit_scores) {
  size_t n = 0;
  for (size_t r = 0; r < count; ++r) {
    const float score =
        scales[r] *
        static_cast<float>(
            CodeDotRowGeneric(q.q, codes + r * row_bytes, row_bytes) - q.bias);
    if (score >= threshold) {
      hits[n] = static_cast<uint32_t>(r);
      hit_scores[n++] = score;
    }
  }
  return n;
}

#if MARS_KERNELS_HAVE_AVX2

// Rows in quads: four exact int32 dots, four scale products and one
// compare against the threshold, with the count mod 4 tail row by row.
MARS_AVX2_FN size_t CodeScoresAtLeastAvx2(const CodeQuery& q,
                                          const uint8_t* codes,
                                          const float* scales, size_t count,
                                          size_t row_bytes, float threshold,
                                          uint32_t* hits, float* hit_scores) {
  const __m128i bias = _mm_set1_epi32(q.bias);
  const __m128 thr = _mm_set1_ps(threshold);
  size_t n = 0;
  size_t r = 0;
  for (; r + 4 <= count; r += 4) {
    n = EmitCodeQuad(CodeDotRowsAvx2X4(q.q, codes + r * row_bytes, row_bytes),
                     bias, scales, r, thr, hits, hit_scores, n);
  }
  for (; r < count; ++r) {
    const float score =
        scales[r] *
        static_cast<float>(
            CodeDotRowAvx2(q.q, codes + r * row_bytes, row_bytes) - q.bias);
    if (score >= threshold) {
      hits[n] = static_cast<uint32_t>(r);
      hit_scores[n++] = score;
    }
  }
  return n;
}

#endif  // MARS_KERNELS_HAVE_AVX2

}  // namespace kernels_detail

}  // namespace mars
