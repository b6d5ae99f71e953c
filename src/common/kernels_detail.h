// Internal kernel row primitives — dot and squared distance, one per score
// family: the autovectorized generic forms, their AVX2+FMA intrinsic twins
// and four-user (X4) variants, plus the runtime CPU check that picks
// between them. Shared between common/kernels.cc (which dispatches) and
// bench/microbench_kernels.cpp (which A/B-times both paths — the ROADMAP
// "SIMD-explicit kernels" item is measure-first, so the comparison has to
// stay runnable after adoption).
//
// Numerical contract: within one build, every batch/gather/facet kernel
// of a scoring family reduces rows with the *same* primitive, so
// ScoreItems (gather) and ScoreItemRange (batch) stay bit-identical —
// the equivalence the serving tests pin. The AVX2 forms use one fused
// 8-lane FMA chain per accumulator instead of the generic two 4-lane
// chains, so results differ from the generic path in final-bit rounding;
// that is fine *across* paths (a host either has AVX2 or does not) but
// means the two paths must never be mixed inside one family at runtime —
// which the single HasAvx2Fma() branch point guarantees.
//
// x86-only by construction; every other architecture compiles the
// generic forms alone and HasAvx2Fma() constant-folds to false.
#ifndef MARS_COMMON_KERNELS_DETAIL_H_
#define MARS_COMMON_KERNELS_DETAIL_H_

#include <cstddef>
#include <cstdint>

#include "common/kernels.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MARS_KERNELS_HAVE_AVX2 1
#include <immintrin.h>
#else
#define MARS_KERNELS_HAVE_AVX2 0
#endif

namespace mars {
namespace kernels_detail {

// --- Generic forms: 8-wide accumulator arrays the compiler turns into
// two independent SIMD reduction chains at the build's baseline ISA. ----

inline float DotRowGeneric(const float* a, const float* b, size_t n) {
  float acc[8] = {0.0f};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (size_t j = 0; j < 8; ++j) acc[j] += a[i + j] * b[i + j];
  }
  float s = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
            ((acc[4] + acc[5]) + (acc[6] + acc[7]));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

inline float SquaredDistanceRowGeneric(const float* a, const float* b,
                                       size_t n) {
  float acc[8] = {0.0f};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (size_t j = 0; j < 8; ++j) {
      const float dlt = a[i + j] - b[i + j];
      acc[j] += dlt * dlt;
    }
  }
  float s = ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
            ((acc[4] + acc[5]) + (acc[6] + acc[7]));
  for (; i < n; ++i) {
    const float dlt = a[i] - b[i];
    s += dlt * dlt;
  }
  return s;
}

/// Σ_j q[j]·nibble[j] over one 4-bit code row of `n` bytes (the IVF
/// probe's first pass, ann/ivf_index.h; the nibble layout is in
/// common/kernels.h): the raw sum, before the scan subtracts the query's
/// bias. `q` holds 2·n int8 entries in dim order. Every term is at most
/// 127·15, so the int32 sum is exact for any row the index format admits
/// and any summation order gives the same bits: the AVX2 twin below need
/// not mirror this one.
inline int32_t CodeDotRowGeneric(const int8_t* q, const uint8_t* code,
                                 size_t n) {
  int32_t s = 0;
  for (size_t b = 0; b < n; b += 32) {
    for (size_t j = 0; j < 32; ++j) {
      s += q[2 * b + j] * (code[b + j] & 15) +
           q[2 * b + 32 + j] * (code[b + j] >> 4);
    }
  }
  return s;
}

/// The code scan's generic twin; CodeScoresAtLeast (common/kernels.h)
/// dispatches between it and CodeScoresAtLeastAvx2, and the microbench
/// times each by name.
size_t CodeScoresAtLeastGeneric(const CodeQuery& q, const uint8_t* codes,
                                const float* scales, size_t count,
                                size_t row_bytes, float threshold,
                                uint32_t* hits, float* hit_scores);

#if MARS_KERNELS_HAVE_AVX2

#define MARS_AVX2_FN __attribute__((target("avx2,fma")))

/// True when the running CPU supports the avx2+fma code paths. One check,
/// cached — all dispatch flows through here so a process never mixes the
/// two rounding behaviors within a kernel family.
inline bool HasAvx2Fma() {
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
}

MARS_AVX2_FN inline float Hsum256(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

/// Four Hsum256 reductions at once: lane j of the result is bit-identical
/// to Hsum256(v[j]). Each lane keeps Hsum256's pairing
/// ((v0+v4)+(v2+v6)) + ((v1+v5)+(v3+v7)); the 128-bit halves and the
/// element pairs are moved across registers with shuffles instead of
/// being reduced one register at a time (IEEE addition is commutative, so
/// only the pairing matters for the bits).
MARS_AVX2_FN inline __m128 Hsum256X4(const __m256* v) {
  // [v0.lo + v0.hi | v1.lo + v1.hi] and the same for v2, v3: per 128-bit
  // half, x_i = v_i + v_{i+4}.
  const __m256 x01 = _mm256_add_ps(_mm256_permute2f128_ps(v[0], v[1], 0x20),
                                   _mm256_permute2f128_ps(v[0], v[1], 0x31));
  const __m256 x23 = _mm256_add_ps(_mm256_permute2f128_ps(v[2], v[3], 0x20),
                                   _mm256_permute2f128_ps(v[2], v[3], 0x31));
  // Halves [x0+x2 of v0, of v2, x1+x3 of v0, of v2 | same for v1, v3].
  const __m256 y = _mm256_add_ps(_mm256_unpacklo_ps(x01, x23),
                                 _mm256_unpackhi_ps(x01, x23));
  // (x0+x2) + (x1+x3): halves [v0, v2, v0, v2 | v1, v3, v1, v3].
  const __m256 z = _mm256_add_ps(y, _mm256_permute_ps(y, 0x4E));
  return _mm_unpacklo_ps(_mm256_castps256_ps128(z),
                         _mm256_extractf128_ps(z, 1));
}

MARS_AVX2_FN inline float DotRowAvx2(const float* a, const float* b,
                                     size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float s = Hsum256(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

MARS_AVX2_FN inline float SquaredDistanceRowAvx2(const float* a,
                                                 const float* b, size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8),
                                    _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 d0 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
  }
  float s = Hsum256(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) {
    const float dlt = a[i] - b[i];
    s += dlt * dlt;
  }
  return s;
}

// Multi-user AVX2 forms: four query rows against one shared candidate row,
// register-blocked — the row's vectors are loaded once per 16-float stride
// and fed to all four users' FMA chains (8 ymm accumulators + 2 row
// registers). Per user, the op sequence is *identical* to the single-user
// primitive (same two-accumulator FMA chains, the Hsum256 pairing via
// Hsum256X4, same scalar tail), so each lane of `out` is bit-identical to
// the corresponding solo call — the batch≡solo contract the multi-user
// miss sweep pins.

MARS_AVX2_FN inline void DotRowAvx2X4(const float* const* a, const float* b,
                                      size_t n, float* out) {
  __m256 acc0[4] = {_mm256_setzero_ps(), _mm256_setzero_ps(),
                    _mm256_setzero_ps(), _mm256_setzero_ps()};
  __m256 acc1[4] = {_mm256_setzero_ps(), _mm256_setzero_ps(),
                    _mm256_setzero_ps(), _mm256_setzero_ps()};
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 b0 = _mm256_loadu_ps(b + i);
    const __m256 b1 = _mm256_loadu_ps(b + i + 8);
    for (size_t j = 0; j < 4; ++j) {
      acc0[j] = _mm256_fmadd_ps(_mm256_loadu_ps(a[j] + i), b0, acc0[j]);
      acc1[j] = _mm256_fmadd_ps(_mm256_loadu_ps(a[j] + i + 8), b1, acc1[j]);
    }
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 b0 = _mm256_loadu_ps(b + i);
    for (size_t j = 0; j < 4; ++j) {
      acc0[j] = _mm256_fmadd_ps(_mm256_loadu_ps(a[j] + i), b0, acc0[j]);
    }
  }
  for (size_t j = 0; j < 4; ++j) acc0[j] = _mm256_add_ps(acc0[j], acc1[j]);
  // One 16-byte store, so a caller that reloads `out` as a vector gets it
  // forwarded; lanes are patched only when there is a scalar tail.
  _mm_storeu_ps(out, Hsum256X4(acc0));
  if (i == n) return;
  for (size_t j = 0; j < 4; ++j) {
    float s = out[j];
    for (size_t t = i; t < n; ++t) s += a[j][t] * b[t];
    out[j] = s;
  }
}

MARS_AVX2_FN inline void SquaredDistanceRowAvx2X4(const float* const* a,
                                                  const float* b, size_t n,
                                                  float* out) {
  __m256 acc0[4] = {_mm256_setzero_ps(), _mm256_setzero_ps(),
                    _mm256_setzero_ps(), _mm256_setzero_ps()};
  __m256 acc1[4] = {_mm256_setzero_ps(), _mm256_setzero_ps(),
                    _mm256_setzero_ps(), _mm256_setzero_ps()};
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 b0 = _mm256_loadu_ps(b + i);
    const __m256 b1 = _mm256_loadu_ps(b + i + 8);
    for (size_t j = 0; j < 4; ++j) {
      const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a[j] + i), b0);
      const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a[j] + i + 8), b1);
      acc0[j] = _mm256_fmadd_ps(d0, d0, acc0[j]);
      acc1[j] = _mm256_fmadd_ps(d1, d1, acc1[j]);
    }
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 b0 = _mm256_loadu_ps(b + i);
    for (size_t j = 0; j < 4; ++j) {
      const __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a[j] + i), b0);
      acc0[j] = _mm256_fmadd_ps(d0, d0, acc0[j]);
    }
  }
  for (size_t j = 0; j < 4; ++j) acc0[j] = _mm256_add_ps(acc0[j], acc1[j]);
  _mm_storeu_ps(out, Hsum256X4(acc0));
  if (i == n) return;
  for (size_t j = 0; j < 4; ++j) {
    float s = out[j];
    for (size_t t = i; t < n; ++t) {
      const float dlt = a[j][t] - b[t];
      s += dlt * dlt;
    }
    out[j] = s;
  }
}

/// Folds four rows' int32 accumulators into lanes [r0 r1 r2 r3]: two
/// horizontal adds and a half fold.
MARS_AVX2_FN inline __m128i FoldCodeDotsX4(const __m256i* acc) {
  const __m256i s01 = _mm256_hadd_epi32(acc[0], acc[1]);
  const __m256i s23 = _mm256_hadd_epi32(acc[2], acc[3]);
  const __m256i s = _mm256_hadd_epi32(s01, s23);
  return _mm_add_epi32(_mm256_castsi256_si128(s),
                       _mm256_extracti128_si256(s, 1));
}

/// One 32-byte block of a code row against its 64 query entries — the low
/// nibbles against q[0..32), the high nibbles against q[32..64) — as
/// eight int32 partial sums. `vpmaddubsw` multiplies each unsigned nibble
/// by its signed query byte and adds adjacent pairs into int16 with
/// saturation, which never triggers here: a pair sums to at most
/// 2·15·127 = 3810, the two halves' sum to 7620. `vpmaddwd` by ones then
/// widens to int32, so every sum is exact.
MARS_AVX2_FN inline __m256i CodeBlockDotsAvx2(__m256i code, __m256i q_lo,
                                              __m256i q_hi) {
  const __m256i mask = _mm256_set1_epi8(15);
  const __m256i lo = _mm256_and_si256(code, mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(code, 4), mask);
  return _mm256_madd_epi16(_mm256_add_epi16(_mm256_maddubs_epi16(lo, q_lo),
                                            _mm256_maddubs_epi16(hi, q_hi)),
                           _mm256_set1_epi16(1));
}

MARS_AVX2_FN inline __m256i LoadCodeBlock(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

/// Four consecutive code rows (`n` bytes each, n a multiple of 32) against
/// one int8 query: each block's query bytes are loaded once and fed to the
/// four rows' chains. Lane j equals CodeDotRowGeneric(q, codes + j·n, n)
/// exactly (integer sums).
MARS_AVX2_FN inline __m128i CodeDotRowsAvx2X4(const int8_t* q,
                                              const uint8_t* codes,
                                              size_t n) {
  __m256i acc[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                    _mm256_setzero_si256(), _mm256_setzero_si256()};
  for (size_t b = 0; b < n; b += 32) {
    const __m256i q_lo = LoadCodeBlock(q + 2 * b);
    const __m256i q_hi = LoadCodeBlock(q + 2 * b + 32);
    for (size_t j = 0; j < 4; ++j) {
      acc[j] = _mm256_add_epi32(
          acc[j], CodeBlockDotsAvx2(LoadCodeBlock(codes + j * n + b), q_lo,
                                    q_hi));
    }
  }
  return FoldCodeDotsX4(acc);
}

/// The same four rows against two queries: each code block is loaded once
/// and fed to both queries' chains, so a row costs one load for two
/// queries. d[k] holds query k's four dots, each exactly
/// CodeDotRowGeneric's.
MARS_AVX2_FN inline void CodeDotRowsAvx2X4Pair(const int8_t* const* q,
                                               const uint8_t* codes, size_t n,
                                               __m128i* d) {
  __m256i a[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                  _mm256_setzero_si256(), _mm256_setzero_si256()};
  __m256i b[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                  _mm256_setzero_si256(), _mm256_setzero_si256()};
  for (size_t i = 0; i < n; i += 32) {
    const __m256i a_lo = LoadCodeBlock(q[0] + 2 * i);
    const __m256i a_hi = LoadCodeBlock(q[0] + 2 * i + 32);
    const __m256i b_lo = LoadCodeBlock(q[1] + 2 * i);
    const __m256i b_hi = LoadCodeBlock(q[1] + 2 * i + 32);
    for (size_t j = 0; j < 4; ++j) {
      const __m256i c = LoadCodeBlock(codes + j * n + i);
      a[j] = _mm256_add_epi32(a[j], CodeBlockDotsAvx2(c, a_lo, a_hi));
      b[j] = _mm256_add_epi32(b[j], CodeBlockDotsAvx2(c, b_lo, b_hi));
    }
  }
  d[0] = FoldCodeDotsX4(a);
  d[1] = FoldCodeDotsX4(b);
}

/// One code row: CodeDotRowGeneric(q, code, n) for n a multiple of 32,
/// with the X4 form's vector steps (the quad loop's tail rows).
MARS_AVX2_FN inline int32_t CodeDotRowAvx2(const int8_t* q,
                                           const uint8_t* code, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  for (size_t b = 0; b < n; b += 32) {
    acc = _mm256_add_epi32(
        acc, CodeBlockDotsAvx2(LoadCodeBlock(code + b),
                               LoadCodeBlock(q + 2 * b),
                               LoadCodeBlock(q + 2 * b + 32)));
  }
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(acc),
                            _mm256_extracti128_si256(acc, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4E));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xB1));
  return _mm_cvtsi128_si32(s);
}

/// The code scan's AVX2 twin: rows in quads (CodeDotRowsAvx2X4), the same
/// rows and score bits as CodeScoresAtLeastGeneric.
MARS_AVX2_FN size_t CodeScoresAtLeastAvx2(const CodeQuery& q,
                                          const uint8_t* codes,
                                          const float* scales, size_t count,
                                          size_t row_bytes, float threshold,
                                          uint32_t* hits, float* hit_scores);

#else  // !MARS_KERNELS_HAVE_AVX2

inline bool HasAvx2Fma() { return false; }

#endif  // MARS_KERNELS_HAVE_AVX2

}  // namespace kernels_detail
}  // namespace mars

#endif  // MARS_COMMON_KERNELS_DETAIL_H_
