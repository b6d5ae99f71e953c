#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#include "common/crc32_detail.h"

#if MARS_CRC32_HAVE_PCLMUL
#include <immintrin.h>
#endif

namespace mars {

namespace {

// The 16-byte step reads its input as little-endian u32 words, like
// common/binary_io.h reads the file formats.
static_assert(std::endian::native == std::endian::little,
              "Crc32's slicing-by-16 loop assumes a little-endian host");

using Crc32Tables = std::array<std::array<uint32_t, 256>, 16>;

// kTables[0] is the classic byte-at-a-time table; kTables[s][b] is the
// CRC contribution of byte b followed by s zero bytes, so one step can
// fold 16 bytes at once.
constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t s = 1; s < t.size(); ++s) {
    for (size_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32Tables kTables = MakeCrc32Tables();

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Advances a raw CRC state (no initial or final xor) over `data[0, n)`:
/// 16 bytes per step through the tables, then a byte loop for the tail.
uint32_t UpdateTables(uint32_t crc, const uint8_t* data, size_t n) {
  const auto& t = kTables;
  for (; n >= 16; data += 16, n -= 16) {
    const uint32_t a = LoadU32(data) ^ crc;
    const uint32_t b = LoadU32(data + 4);
    const uint32_t c = LoadU32(data + 8);
    const uint32_t d = LoadU32(data + 12);
    crc = t[15][a & 0xFFu] ^ t[14][(a >> 8) & 0xFFu] ^
          t[13][(a >> 16) & 0xFFu] ^ t[12][a >> 24] ^
          t[11][b & 0xFFu] ^ t[10][(b >> 8) & 0xFFu] ^
          t[9][(b >> 16) & 0xFFu] ^ t[8][b >> 24] ^
          t[7][c & 0xFFu] ^ t[6][(c >> 8) & 0xFFu] ^
          t[5][(c >> 16) & 0xFFu] ^ t[4][c >> 24] ^
          t[3][d & 0xFFu] ^ t[2][(d >> 8) & 0xFFu] ^
          t[1][(d >> 16) & 0xFFu] ^ t[0][d >> 24];
  }
  for (; n > 0; ++data, --n) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#if MARS_CRC32_HAVE_PCLMUL

// Folding constants for the reflected polynomial (Gopal et al., "Fast CRC
// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel
// 2009): x^e mod P(x), bit-reflected and shifted left by one, for
// e = 4·128 ± 32 (the 64-byte fold), 128 ± 32 (the 16-byte fold) and 64
// (the 64 → 32 bit fold); then the Barrett pair, P′ = P(x) reflected
// over 33 bits and u′ = ⌊x⁶⁴ / P(x)⌋ reflected over 33 bits.
constexpr uint64_t kK1 = 0x154442BD4;  // x^544
constexpr uint64_t kK2 = 0x1C6E41596;  // x^480
constexpr uint64_t kK3 = 0x1751997D0;  // x^160
constexpr uint64_t kK4 = 0x0CCAA009E;  // x^96
constexpr uint64_t kK5 = 0x163CD6124;  // x^64
constexpr uint64_t kPoly = 0x1DB710641;
constexpr uint64_t kMu = 0x1F7011641;

#define MARS_PCLMUL_FN __attribute__((target("pclmul")))

/// Carries the 128-bit lane `x` forward by the distance `k` encodes: x's
/// low qword times k's low constant, xor its high qword times k's high.
MARS_PCLMUL_FN inline __m128i Fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

MARS_PCLMUL_FN inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Folds the whole 16-byte blocks of `data[0, n)` (n >= 64) into a raw
/// CRC state: four lanes per 64-byte step, then one lane per 16-byte
/// block, then 128 → 64 → 32 bits and a Barrett reduction. Returns the
/// state after n rounded down to a multiple of 16 bytes.
MARS_PCLMUL_FN uint32_t FoldBlocks(uint32_t crc, const uint8_t* data,
                                   size_t n) {
  __m128i x0 = _mm_xor_si128(Load128(data),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load128(data + 16);
  __m128i x2 = Load128(data + 32);
  __m128i x3 = Load128(data + 48);
  data += 64;
  n -= 64;
  const __m128i k12 = _mm_set_epi64x(static_cast<int64_t>(kK2),
                                     static_cast<int64_t>(kK1));
  for (; n >= 64; data += 64, n -= 64) {
    x0 = _mm_xor_si128(Fold(x0, k12), Load128(data));
    x1 = _mm_xor_si128(Fold(x1, k12), Load128(data + 16));
    x2 = _mm_xor_si128(Fold(x2, k12), Load128(data + 32));
    x3 = _mm_xor_si128(Fold(x3, k12), Load128(data + 48));
  }
  const __m128i k34 = _mm_set_epi64x(static_cast<int64_t>(kK4),
                                     static_cast<int64_t>(kK3));
  x0 = _mm_xor_si128(Fold(x0, k34), x1);
  x0 = _mm_xor_si128(Fold(x0, k34), x2);
  x0 = _mm_xor_si128(Fold(x0, k34), x3);
  for (; n >= 16; data += 16, n -= 16) {
    x0 = _mm_xor_si128(Fold(x0, k34), Load128(data));
  }
  // 128 → 64 bits: the low qword times x^96, into the high qword.
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k34, 0x10),
                     _mm_srli_si128(x0, 8));
  // 64 → 32 bits: the low dword times x^64, into the rest.
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  const __m128i k5 = _mm_set_epi64x(0, static_cast<int64_t>(kK5));
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k5, 0x00),
      _mm_srli_si128(x0, 4));
  // Barrett reduction: the remainder lands in bits 32..63.
  const __m128i poly = _mm_set_epi64x(static_cast<int64_t>(kMu),
                                      static_cast<int64_t>(kPoly));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  x0 = _mm_xor_si128(x0, t);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x0, 4)));
}

#undef MARS_PCLMUL_FN

#endif  // MARS_CRC32_HAVE_PCLMUL

}  // namespace

namespace crc32_detail {

uint32_t Crc32Portable(const uint8_t* data, size_t n) {
  return UpdateTables(0xFFFFFFFFu, data, n) ^ 0xFFFFFFFFu;
}

#if MARS_CRC32_HAVE_PCLMUL

uint32_t Crc32Pclmul(const uint8_t* data, size_t n) {
  if (n < 64) return Crc32Portable(data, n);
  const size_t folded = n & ~size_t{15};
  const uint32_t crc = FoldBlocks(0xFFFFFFFFu, data, n);
  return UpdateTables(crc, data + folded, n - folded) ^ 0xFFFFFFFFu;
}

#endif  // MARS_CRC32_HAVE_PCLMUL

}  // namespace crc32_detail

uint32_t Crc32(const uint8_t* data, size_t n) {
#if MARS_CRC32_HAVE_PCLMUL
  if (crc32_detail::HasPclmul()) return crc32_detail::Crc32Pclmul(data, n);
#endif
  return crc32_detail::Crc32Portable(data, n);
}

}  // namespace mars
