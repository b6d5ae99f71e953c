// Crc32 (common/crc32.h) and each of its twins (common/crc32_detail.h:
// the portable slicing-by-16 loop and, where the CPU has it, the PCLMULQDQ
// fold) against the classic one-table byte-at-a-time CRC-32, which lives
// only here as the oracle: every length 0..1024 at every start offset
// 0..15 (so the 16- and 64-byte steps meet every alignment and every tail
// length), the lengths around a page, a seeded multi-megabyte buffer, and
// the IEEE check value. Run under ASAN by scripts/ci.sh --san=address,
// which catches any 16-byte load reading past the end of the input.
#include "common/crc32.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32_detail.h"
#include "common/rng.h"

namespace mars {
namespace {

uint32_t ReferenceCrc32(const uint8_t* data, size_t n) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<uint8_t> SeededBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.UniformInt(256));
  return bytes;
}

struct Twin {
  const char* name;
  uint32_t (*crc)(const uint8_t*, size_t);
};

/// The dispatched entry point and every twin this host can run, so an
/// x86 host still tests the portable loop.
std::vector<Twin> Twins() {
  std::vector<Twin> twins = {{"Crc32", &Crc32},
                             {"portable", &crc32_detail::Crc32Portable}};
#if MARS_CRC32_HAVE_PCLMUL
  if (crc32_detail::HasPclmul()) {
    twins.push_back({"pclmul", &crc32_detail::Crc32Pclmul});
  }
#endif
  return twins;
}

TEST(Crc32Test, MatchesTheIeeeCheckValue) {
  const char* check = "123456789";
  for (const Twin& twin : Twins()) {
    EXPECT_EQ(twin.crc(reinterpret_cast<const uint8_t*>(check),
                       std::strlen(check)),
              0xCBF43926u)
        << twin.name;
  }
}

TEST(Crc32Test, EmptyInputIsZero) {
  for (const Twin& twin : Twins()) {
    EXPECT_EQ(twin.crc(nullptr, 0), 0u) << twin.name;
  }
}

TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndOffset) {
  const std::vector<uint8_t> bytes = SeededBytes(4097 + 16, 11);
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 1024; ++n) lengths.push_back(n);
  for (const size_t n : {4095, 4096, 4097}) lengths.push_back(n);
  for (const Twin& twin : Twins()) {
    SCOPED_TRACE(twin.name);
    for (size_t offset = 0; offset < 16; ++offset) {
      for (const size_t n : lengths) {
        // A heap copy of exactly n bytes: ASAN flags any read past the end.
        const std::vector<uint8_t> exact(bytes.begin() + offset,
                                         bytes.begin() + offset + n);
        const uint32_t want = ReferenceCrc32(exact.data(), n);
        ASSERT_EQ(twin.crc(exact.data(), n), want)
            << "offset=" << offset << " n=" << n;
        ASSERT_EQ(twin.crc(bytes.data() + offset, n), want)
            << "offset=" << offset << " n=" << n;
      }
    }
  }
}

TEST(Crc32Test, MatchesBytewiseOnFourMebibytes) {
  const std::vector<uint8_t> bytes = SeededBytes(4u << 20, 2024);
  const uint32_t want = ReferenceCrc32(bytes.data(), bytes.size());
  for (const Twin& twin : Twins()) {
    EXPECT_EQ(twin.crc(bytes.data(), bytes.size()), want) << twin.name;
  }
}

}  // namespace
}  // namespace mars
