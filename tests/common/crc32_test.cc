// Crc32 (common/crc32.h) against the classic one-table byte-at-a-time
// CRC-32, which lives only here as the oracle: every length 0..1024 at
// every start offset 0..15 (so the 16-byte steps meet every alignment and
// every tail length), a seeded multi-megabyte buffer, and the IEEE check
// value. Run under ASAN by scripts/ci.sh --san=address, which catches any
// 16-byte load reading past the end of the input.
#include "common/crc32.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

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

TEST(Crc32Test, MatchesTheIeeeCheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check), std::strlen(check)),
            0xCBF43926u);
}

TEST(Crc32Test, EmptyInputIsZero) { EXPECT_EQ(Crc32(nullptr, 0), 0u); }

TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndOffset) {
  const std::vector<uint8_t> bytes = SeededBytes(1024 + 16, 11);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t n = 0; n <= 1024; ++n) {
      // A heap copy of exactly n bytes: ASAN flags any read past the end.
      const std::vector<uint8_t> exact(bytes.begin() + offset,
                                       bytes.begin() + offset + n);
      ASSERT_EQ(Crc32(exact.data(), n), ReferenceCrc32(exact.data(), n))
          << "offset=" << offset << " n=" << n;
      ASSERT_EQ(Crc32(bytes.data() + offset, n),
                ReferenceCrc32(bytes.data() + offset, n))
          << "offset=" << offset << " n=" << n;
    }
  }
}

TEST(Crc32Test, MatchesBytewiseOnFourMebibytes) {
  const std::vector<uint8_t> bytes = SeededBytes(4u << 20, 2024);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()),
            ReferenceCrc32(bytes.data(), bytes.size()));
}

}  // namespace
}  // namespace mars
