#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

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

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n) {
  const auto& t = kTables;
  uint32_t crc = 0xFFFFFFFFu;
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
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace mars
