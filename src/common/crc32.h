// CRC-32 (IEEE 802.3: reflected polynomial 0xEDB88320, initial value and
// final xor 0xFFFFFFFF) — the one checksum every byte format in this
// repository uses: MRSN wire frames (net/protocol.h, docs/PROTOCOL.md)
// checksum their payload with it, and MRSI index files (ann/index_io.h,
// docs/FORMAT.md) checksum each region with it.
//
// The implementation is slicing-by-16 (Kounavis & Berry, "Novel Table
// Lookup-Based Algorithms for High-Performance CRC Generation", IEEE TC
// 2008): 16 input bytes per step through 16 lookup tables that are
// generated at compile time, with a byte-at-a-time loop for the tail. It
// returns exactly the value of the classic one-table byte loop, which
// tests/common/crc32_test.cc keeps as the oracle.
#ifndef MARS_COMMON_CRC32_H_
#define MARS_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace mars {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over `data[0, n)`.
/// Crc32(nullptr, 0) == 0.
uint32_t Crc32(const uint8_t* data, size_t n);

}  // namespace mars

#endif  // MARS_COMMON_CRC32_H_
