// CRC-32 (IEEE 802.3: reflected polynomial 0xEDB88320, initial value and
// final xor 0xFFFFFFFF) — the one checksum every byte format in this
// repository uses: MRSN wire frames (net/protocol.h, docs/PROTOCOL.md)
// checksum their payload with it, and MRSI index files (ann/index_io.h,
// docs/FORMAT.md) checksum each region with it.
//
// Two twins compute it (common/crc32_detail.h), picked once per process
// by the CPU check:
//  * a PCLMULQDQ fold (Gopal et al., "Fast CRC Computation for Generic
//    Polynomials Using PCLMULQDQ Instruction", Intel 2009) on x86-64 CPUs
//    that have it: four 16-byte lanes per 64-byte step, then 16-byte
//    folds, a 128 → 64 → 32 bit reduction and a Barrett step, with the
//    last < 16 bytes through the tables below;
//  * the portable slicing-by-16 loop (Kounavis & Berry, "Novel Table
//    Lookup-Based Algorithms for High-Performance CRC Generation", IEEE
//    TC 2008) everywhere else and for inputs under 64 bytes: 16 bytes per
//    step through 16 compile-time tables, a byte loop for the tail.
// Both return exactly the value of the classic one-table byte loop, which
// tests/common/crc32_test.cc keeps as the oracle for each twin, so no
// file or frame byte depends on which one ran.
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
