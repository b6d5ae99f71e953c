// Crc32's two twins, named so tests and microbench_kernels can drive each
// one directly (the kernels_detail.h pattern): the portable slicing-by-16
// loop and, on x86-64, the PCLMULQDQ fold, plus the runtime CPU check
// common/crc32.cc dispatches on. Both return exactly the value of the
// classic one-table byte loop for every input; there is no switch between
// them other than the CPU check.
#ifndef MARS_COMMON_CRC32_DETAIL_H_
#define MARS_COMMON_CRC32_DETAIL_H_

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MARS_CRC32_HAVE_PCLMUL 1
#else
#define MARS_CRC32_HAVE_PCLMUL 0
#endif

namespace mars {
namespace crc32_detail {

/// Slicing-by-16 over `data[0, n)`: any host, any length.
uint32_t Crc32Portable(const uint8_t* data, size_t n);

#if MARS_CRC32_HAVE_PCLMUL

/// True when the running CPU has PCLMULQDQ. One check, cached.
inline bool HasPclmul() {
  static const bool ok = __builtin_cpu_supports("pclmul");
  return ok;
}

/// The carry-less-multiply fold over `data[0, n)`. Call only when
/// HasPclmul(). Inputs under 64 bytes run the portable loop.
uint32_t Crc32Pclmul(const uint8_t* data, size_t n);

#else  // !MARS_CRC32_HAVE_PCLMUL

inline bool HasPclmul() { return false; }

#endif  // MARS_CRC32_HAVE_PCLMUL

}  // namespace crc32_detail
}  // namespace mars

#endif  // MARS_COMMON_CRC32_DETAIL_H_
