// Little-endian binary stream helpers shared by the persistence layers
// (core/persistence.cc model snapshots, ann/index_io.cc index files,
// serve/top_k_sidecar.cc cache sidecars). The on-disk formats
// (docs/FORMAT.md) are defined as little-endian; these write the host
// representation directly, which is correct on every platform this library
// targets — if a big-endian port ever lands, the byte swap belongs here and
// nowhere else.
#ifndef MARS_COMMON_BINARY_IO_H_
#define MARS_COMMON_BINARY_IO_H_

#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <string>

namespace mars {

/// Replaces `path` with the bytes `write` puts on the stream, atomically:
/// the bytes go to `path + ".tmp"`, which is fsync'd and then renamed over
/// `path`. A reader that mapped the old file keeps the old inode intact (a
/// save never truncates a live mapping), and a crash mid-save leaves the
/// old file, never a torn one. On any failure the temp file is unlinked,
/// `path` is untouched, and an error naming `who` is logged.
bool WriteFileAtomic(const std::string& path, const char* who,
                     const std::function<void(std::ostream&)>& write);

inline void WriteU32(std::ostream& out, uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void WriteU64(std::ostream& out, uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void WriteFloats(std::ostream& out, const float* data, size_t n) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(n * sizeof(float)));
}

inline bool ReadU32(std::istream& in, uint32_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}

inline bool ReadU64(std::istream& in, uint64_t* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(*v));
  return in.good();
}

inline bool ReadFloats(std::istream& in, float* data, size_t n) {
  in.read(reinterpret_cast<char*>(data),
          static_cast<std::streamsize>(n * sizeof(float)));
  return in.good();
}

}  // namespace mars

#endif  // MARS_COMMON_BINARY_IO_H_
