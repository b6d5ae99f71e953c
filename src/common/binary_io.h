// Little-endian binary helpers shared by the persistence layers
// (core/persistence.cc model snapshots, ann/index_io.cc index files,
// serve/top_k_sidecar.cc cache sidecars): stream writers for the savers,
// one bounds-checked ByteReader for the mapped loaders. The on-disk
// formats (docs/FORMAT.md) are defined as little-endian; these write and
// read the host representation directly, which is correct on every
// platform this library targets — if a big-endian port ever lands, the
// byte swap belongs here and nowhere else.
#ifndef MARS_COMMON_BINARY_IO_H_
#define MARS_COMMON_BINARY_IO_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <ostream>
#include <string>
#include <type_traits>

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

/// Bounds-checked cursor over bytes in memory (a mapped file): the read
/// side of the helpers above. Every read checks its length against the
/// bytes that remain before copying, so a truncated or lying file fails
/// the read instead of running off the buffer.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : at_(data), left_(size) {}

  template <typename T>
  bool Read(T* v) {
    return ReadArray(v, 1);
  }

  template <typename T>
  bool ReadArray(T* v, size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (n > left_ / sizeof(T)) return false;
    const size_t len = n * sizeof(T);
    if (len > 0) std::memcpy(v, at_, len);
    at_ += len;
    left_ -= len;
    return true;
  }

  /// Points `*v` at the next `n` elements where they lie instead of
  /// copying them out: the zero-copy ReadArray for a reader over a
  /// mapping that outlives `*v`. Fails, consuming nothing, when fewer than
  /// `n` elements remain or the bytes are not aligned for T.
  template <typename T>
  bool Borrow(const T** v, size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (n > left_ / sizeof(T) ||
        reinterpret_cast<uintptr_t>(at_) % alignof(T) != 0) {
      return false;
    }
    *v = reinterpret_cast<const T*>(at_);
    at_ += n * sizeof(T);
    left_ -= n * sizeof(T);
    return true;
  }

  /// Steps over `n` bytes (reserved fields).
  bool Skip(size_t n) {
    if (n > left_) return false;
    at_ += n;
    left_ -= n;
    return true;
  }

  /// Bytes not yet read.
  size_t remaining() const { return left_; }

 private:
  const uint8_t* at_;
  size_t left_;
};

}  // namespace mars

#endif  // MARS_COMMON_BINARY_IO_H_
