// Read-only mmap of a whole file, for the loaders that parse in place.
//
// A format-v3 snapshot (docs/FORMAT.md, core/persistence.h) writes its
// facet tensors with the *exact* in-memory FacetStore layout: rows padded
// to the 64-byte-aligned stride, each tensor starting on a 64-byte file
// offset. Because mmap returns page-aligned (≥ 4096-byte) addresses, a
// 64-byte file offset is a 64-byte memory address, so the payload region of
// a mapped v3 file *is* a valid FacetStore buffer — LoadMarsMapped borrows
// it with FacetStore::BorrowConst instead of deserializing a copy. The
// candidate-index and sidecar loaders map their files the same way.
//
// Lifetime contract: anything that captured a raw pointer into the mapping
// (a borrowed FacetStore, a serving model from LoadMarsMapped, a mapped
// index) must not outlive the MappedFile — holders keep the shared_ptr
// alive for exactly that reason. The mapping is immutable; writing through
// it faults.
#ifndef MARS_COMMON_MAPPED_FILE_H_
#define MARS_COMMON_MAPPED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace mars {

/// Read-only memory-mapped file (RAII). Non-copyable, non-movable — hand
/// out shared_ptr<MappedFile> instead.
class MappedFile {
 public:
  /// Maps `path` read-only. Returns nullptr (with an error log) when the
  /// file cannot be opened, stat'd, or mapped. Empty files map to a valid
  /// object with size() == 0.
  static std::shared_ptr<MappedFile> Open(const std::string& path);

  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  MappedFile(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace mars

#endif  // MARS_COMMON_MAPPED_FILE_H_
