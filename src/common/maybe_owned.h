// Owned-or-borrowed flat buffers: the mapped-index counterpart of the
// FacetStore BorrowConst idiom, for plain std::vector-shaped state.
//
// The ANN index (ann/ivf_index.h) keeps its state in flat contiguous
// arrays — exactly the shape a mapped index file exposes read-only.
// MaybeOwned<T> lets one member serve both lifecycles:
// a freshly built index owns a std::vector<T>; an index loaded with
// LoadCandidateIndexMapped borrows a const span of the mapping (whose
// lifetime the holder pins with a keepalive shared_ptr, same contract as
// the borrowed FacetStores of LoadMarsMapped). The read surface
// (data/size/operator[]/span) is identical either way, so probe code
// cannot tell the difference — the bit-identity property the mapped-index
// tests pin.
//
// Mutation is owned-only: mutable_vec()/mutable_data() assert on a
// borrowed buffer, and EnsureOwned() is the copy-on-write step — Rebuilt
// on a mapped index materializes exactly the arrays it must write and
// leaves the rest (e.g. the IVF centroids) borrowed from the mapping.
#ifndef MARS_COMMON_MAYBE_OWNED_H_
#define MARS_COMMON_MAYBE_OWNED_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.h"

namespace mars {

template <typename T>
class MaybeOwned {
 public:
  MaybeOwned() = default;

  /// Copying a borrowed buffer copies the pointer, not the payload — the
  /// holder must carry the keepalive along (SphericalIvfIndex does).
  MaybeOwned(const MaybeOwned&) = default;
  MaybeOwned& operator=(const MaybeOwned&) = default;
  MaybeOwned(MaybeOwned&&) = default;
  MaybeOwned& operator=(MaybeOwned&&) = default;

  /// Points this buffer at caller-owned storage (drops any owned payload).
  void Borrow(const T* data, size_t size) {
    owned_.clear();
    owned_.shrink_to_fit();
    borrowed_data_ = data;
    borrowed_size_ = size;
    borrowed_ = true;
  }

  bool borrowed() const { return borrowed_; }

  // Read surface — identical for owned and borrowed buffers.
  const T* data() const { return borrowed_ ? borrowed_data_ : owned_.data(); }
  size_t size() const { return borrowed_ ? borrowed_size_ : owned_.size(); }
  bool empty() const { return size() == 0; }
  const T& operator[](size_t i) const { return data()[i]; }
  std::span<const T> span() const { return {data(), size()}; }

  // Write surface — owned buffers only (a mapped region is immutable).
  std::vector<T>& mutable_vec() {
    MARS_CHECK_MSG(!borrowed_, "mutating a borrowed (mapped) buffer");
    return owned_;
  }
  T* mutable_data() { return mutable_vec().data(); }

  /// Copy-on-write: a borrowed buffer becomes an owned copy; an owned
  /// buffer is untouched. After this, the write surface is usable.
  void EnsureOwned() {
    if (!borrowed_) return;
    owned_.assign(borrowed_data_, borrowed_data_ + borrowed_size_);
    borrowed_data_ = nullptr;
    borrowed_size_ = 0;
    borrowed_ = false;
  }

 private:
  std::vector<T> owned_;
  const T* borrowed_data_ = nullptr;
  size_t borrowed_size_ = 0;
  bool borrowed_ = false;
};

}  // namespace mars

#endif  // MARS_COMMON_MAYBE_OWNED_H_
