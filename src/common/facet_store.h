// Contiguous multi-facet embedding storage.
//
// One buffer holds every facet embedding of every entity in
// [entity][facet][dim] order, so the training hot path — which always
// touches all K facet rows of the same entity (u, v⁺, v⁻) — reads one
// contiguous block per entity instead of K rows scattered across K separate
// Matrix allocations. Rows are padded to a 64-byte multiple (`row_stride()`
// floats) and the buffer itself is 64-byte aligned, so every facet row
// starts on a cache-line boundary; kernels (common/kernels.h) take the
// stride explicitly and ignore the zeroed padding.
#ifndef MARS_COMMON_FACET_STORE_H_
#define MARS_COMMON_FACET_STORE_H_

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

#include "common/check.h"

namespace mars {

/// Minimal aligned allocator so std::vector storage lands on a cache-line
/// boundary (value semantics of the store stay trivial).
template <typename T, std::size_t Alignment>
struct AlignedAllocator {
  using value_type = T;

  /// Non-type template parameters defeat allocator_traits' automatic
  /// rebind; spell it out.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t n) {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Alignment));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const {
    return true;
  }
};

/// Contiguous [entity][facet][dim] store with cache-line-aligned rows.
///
/// Two storage modes share the same read surface:
///   - *owned* (the default): the store allocates and may be written —
///     training and serving snapshots (OwnedCopy) use this;
///   - *borrowed* (BorrowConst): the store is a read-only view over
///     external memory with exactly this layout — e.g. the payload region
///     of an mmap'd format-v3 snapshot (core/persistence.h). Borrowed
///     stores never own or free the bytes; the caller keeps the backing
///     mapping alive. Mutable accessors on a borrowed store are a
///     programming error and abort (MARS_CHECK — the external bytes are
///     never writable through this class). Copies of a borrowed store are
///     further borrowed views of the same memory; OwnedCopy makes an
///     owned one.
class FacetStore {
 public:
  /// Rows are padded to this many bytes.
  static constexpr size_t kRowAlignBytes = 64;

  /// Row stride (in floats) an owned store uses for dimension `dim`: the
  /// smallest kRowAlignBytes multiple holding `dim` floats. Exposed so the
  /// persistence layer can write/validate the exact in-memory stride.
  static size_t RowStrideFor(size_t dim) {
    constexpr size_t kAlignFloats = kRowAlignBytes / sizeof(float);
    return (dim + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
  }

  FacetStore() = default;
  FacetStore(size_t num_entities, size_t num_facets, size_t dim);

  /// Borrowed read-only store over `base`, which must hold
  /// `num_entities * num_facets * row_stride` floats laid out exactly like
  /// an owned store ([entity][facet][dim] with `row_stride`-float rows).
  /// Requirements (checked): `base` is kRowAlignBytes-aligned, `row_stride`
  /// is a whole multiple of kRowAlignBytes and >= dim. The caller owns the
  /// lifetime of `base` (LoadMarsMapped pins its MappedFile).
  static FacetStore BorrowConst(const float* base, size_t num_entities,
                                size_t num_facets, size_t dim,
                                size_t row_stride);

  /// An owned copy of this store (one allocation, one copy of the
  /// buffer), whether this store owns its bytes or borrows them.
  FacetStore OwnedCopy() const;

  size_t num_entities() const { return num_entities_; }
  size_t num_facets() const { return num_facets_; }
  size_t dim() const { return dim_; }
  bool empty() const { return num_entities_ == 0; }

  /// True for a BorrowConst store (read-only, externally owned memory).
  bool borrowed() const { return borrowed_; }

  /// Floats between consecutive facet rows (>= dim, 16-float multiple).
  size_t row_stride() const { return row_stride_; }
  /// Floats between consecutive entity blocks (num_facets * row_stride).
  size_t entity_stride() const { return num_facets_ * row_stride_; }

  /// Facet row `k` of entity `e` (dim valid floats, padding after).
  /// Mutable accessors require an owned store (always checked: on a
  /// borrowed store they would not point into the external bytes at all).
  float* Row(size_t e, size_t k) {
    MARS_CHECK(!borrowed_);
    MARS_DCHECK(e < num_entities_ && k < num_facets_);
    return data_.data() + e * entity_stride() + k * row_stride_;
  }
  const float* Row(size_t e, size_t k) const {
    MARS_DCHECK(e < num_entities_ && k < num_facets_);
    return cdata() + e * entity_stride() + k * row_stride_;
  }

  /// All K facet rows of entity `e` as one contiguous (padded) block.
  float* EntityBlock(size_t e) {
    MARS_CHECK(!borrowed_);
    MARS_DCHECK(e < num_entities_);
    return data_.data() + e * entity_stride();
  }
  const float* EntityBlock(size_t e) const {
    MARS_DCHECK(e < num_entities_);
    return cdata() + e * entity_stride();
  }

  /// Copies entity `e` into a dense K×dim buffer (padding stripped).
  void CopyEntityTo(size_t e, float* out) const;

  /// Sets every element (padding included) to `value`.
  void Fill(float value);

  /// Balanced entity range of shard `shard` out of `num_shards`:
  /// the first (num_entities % num_shards) shards get one extra entity.
  /// Returns {begin, end}; ranges of consecutive shards tile
  /// [0, num_entities) exactly. `num_shards` may exceed num_entities
  /// (trailing shards come back empty). Entity blocks are whole multiples
  /// of the 64-byte row stride, so every shard starts on a cache line and
  /// writers of disjoint shards never share one.
  static std::pair<size_t, size_t> ShardRange(size_t num_entities,
                                              size_t shard, size_t num_shards);

  /// Inverse of ShardRange: the shard of `num_shards` whose range contains
  /// entity `e`. Used by the serving layer to map a dirtied row back to the
  /// shard-granular invalidation unit.
  static size_t ShardOf(size_t num_entities, size_t e, size_t num_shards);

 private:
  /// Read-side base pointer: the allocation when owned, the external
  /// buffer when borrowed.
  const float* cdata() const {
    return borrowed_ ? borrowed_base_ : data_.data();
  }

  size_t num_entities_ = 0;
  size_t num_facets_ = 0;
  size_t dim_ = 0;
  size_t row_stride_ = 0;
  std::vector<float, AlignedAllocator<float, kRowAlignBytes>> data_;
  // BorrowConst mode: external read-only base, not owned.
  const float* borrowed_base_ = nullptr;
  bool borrowed_ = false;
};

}  // namespace mars

#endif  // MARS_COMMON_FACET_STORE_H_
