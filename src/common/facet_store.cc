#include "common/facet_store.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace mars {

FacetStore::FacetStore(size_t num_entities, size_t num_facets, size_t dim)
    : num_entities_(num_entities), num_facets_(num_facets), dim_(dim) {
  MARS_CHECK(num_facets >= 1);
  MARS_CHECK(dim >= 1);
  row_stride_ = RowStrideFor(dim);
  data_.assign(num_entities * num_facets * row_stride_, 0.0f);
}

FacetStore FacetStore::BorrowConst(const float* base, size_t num_entities,
                                   size_t num_facets, size_t dim,
                                   size_t row_stride) {
  MARS_CHECK(base != nullptr);
  MARS_CHECK(num_facets >= 1);
  MARS_CHECK(dim >= 1);
  MARS_CHECK(row_stride >= dim);
  MARS_CHECK(row_stride * sizeof(float) % kRowAlignBytes == 0);
  MARS_CHECK(reinterpret_cast<uintptr_t>(base) % kRowAlignBytes == 0);
  FacetStore store;
  store.num_entities_ = num_entities;
  store.num_facets_ = num_facets;
  store.dim_ = dim;
  store.row_stride_ = row_stride;
  store.borrowed_base_ = base;
  store.borrowed_ = true;
  return store;
}

FacetStore FacetStore::OwnedCopy() const {
  FacetStore copy;
  copy.num_entities_ = num_entities_;
  copy.num_facets_ = num_facets_;
  copy.dim_ = dim_;
  copy.row_stride_ = row_stride_;
  const float* src = cdata();
  copy.data_.assign(src, src + num_entities_ * entity_stride());
  return copy;
}

void FacetStore::CopyEntityTo(size_t e, float* out) const {
  if (row_stride_ == dim_) {
    std::memcpy(out, EntityBlock(e), num_facets_ * dim_ * sizeof(float));
    return;
  }
  for (size_t k = 0; k < num_facets_; ++k) {
    std::memcpy(out + k * dim_, Row(e, k), dim_ * sizeof(float));
  }
}

void FacetStore::Fill(float value) {
  MARS_CHECK(!borrowed_);
  std::fill(data_.begin(), data_.end(), value);
}

std::pair<size_t, size_t> FacetStore::ShardRange(size_t num_entities,
                                                 size_t shard,
                                                 size_t num_shards) {
  MARS_CHECK(num_shards >= 1);
  MARS_CHECK(shard < num_shards);
  const size_t base = num_entities / num_shards;
  const size_t rem = num_entities % num_shards;
  const size_t begin = shard * base + std::min(shard, rem);
  const size_t end = begin + base + (shard < rem ? 1 : 0);
  return {begin, end};
}

size_t FacetStore::ShardOf(size_t num_entities, size_t e, size_t num_shards) {
  MARS_CHECK(num_shards >= 1);
  MARS_CHECK(e < num_entities);
  const size_t base = num_entities / num_shards;
  const size_t rem = num_entities % num_shards;
  // The first `rem` shards hold base+1 entities, the rest hold base.
  const size_t big_total = rem * (base + 1);
  if (e < big_total) return e / (base + 1);
  return rem + (e - big_total) / base;
}

}  // namespace mars
