#include "common/mapped_file.h"

#include <gtest/gtest.h>

#include "common/facet_store.h"

namespace mars {
namespace {

// The mapped-store contract itself (a v3 tensor region borrowed in place,
// row for row equal to the owned store) is pinned in
// tests/core/persistence_test.cc, where LoadMarsMapped builds it.
struct MappedStoreFixture : public ::testing::Test {};

TEST_F(MappedStoreFixture, RowStrideForMatchesOwnedStores) {
  // The stride a v3 file must carry is the one an owned store allocates.
  EXPECT_EQ(FacetStore::RowStrideFor(12), FacetStore(7, 2, 12).row_stride());
  EXPECT_EQ(FacetStore::RowStrideFor(16), 16u);
  EXPECT_EQ(FacetStore::RowStrideFor(17), 32u);
  EXPECT_EQ(FacetStore::RowStrideFor(1), 16u);
}

TEST_F(MappedStoreFixture, OpenRejectsMissingFile) {
  EXPECT_EQ(MappedFile::Open("/no/such/mapped_file.bin"), nullptr);
}

}  // namespace
}  // namespace mars
