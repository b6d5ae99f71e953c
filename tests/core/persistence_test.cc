#include "core/persistence.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"

namespace mars {
namespace {

struct PersistenceFixture : public ::testing::Test {
  void SetUp() override {
    SyntheticConfig cfg;
    cfg.num_users = 80;
    cfg.num_items = 120;
    cfg.target_interactions = 1200;
    cfg.seed = 91;
    full_ = GenerateSyntheticDataset(cfg);
    split_ = MakeLeaveOneOutSplit(*full_, 3);

    MultiFacetConfig mcfg;
    mcfg.dim = 12;
    mcfg.num_facets = 3;
    mcfg.theta_nmf_iterations = 5;
    model_ = std::make_unique<Mars>(mcfg);
    TrainOptions opts;
    opts.epochs = 4;
    opts.learning_rate = 0.2;
    model_->Fit(*split_.train, opts);
    // Unique per test: ctest runs tests of one binary as parallel
    // processes, and a shared path would race.
    path_ = ::testing::TempDir() + "/mars_model_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bin";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::shared_ptr<ImplicitDataset> full_;
  LeaveOneOutSplit split_;
  std::unique_ptr<Mars> model_;
  std::string path_;
};

TEST_F(PersistenceFixture, RoundTripPreservesScores) {
  ASSERT_TRUE(SaveMars(*model_, path_));
  const auto loaded = LoadMars(path_);
  ASSERT_NE(loaded, nullptr);
  for (UserId u = 0; u < 20; ++u) {
    for (ItemId v = 0; v < 20; ++v) {
      EXPECT_FLOAT_EQ(loaded->Score(u, v), model_->Score(u, v));
    }
  }
}

TEST_F(PersistenceFixture, RoundTripPreservesMetadata) {
  ASSERT_TRUE(SaveMars(*model_, path_));
  const auto loaded = LoadMars(path_);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->config().num_facets, 3u);
  EXPECT_EQ(loaded->config().dim, 12u);
  for (UserId u = 0; u < 10; ++u) {
    EXPECT_FLOAT_EQ(loaded->MarginOf(u), model_->MarginOf(u));
    const auto a = loaded->FacetWeights(u);
    const auto b = model_->FacetWeights(u);
    for (size_t k = 0; k < a.size(); ++k) EXPECT_FLOAT_EQ(a[k], b[k]);
  }
  const auto ea = loaded->UserFacetEmbedding(3, 1);
  const auto eb = model_->UserFacetEmbedding(3, 1);
  for (size_t i = 0; i < ea.size(); ++i) EXPECT_FLOAT_EQ(ea[i], eb[i]);
}

TEST_F(PersistenceFixture, UnfitModelRefusesToSave) {
  MultiFacetConfig cfg;
  cfg.dim = 8;
  Mars unfit(cfg);
  EXPECT_FALSE(SaveMars(unfit, path_));
}

TEST_F(PersistenceFixture, LoadRejectsMissingFile) {
  EXPECT_EQ(LoadMars("/no/such/model.bin"), nullptr);
}

TEST_F(PersistenceFixture, LoadRejectsGarbage) {
  {
    std::ofstream f(path_, std::ios::binary);
    f << "this is not a MARS model";
  }
  EXPECT_EQ(LoadMars(path_), nullptr);
}

TEST_F(PersistenceFixture, LoadRejectsTruncatedPayload) {
  ASSERT_TRUE(SaveMars(*model_, path_));
  // Truncate to half.
  std::ifstream in(path_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_EQ(LoadMars(path_), nullptr);
}

TEST_F(PersistenceFixture, OldFormatV1StillLoads) {
  // Reconstruct a v1 file (facet-major tensors, the std::vector<Matrix>
  // era) from the v2 bytes and check the versioned load path transposes it
  // into the FacetStore bit-exactly.
  ASSERT_TRUE(SaveMars(*model_, path_));
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  auto u32 = [&](size_t off) {
    uint32_t v;
    std::memcpy(&v, bytes.data() + off, 4);
    return v;
  };
  auto u64 = [&](size_t off) {
    uint64_t v;
    std::memcpy(&v, bytes.data() + off, 8);
    return v;
  };
  ASSERT_EQ(u32(4), 2u) << "save should emit version 2";
  const size_t kf = u64(8), d = u64(16);
  const size_t n_users = u64(24), n_items = u64(32);
  const size_t header = 4 + 4 + 8 * 4 + 4 + 4;
  std::string v1 = bytes;
  const uint32_t version1 = 1;
  std::memcpy(v1.data() + 4, &version1, 4);
  // Transpose [entity][facet][dim] → [facet][entity][dim] per tensor.
  auto transpose = [&](size_t off, size_t entities) {
    for (size_t e = 0; e < entities; ++e) {
      for (size_t k = 0; k < kf; ++k) {
        std::memcpy(v1.data() + off + (k * entities + e) * d * 4,
                    bytes.data() + off + (e * kf + k) * d * 4, d * 4);
      }
    }
  };
  transpose(header, n_users);
  transpose(header + n_users * kf * d * 4, n_items);
  const std::string v1_path = ::testing::TempDir() + "/mars_model_v1.bin";
  {
    std::ofstream out(v1_path, std::ios::binary);
    out.write(v1.data(), static_cast<std::streamsize>(v1.size()));
  }
  const auto loaded = LoadMars(v1_path);
  std::remove(v1_path.c_str());
  ASSERT_NE(loaded, nullptr);
  for (UserId u = 0; u < 20; ++u) {
    for (ItemId v = 0; v < 20; ++v) {
      EXPECT_FLOAT_EQ(loaded->Score(u, v), model_->Score(u, v));
    }
  }
  const auto ea = loaded->UserFacetEmbedding(3, 1);
  const auto eb = model_->UserFacetEmbedding(3, 1);
  for (size_t i = 0; i < ea.size(); ++i) EXPECT_FLOAT_EQ(ea[i], eb[i]);
}

TEST_F(PersistenceFixture, RoundTripUnpaddedDim) {
  // dim 16 is a cache-line multiple, so the store has no row padding and
  // save/load take the dense bulk-I/O path instead of the per-row one.
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 2;
  cfg.theta_nmf_iterations = 3;
  Mars dense_model(cfg);
  TrainOptions opts;
  opts.epochs = 2;
  opts.learning_rate = 0.2;
  dense_model.Fit(*split_.train, opts);
  ASSERT_TRUE(SaveMars(dense_model, path_));
  const auto loaded = LoadMars(path_);
  ASSERT_NE(loaded, nullptr);
  for (UserId u = 0; u < 10; ++u) {
    for (ItemId v = 0; v < 10; ++v) {
      EXPECT_FLOAT_EQ(loaded->Score(u, v), dense_model.Score(u, v));
    }
  }
}

TEST_F(PersistenceFixture, LoadRejectsOverflowingEntityCounts) {
  // A crafted header with an absurd n_users must be rejected before any
  // tensor allocation or per-row read happens.
  ASSERT_TRUE(SaveMars(*model_, path_));
  std::string bytes;
  {
    std::ifstream in(path_, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  const uint64_t huge = ~0ull;
  std::memcpy(bytes.data() + 24, &huge, 8);  // n_users field
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_EQ(LoadMars(path_), nullptr);
}

// --- Format v3: aligned-stride snapshots + zero-copy mmap loading --------

/// Reads a whole file into a string (v3 byte-surgery helper).
std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void Spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(PersistenceFixture, V3HeaderLayoutIsPinned) {
  // The v3 header is an on-disk contract (docs/FORMAT.md): magic at 0,
  // version 3 at 4, shape at 8..40, flags at 40..48, stride and the three
  // region offsets at 48..80, payload at the 128-byte boundary.
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
  const std::string bytes = Slurp(path_);
  ASSERT_GE(bytes.size(), 128u);
  auto u32 = [&](size_t off) {
    uint32_t v;
    std::memcpy(&v, bytes.data() + off, 4);
    return v;
  };
  auto u64 = [&](size_t off) {
    uint64_t v;
    std::memcpy(&v, bytes.data() + off, 8);
    return v;
  };
  EXPECT_EQ(u32(0), 0x4D415253u);  // "MARS"
  EXPECT_EQ(u32(4), 3u);
  EXPECT_EQ(u64(8), 3u);    // num_facets
  EXPECT_EQ(u64(16), 12u);  // dim
  EXPECT_EQ(u64(24), 80u);  // users
  EXPECT_EQ(u64(32), 120u);  // items
  const uint64_t stride = u64(48);
  EXPECT_EQ(stride, FacetStore::RowStrideFor(12));
  EXPECT_EQ(u64(56), 128u);  // user tensor at the padded header boundary
  EXPECT_EQ(u64(56) % 64, 0u);
  EXPECT_EQ(u64(64), 128u + 80u * 3u * stride * 4u);
  EXPECT_EQ(u64(64) % 64, 0u);
  EXPECT_EQ(u64(72), u64(64) + 120u * 3u * stride * 4u);
}

TEST_F(PersistenceFixture, V3CopyLoadRoundTrips) {
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
  const auto loaded = LoadMars(path_);
  ASSERT_NE(loaded, nullptr);
  EXPECT_FALSE(loaded->mapped());
  for (UserId u = 0; u < 20; ++u) {
    for (ItemId v = 0; v < 20; ++v) {
      EXPECT_EQ(loaded->Score(u, v), model_->Score(u, v));
    }
  }
  for (UserId u = 0; u < 10; ++u) {
    EXPECT_FLOAT_EQ(loaded->MarginOf(u), model_->MarginOf(u));
  }
}

TEST_F(PersistenceFixture, V3MappedServesBitIdenticalScores) {
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
  const auto mapped = LoadMarsMapped(path_);
  ASSERT_NE(mapped, nullptr);
  EXPECT_TRUE(mapped->mapped());
  EXPECT_FALSE(model_->mapped());
  // The mapping holds the exact bytes of the owned tensors, and the score
  // kernels are shared, so every score is bit-identical — EXPECT_EQ, not
  // NEAR.
  for (UserId u = 0; u < 20; ++u) {
    for (ItemId v = 0; v < 20; ++v) {
      EXPECT_EQ(mapped->Score(u, v), model_->Score(u, v));
    }
  }
  // The serving adapter the TopKServer sweeps with, across the catalog.
  const size_t n_items = 120;
  std::vector<float> owned_scores(n_items), mapped_scores(n_items);
  for (UserId u : {0u, 7u, 79u}) {
    model_->ScoreItemRange(u, 0, n_items, owned_scores.data());
    mapped->ScoreItemRange(u, 0, n_items, mapped_scores.data());
    for (size_t v = 0; v < n_items; ++v) {
      EXPECT_EQ(mapped_scores[v], owned_scores[v]) << "u=" << u << " v=" << v;
    }
  }
  // Metadata tails are materialized, not mapped, but must match too.
  for (UserId u = 0; u < 10; ++u) {
    EXPECT_EQ(mapped->MarginOf(u), model_->MarginOf(u));
    const auto a = mapped->FacetWeights(u);
    const auto b = model_->FacetWeights(u);
    for (size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
  }
}

TEST_F(PersistenceFixture, V3MappedOutlivesTheLoadCall) {
  // The model must keep the mapping alive itself (keepalive member) — use
  // after the unique_ptr is the only reference.
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
  auto mapped = LoadMarsMapped(path_);
  ASSERT_NE(mapped, nullptr);
  const float expected = model_->Score(3, 5);
  std::remove(path_.c_str());  // mapping survives unlink
  EXPECT_EQ(mapped->Score(3, 5), expected);
}

TEST_F(PersistenceFixture, ResaveOverALiveV3MappingLeavesItIntact) {
  // Publishing a new snapshot over the path a live server has mapped must
  // not touch the mapped bytes: the saver replaces the file by rename, so
  // the mapping keeps the old inode, and the path then loads as the new
  // model.
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
  const auto mapped = LoadMarsMapped(path_);
  ASSERT_NE(mapped, nullptr);

  MultiFacetConfig mcfg;
  mcfg.dim = 12;
  mcfg.num_facets = 3;
  mcfg.theta_nmf_iterations = 5;
  Mars next(mcfg);
  TrainOptions opts;
  opts.epochs = 7;
  opts.learning_rate = 0.2;
  next.Fit(*split_.train, opts);
  ASSERT_TRUE(SaveMarsV3(next, path_));
  std::ifstream tmp(path_ + ".tmp");
  EXPECT_FALSE(tmp.is_open()) << "the temp file must not outlive the save";

  bool differs = false;
  for (UserId u = 0; u < 20; ++u) {
    for (ItemId v = 0; v < 20; ++v) {
      EXPECT_EQ(mapped->Score(u, v), model_->Score(u, v));
      differs = differs || next.Score(u, v) != model_->Score(u, v);
    }
  }
  ASSERT_TRUE(differs) << "the two models must be distinguishable";
  const auto reloaded = LoadMarsMapped(path_);
  ASSERT_NE(reloaded, nullptr);
  for (UserId u = 0; u < 20; ++u) {
    for (ItemId v = 0; v < 20; ++v) {
      EXPECT_EQ(reloaded->Score(u, v), next.Score(u, v));
    }
  }
}

TEST_F(PersistenceFixture, MappedLoadRejectsV2Files) {
  ASSERT_TRUE(SaveMars(*model_, path_));  // v2
  EXPECT_EQ(LoadMarsMapped(path_), nullptr);
  // ... but the copy loader takes it, per the compatibility matrix.
  EXPECT_NE(LoadMars(path_), nullptr);
}

TEST_F(PersistenceFixture, V3LoadersRejectTruncatedPayload) {
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
  const std::string bytes = Slurp(path_);
  // Cut inside the item tensor: header parses, payload doesn't.
  Spit(path_, bytes.substr(0, bytes.size() / 2));
  EXPECT_EQ(LoadMars(path_), nullptr);
  EXPECT_EQ(LoadMarsMapped(path_), nullptr);
  // Cut inside the header.
  Spit(path_, bytes.substr(0, 60));
  EXPECT_EQ(LoadMars(path_), nullptr);
  EXPECT_EQ(LoadMarsMapped(path_), nullptr);
  // Cut inside the tail (mapped loader materializes it with bounds checks).
  Spit(path_, bytes.substr(0, bytes.size() - 16));
  EXPECT_EQ(LoadMars(path_), nullptr);
  EXPECT_EQ(LoadMarsMapped(path_), nullptr);
}

TEST_F(PersistenceFixture, V3LoadersRejectWrongStride) {
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
  std::string bytes = Slurp(path_);
  uint64_t stride;
  std::memcpy(&stride, bytes.data() + 48, 8);
  const uint64_t wrong = stride + 16;  // aligned, but not the stride for d
  std::memcpy(bytes.data() + 48, &wrong, 8);
  Spit(path_, bytes);
  EXPECT_EQ(LoadMars(path_), nullptr);
  EXPECT_EQ(LoadMarsMapped(path_), nullptr);
}

TEST_F(PersistenceFixture, V3LoadersRejectMisalignedOffsets) {
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
  std::string bytes = Slurp(path_);
  // Shift all three region offsets by 4: self-consistent spacing, but the
  // tensors no longer start on the padded 64-byte boundaries.
  for (const size_t field : {56u, 64u, 72u}) {
    uint64_t v;
    std::memcpy(&v, bytes.data() + field, 8);
    v += 4;
    std::memcpy(bytes.data() + field, &v, 8);
  }
  Spit(path_, bytes);
  EXPECT_EQ(LoadMars(path_), nullptr);
  EXPECT_EQ(LoadMarsMapped(path_), nullptr);
}

TEST_F(PersistenceFixture, LoadersRejectHugeShapeOnTinyFile) {
  // A crafted header whose shape passes the plausibility bounds but
  // implies hundreds of GB must be rejected against the actual file size
  // — cleanly, before any allocation is sized to header fields.
  for (const bool v3 : {false, true}) {
    ASSERT_TRUE(v3 ? SaveMarsV3(*model_, path_) : SaveMars(*model_, path_));
    std::string bytes = Slurp(path_);
    const uint64_t huge_users = 1ull << 30;  // plausible (< 2^31), enormous
    std::memcpy(bytes.data() + 24, &huge_users, 8);
    Spit(path_, bytes);
    EXPECT_EQ(LoadMars(path_), nullptr) << "v3=" << v3;
    if (v3) EXPECT_EQ(LoadMarsMapped(path_), nullptr);
  }
}

TEST_F(PersistenceFixture, V3LoadersRejectImplausibleShape) {
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
  std::string bytes = Slurp(path_);
  const uint64_t huge = ~0ull;
  std::memcpy(bytes.data() + 24, &huge, 8);  // n_users
  Spit(path_, bytes);
  EXPECT_EQ(LoadMars(path_), nullptr);
  EXPECT_EQ(LoadMarsMapped(path_), nullptr);
}

TEST_F(PersistenceFixture, V3RoundTripsPaddedAndUnpaddedDims) {
  // dim 16 → stride 16 (no padding); dim 12 → stride 16 (padded rows).
  // Both must mmap-serve identically to their owned originals.
  for (const size_t dim : {12u, 16u}) {
    MultiFacetConfig cfg;
    cfg.dim = dim;
    cfg.num_facets = 2;
    cfg.theta_nmf_iterations = 3;
    Mars m(cfg);
    TrainOptions opts;
    opts.epochs = 2;
    opts.learning_rate = 0.2;
    m.Fit(*split_.train, opts);
    ASSERT_TRUE(SaveMarsV3(m, path_));
    const auto mapped = LoadMarsMapped(path_);
    ASSERT_NE(mapped, nullptr) << "dim=" << dim;
    for (UserId u = 0; u < 10; ++u) {
      for (ItemId v = 0; v < 10; ++v) {
        EXPECT_EQ(mapped->Score(u, v), m.Score(u, v)) << "dim=" << dim;
      }
    }
  }
}

TEST_F(PersistenceFixture, V3RadiiSurviveMappedLoad) {
  MultiFacetConfig cfg;
  cfg.dim = 12;
  cfg.num_facets = 2;
  cfg.theta_nmf_iterations = 3;
  MarsOptions mopts;
  mopts.learn_radius = true;
  Mars radius_model(cfg, mopts);
  TrainOptions opts;
  opts.epochs = 4;
  opts.learning_rate = 0.2;
  radius_model.Fit(*split_.train, opts);
  ASSERT_TRUE(SaveMarsV3(radius_model, path_));
  const auto mapped = LoadMarsMapped(path_);
  ASSERT_NE(mapped, nullptr);
  ASSERT_EQ(mapped->FacetRadii().size(), 2u);
  EXPECT_EQ(mapped->FacetRadii()[0], radius_model.FacetRadii()[0]);
  EXPECT_EQ(mapped->FacetRadii()[1], radius_model.FacetRadii()[1]);
  EXPECT_TRUE(mapped->mars_options().learn_radius);
}

TEST_F(PersistenceFixture, MappedModelRefusesToTrain) {
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
  const auto mapped = LoadMarsMapped(path_);
  ASSERT_NE(mapped, nullptr);
  TrainOptions opts;
  opts.epochs = 1;
  EXPECT_DEATH(mapped->Fit(*split_.train, opts), "mapped");
}

TEST_F(PersistenceFixture, RadiiSurviveRoundTrip) {
  MultiFacetConfig cfg;
  cfg.dim = 12;
  cfg.num_facets = 2;
  cfg.theta_nmf_iterations = 3;
  MarsOptions mopts;
  mopts.learn_radius = true;
  Mars radius_model(cfg, mopts);
  TrainOptions opts;
  opts.epochs = 4;
  opts.learning_rate = 0.2;
  radius_model.Fit(*split_.train, opts);
  ASSERT_TRUE(SaveMars(radius_model, path_));
  const auto loaded = LoadMars(path_);
  ASSERT_NE(loaded, nullptr);
  ASSERT_EQ(loaded->FacetRadii().size(), 2u);
  EXPECT_FLOAT_EQ(loaded->FacetRadii()[0], radius_model.FacetRadii()[0]);
  EXPECT_FLOAT_EQ(loaded->FacetRadii()[1], radius_model.FacetRadii()[1]);
  EXPECT_TRUE(loaded->mars_options().learn_radius);
}

}  // namespace
}  // namespace mars
