#include "core/persistence.h"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
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
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
  const auto mapped = LoadMarsMapped(path_);
  ASSERT_NE(mapped, nullptr);
  const auto loaded = mapped->ServingSnapshot();
  EXPECT_FALSE(loaded->mapped());
  for (UserId u = 0; u < 20; ++u) {
    for (ItemId v = 0; v < 20; ++v) {
      EXPECT_FLOAT_EQ(loaded->Score(u, v), model_->Score(u, v));
    }
  }
}

TEST_F(PersistenceFixture, RoundTripPreservesMetadata) {
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
  const auto mapped = LoadMarsMapped(path_);
  ASSERT_NE(mapped, nullptr);
  const auto loaded = mapped->ServingSnapshot();
  EXPECT_FALSE(loaded->mapped());
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
  EXPECT_FALSE(SaveMarsV3(unfit, path_));
}

TEST_F(PersistenceFixture, LoadRejectsMissingFile) {
  EXPECT_EQ(LoadMarsMapped("/no/such/model.bin"), nullptr);
}

TEST_F(PersistenceFixture, LoadRejectsGarbage) {
  {
    std::ofstream f(path_, std::ios::binary);
    f << "this is not a MARS model";
  }
  EXPECT_EQ(LoadMarsMapped(path_), nullptr);
}

TEST_F(PersistenceFixture, LoadRejectsTruncatedPayload) {
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
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
  EXPECT_EQ(LoadMarsMapped(path_), nullptr);
}

TEST_F(PersistenceFixture, RoundTripUnpaddedDim) {
  // dim 16 is a cache-line multiple, so the rows carry no padding.
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 2;
  cfg.theta_nmf_iterations = 3;
  Mars dense_model(cfg);
  TrainOptions opts;
  opts.epochs = 2;
  opts.learning_rate = 0.2;
  dense_model.Fit(*split_.train, opts);
  ASSERT_TRUE(SaveMarsV3(dense_model, path_));
  const auto mapped = LoadMarsMapped(path_);
  ASSERT_NE(mapped, nullptr);
  const auto loaded = mapped->ServingSnapshot();
  EXPECT_FALSE(loaded->mapped());
  for (UserId u = 0; u < 10; ++u) {
    for (ItemId v = 0; v < 10; ++v) {
      EXPECT_FLOAT_EQ(loaded->Score(u, v), dense_model.Score(u, v));
    }
  }
}

TEST_F(PersistenceFixture, LoadRejectsOverflowingEntityCounts) {
  // A crafted header with an absurd n_users must be rejected before any
  // tensor allocation or per-row read happens.
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
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
  EXPECT_EQ(LoadMarsMapped(path_), nullptr);
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
  const auto mapped = LoadMarsMapped(path_);
  ASSERT_NE(mapped, nullptr);
  const auto loaded = mapped->ServingSnapshot();
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
  // The metadata tails (Θ logits, margins) are borrowed from the mapping,
  // like the facet stores, and must match too.
  for (UserId u = 0; u < 10; ++u) {
    EXPECT_EQ(mapped->MarginOf(u), model_->MarginOf(u));
    const auto a = mapped->FacetWeights(u);
    const auto b = model_->FacetWeights(u);
    for (size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k], b[k]);
  }
}

TEST_F(PersistenceFixture, V3MappedStoresMatchOwnedRowForRow) {
  // Both borrowed tensors hold the owned stores' bytes, every facet row of
  // every user and item.
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
  const auto mapped = LoadMarsMapped(path_);
  ASSERT_NE(mapped, nullptr);
  ASSERT_TRUE(mapped->mapped());
  const size_t row_bytes = 12 * sizeof(float);
  for (size_t k = 0; k < 3; ++k) {
    for (UserId u = 0; u < 80; ++u) {
      ASSERT_EQ(std::memcmp(mapped->UserFacetEmbedding(u, k).data(),
                            model_->UserFacetEmbedding(u, k).data(),
                            row_bytes),
                0)
          << "user " << u << " facet " << k;
    }
    for (ItemId v = 0; v < 120; ++v) {
      ASSERT_EQ(std::memcmp(mapped->ItemFacetEmbedding(v, k).data(),
                            model_->ItemFacetEmbedding(v, k).data(),
                            row_bytes),
                0)
          << "item " << v << " facet " << k;
    }
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
  // Version 2, the packed format earlier releases wrote, is not read: a v3
  // file relabelled as version 2 is rejected.
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
  const std::string v3 = Slurp(path_);
  std::string v2 = v3;
  const uint32_t version2 = 2;
  std::memcpy(v2.data() + 4, &version2, 4);
  Spit(path_, v2);
  EXPECT_EQ(LoadMarsMapped(path_), nullptr);
  Spit(path_, v3);
  EXPECT_NE(LoadMarsMapped(path_), nullptr);
}

TEST_F(PersistenceFixture, LoadersRejectOtherVersions) {
  // v3 is the only format: a v3 file relabelled as version 1 (the
  // facet-major format of the first release) or as a future 4 is rejected
  // before any other field is trusted. Version 2 is MappedLoadRejectsV2Files.
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
  const std::string v3 = Slurp(path_);
  for (const uint32_t version : {1u, 4u}) {
    std::string bytes = v3;
    std::memcpy(bytes.data() + 4, &version, 4);
    Spit(path_, bytes);
    EXPECT_EQ(LoadMarsMapped(path_), nullptr) << "version " << version;
  }
  Spit(path_, v3);
  EXPECT_NE(LoadMarsMapped(path_), nullptr);
}

TEST_F(PersistenceFixture, V3LoadersRejectTruncatedPayload) {
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
  const std::string bytes = Slurp(path_);
  // Cut inside the item tensor: header parses, payload doesn't.
  Spit(path_, bytes.substr(0, bytes.size() / 2));
  EXPECT_EQ(LoadMarsMapped(path_), nullptr);
  // Cut inside the header.
  Spit(path_, bytes.substr(0, 60));
  EXPECT_EQ(LoadMarsMapped(path_), nullptr);
  // Cut inside the tail (the mapped loader borrows it with bounds checks).
  Spit(path_, bytes.substr(0, bytes.size() - 16));
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
  EXPECT_EQ(LoadMarsMapped(path_), nullptr);
}

TEST_F(PersistenceFixture, LoadersRejectHugeShapeOnTinyFile) {
  // A crafted header whose shape passes the plausibility bounds but
  // implies hundreds of GB must be rejected against the actual file size
  // — cleanly, before any allocation is sized to header fields.
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
  std::string bytes = Slurp(path_);
  const uint64_t huge_users = 1ull << 30;  // plausible (< 2^31), enormous
  std::memcpy(bytes.data() + 24, &huge_users, 8);
  Spit(path_, bytes);
  EXPECT_EQ(LoadMarsMapped(path_), nullptr);
}

TEST_F(PersistenceFixture, V3LoadersRejectImplausibleShape) {
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
  std::string bytes = Slurp(path_);
  const uint64_t huge = ~0ull;
  std::memcpy(bytes.data() + 24, &huge, 8);  // n_users
  Spit(path_, bytes);
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
  ASSERT_TRUE(SaveMarsV3(radius_model, path_));
  const auto mapped = LoadMarsMapped(path_);
  ASSERT_NE(mapped, nullptr);
  const auto loaded = mapped->ServingSnapshot();
  EXPECT_FALSE(loaded->mapped());
  ASSERT_EQ(loaded->FacetRadii().size(), 2u);
  EXPECT_FLOAT_EQ(loaded->FacetRadii()[0], radius_model.FacetRadii()[0]);
  EXPECT_FLOAT_EQ(loaded->FacetRadii()[1], radius_model.FacetRadii()[1]);
  EXPECT_TRUE(loaded->mars_options().learn_radius);
}

/// Scores of `a` and `b` over the whole catalog, compared bit for bit.
void ExpectBitIdenticalScores(const Mars& a, const Mars& b, size_t n_users,
                              size_t n_items) {
  std::vector<float> sa(n_items), sb(n_items);
  for (UserId u = 0; u < n_users; ++u) {
    a.ScoreItemRange(u, 0, n_items, sa.data());
    b.ScoreItemRange(u, 0, n_items, sb.data());
    ASSERT_EQ(std::memcmp(sa.data(), sb.data(), n_items * sizeof(float)), 0)
        << "user " << u;
  }
}

TEST_F(PersistenceFixture, V3MutationsLoadNothingOrAgree) {
  // The model file is a trust boundary: arbitrary bytes must be rejected
  // cleanly. Start from a small v3 file and corrupt it: every single-bit
  // flip across the 128-byte header and the num_margins word, seeded
  // multi-bit flips over the same bits, a self-consistent header that
  // outgrows the file, and every truncation length. The loader must
  // return null, or a mapped model whose owned copy (ServingSnapshot)
  // scores bit for bit alike (a flip in a reserved byte, a flag, or a dim
  // that keeps the row stride still loads).
  SyntheticConfig data_cfg;
  data_cfg.num_users = 8;
  data_cfg.num_items = 10;
  data_cfg.target_interactions = 60;
  data_cfg.seed = 5;
  const auto data = GenerateSyntheticDataset(data_cfg);
  MultiFacetConfig cfg;
  cfg.dim = 6;
  cfg.num_facets = 2;
  cfg.theta_nmf_iterations = 3;
  Mars small(cfg);
  TrainOptions opts;
  opts.epochs = 1;
  small.Fit(*data, opts);
  ASSERT_TRUE(SaveMarsV3(small, path_));
  const std::string original = Slurp(path_);

  uint64_t tail_offset = 0;
  std::memcpy(&tail_offset, original.data() + 72, 8);
  const size_t margins_word = tail_offset + (8 * 2 + 2) * sizeof(float);
  ASSERT_EQ(margins_word + 8 + 8 * sizeof(float), original.size());
  std::vector<size_t> bits;  // byte * 8 + bit
  for (size_t b = 0; b < 128 * 8; ++b) bits.push_back(b);
  for (size_t b = 0; b < 64; ++b) bits.push_back(margins_word * 8 + b);

  size_t loaded = 0, rejected = 0;
  const auto check = [&](const std::string& bytes) {
    Spit(path_, bytes);
    const auto mapped = LoadMarsMapped(path_);
    if (mapped == nullptr) {
      ++rejected;
      return;
    }
    ++loaded;
    ExpectBitIdenticalScores(*mapped->ServingSnapshot(), *mapped, 8, 10);
  };
  const auto flip = [](std::string* bytes, size_t bit) {
    (*bytes)[bit / 8] = static_cast<char>((*bytes)[bit / 8] ^ (1 << (bit % 8)));
  };
  for (const size_t bit : bits) {
    std::string bytes = original;
    flip(&bytes, bit);
    ASSERT_NO_FATAL_FAILURE(check(bytes)) << "bit " << bit;
  }
  uint64_t state = 20210314;
  for (int trial = 0; trial < 128; ++trial) {
    std::string bytes = original;
    const int n_flips = 2 + static_cast<int>(SplitMix64(&state) % 3);
    for (int f = 0; f < n_flips; ++f) {
      flip(&bytes, bits[SplitMix64(&state) % bits.size()]);
    }
    ASSERT_NO_FATAL_FAILURE(check(bytes)) << "trial " << trial;
  }
  EXPECT_GT(loaded, 0u);
  EXPECT_GT(rejected, 0u);

  // A header whose fields agree with each other but promise a catalog far
  // larger than the file: only the file size can reject it.
  {
    std::string bytes = original;
    const uint64_t n_items = 1ull << 31, stride = 16;
    uint64_t item_offset = 0;
    std::memcpy(&item_offset, bytes.data() + 64, 8);
    const uint64_t tail = item_offset + n_items * 2 * stride * sizeof(float);
    std::memcpy(bytes.data() + 32, &n_items, 8);
    std::memcpy(bytes.data() + 72, &tail, 8);
    Spit(path_, bytes);
    EXPECT_EQ(LoadMarsMapped(path_), nullptr);
  }

  // Cut the file back one byte at a time, from one byte short to empty.
  Spit(path_, original);
  for (size_t len = original.size(); len-- > 0;) {
    ASSERT_EQ(::truncate(path_.c_str(), static_cast<off_t>(len)), 0);
    ASSERT_EQ(LoadMarsMapped(path_), nullptr) << "len " << len;
  }
}

TEST_F(PersistenceFixture, V3MappedModelResavesTheSameBytes) {
  // Θ and the margins of a mapped model are views of the file's tail:
  // saving the mapped model writes them back from the views, so the new
  // file equals the old one byte for byte, and its owned copy scores bit
  // for bit like it — after the mapping is gone too, so the copy owns
  // every byte it reads.
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
  auto mapped = LoadMarsMapped(path_);
  ASSERT_NE(mapped, nullptr);
  const std::string resaved = path_ + ".resaved";
  ASSERT_TRUE(SaveMarsV3(*mapped, resaved));
  EXPECT_EQ(Slurp(resaved), Slurp(path_));
  std::remove(resaved.c_str());

  const auto owned = mapped->ServingSnapshot();
  EXPECT_FALSE(owned->mapped());
  ExpectBitIdenticalScores(*owned, *mapped, 80, 120);
  mapped.reset();
  ExpectBitIdenticalScores(*owned, *model_, 80, 120);
  for (UserId u = 0; u < 80; ++u) {
    EXPECT_EQ(owned->MarginOf(u), model_->MarginOf(u)) << "user " << u;
    EXPECT_EQ(owned->FacetWeights(u), model_->FacetWeights(u)) << "user " << u;
  }
}

TEST_F(PersistenceFixture, V3CutInsideThetaOrMarginsLoadsNothing) {
  // The tail is Θ (80 users x 3 facets), the radii (3), the margin count
  // (u64) and the margins (80). A cut anywhere in it must load nothing,
  // and the file loads again once whole.
  ASSERT_TRUE(SaveMarsV3(*model_, path_));
  const std::string bytes = Slurp(path_);
  uint64_t tail_offset = 0;
  std::memcpy(&tail_offset, bytes.data() + 72, 8);
  const size_t theta_end = tail_offset + 80 * 3 * sizeof(float);
  const size_t margins_at = theta_end + 3 * sizeof(float) + 8;
  ASSERT_EQ(margins_at + 80 * sizeof(float), bytes.size());
  for (const size_t len :
       {static_cast<size_t>(tail_offset) + 4, theta_end - 1, theta_end + 4,
        margins_at - 4, margins_at + 4, bytes.size() - 1}) {
    Spit(path_, bytes.substr(0, len));
    EXPECT_EQ(LoadMarsMapped(path_), nullptr) << "cut at " << len;
  }
  Spit(path_, bytes);
  EXPECT_NE(LoadMarsMapped(path_), nullptr);
}

}  // namespace
}  // namespace mars
