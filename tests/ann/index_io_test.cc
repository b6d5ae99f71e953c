// Persisted candidate-index coverage (ann/index_io.h): mapped probes are
// bit-identical to the freshly built index, Rebuilt() on a mapped index
// copies-on-write (IVF centroids stay borrowed from the mapping) and
// matches the owned rebuild, the mapping outlives the unlink, the load
// call and a re-save over its path, and every malformed file — truncation,
// bad magic/version/kind, wrong geometry/dim/count for the paired model,
// tampered region tables, checksum mismatches, implausible header-implied
// sizes, semantically corrupt payloads with *fixed-up* checksums — rejects
// with a clean nullptr, never a crash or an allocation blow-up. Seeded bit
// flips and every truncation load nothing or an index that probes like the
// original.
#include "ann/index_io.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "ann/ivf_index.h"
#include "common/crc32.h"
#include "common/facet_store.h"
#include "common/rng.h"
#include "common/vec.h"
#include "eval/scorer.h"
#include "serve/top_k_server.h"

namespace mars {
namespace {

/// Minimal dot-geometry oracle (the ivf_index_test shape): dense tables,
/// Score == dot, PerturbItems rewrites a contiguous id range.
class DotScorer : public ItemScorer {
 public:
  DotScorer(size_t users, size_t items, size_t dim, uint64_t seed)
      : dim_(dim), user_(users * dim), item_(items * dim) {
    Rng rng(seed);
    for (auto& x : user_) x = static_cast<float>(rng.Normal());
    for (auto& x : item_) x = static_cast<float>(rng.Normal());
  }

  float Score(UserId u, ItemId v) const override {
    return Dot(user_.data() + u * dim_, item_.data() + v * dim_, dim_);
  }
  size_t index_dim() const override { return dim_; }
  void CopyIndexVectors(ItemId begin, ItemId end, float* out) const override {
    Copy(item_.data() + begin * dim_, out, (end - begin) * dim_);
  }
  void WriteIndexQuery(UserId u, float* out) const override {
    Copy(user_.data() + u * dim_, out, dim_);
  }

  void PerturbItems(ItemId begin, ItemId end, uint64_t seed) {
    Rng rng(seed);
    for (size_t i = begin * dim_; i < end * dim_; ++i) {
      item_[i] = static_cast<float>(rng.Normal());
    }
  }

 private:
  size_t dim_;
  std::vector<float> user_, item_;
};

/// A model with no index vectors, index_dim() == 0 (the metric models'
/// case).
class NoGeometryScorer : public ItemScorer {
 public:
  float Score(UserId, ItemId v) const override {
    return static_cast<float>(v);
  }
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void PokeAt(std::string* bytes, size_t offset, T v) {
  ASSERT_LE(offset + sizeof(T), bytes->size());
  std::memcpy(bytes->data() + offset, &v, sizeof(T));
}

template <typename T>
T PeekAt(const std::string& bytes, size_t offset) {
  T v;
  std::memcpy(&v, bytes.data() + offset, sizeof(T));
  return v;
}

// Fixed-header byte offsets (pinned in docs/FORMAT.md): the fuzz tests
// poke these directly, so a silent layout change fails here first.
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 4;
constexpr size_t kOffKind = 8;
constexpr size_t kOffNumItems = 16;
constexpr size_t kOffParams = 32;
constexpr size_t kOffRegionTable = 72;
constexpr size_t kRegionEntryBytes = 24;
constexpr size_t kHeaderBytes = 192;

/// Probes both indexes over the same queries/wants and demands the exact
/// same candidate blocks (same ids, same order).
void ExpectProbesBitIdentical(const ItemScorer& model,
                              const SphericalIvfIndex& a,
                              const SphericalIvfIndex& b) {
  std::vector<float> query(a.dim());
  for (UserId u = 0; u < 10; ++u) {
    for (const size_t want : {size_t{3}, size_t{20}, size_t{64},
                              a.num_items() + 5}) {
      model.WriteIndexQuery(u, query.data());
      std::vector<ItemId> got_a, got_b;
      a.Probe(query.data(), want, &got_a);
      b.Probe(query.data(), want, &got_b);
      EXPECT_EQ(got_a, got_b) << "user " << u << " want " << want;
    }
  }
}

struct IndexIoFixture : public ::testing::Test {
  void SetUp() override {
    path_ = ::testing::TempDir() + "/mars_index_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".annidx";
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

constexpr size_t kItems = 300, kDim = 16, kShards = 8;

TEST_F(IndexIoFixture, IvfMappedProbesBitIdenticalToBuilt) {
  DotScorer model(12, kItems, kDim, 1);
  const auto built =
      SphericalIvfIndex::Build(model, kItems, AnnIndexOptions{}, nullptr);
  ASSERT_NE(built, nullptr);
  ASSERT_TRUE(SaveCandidateIndex(*built, path_));
  const auto mapped = LoadCandidateIndexMapped(path_, model, kItems);
  ASSERT_NE(mapped, nullptr);
  EXPECT_TRUE(mapped->mapped());
  EXPECT_FALSE(built->mapped());

  const auto& mivf = static_cast<const SphericalIvfIndex&>(*mapped);
  EXPECT_EQ(mivf.num_centroids(), built->num_centroids());
  EXPECT_EQ(mivf.nprobe(), built->nprobe());
  // The flat state round-trips bit for bit — probes over it then cannot
  // diverge, but check both layers anyway.
  EXPECT_TRUE(std::equal(mivf.centroids().begin(), mivf.centroids().end(),
                         built->centroids().begin()));
  EXPECT_TRUE(std::equal(mivf.assignments().begin(), mivf.assignments().end(),
                         built->assignments().begin()));
  EXPECT_TRUE(std::equal(mivf.offsets().begin(), mivf.offsets().end(),
                         built->offsets().begin()));
  EXPECT_TRUE(std::equal(mivf.list_ids().begin(), mivf.list_ids().end(),
                         built->list_ids().begin()));
  ExpectProbesBitIdentical(model, *built, *mapped);
}

TEST_F(IndexIoFixture, MappedIndexOutlivesUnlinkAndLoadCall) {
  DotScorer model(12, kItems, kDim, 3);
  const auto built =
      SphericalIvfIndex::Build(model, kItems, AnnIndexOptions{}, nullptr);
  ASSERT_TRUE(SaveCandidateIndex(*built, path_));
  const auto mapped = LoadCandidateIndexMapped(path_, model, kItems);
  ASSERT_NE(mapped, nullptr);
  // The consume-and-remove restart pattern: the mapping pins the pages.
  std::remove(path_.c_str());
  ExpectProbesBitIdentical(model, *built, *mapped);
}

TEST_F(IndexIoFixture, ResaveOverALiveMappingLeavesItIntact) {
  // Publishing a new index over the path a live server has mapped must
  // not touch the mapped bytes: the saver replaces the file by rename, so
  // the mapping keeps the old inode, and the path then loads as the new
  // index.
  DotScorer model_a(12, kItems, kDim, 11);
  DotScorer model_b(12, kItems, kDim, 12);
  const auto built_a =
      SphericalIvfIndex::Build(model_a, kItems, AnnIndexOptions{}, nullptr);
  const auto built_b =
      SphericalIvfIndex::Build(model_b, kItems, AnnIndexOptions{}, nullptr);
  ASSERT_FALSE(std::equal(built_a->centroids().begin(),
                          built_a->centroids().end(),
                          built_b->centroids().begin()));
  ASSERT_TRUE(SaveCandidateIndex(*built_a, path_));
  const auto mapped_a = LoadCandidateIndexMapped(path_, model_a, kItems);
  ASSERT_NE(mapped_a, nullptr);

  ASSERT_TRUE(SaveCandidateIndex(*built_b, path_));
  std::ifstream tmp(path_ + ".tmp");
  EXPECT_FALSE(tmp.is_open()) << "the temp file must not outlive the save";
  const auto& mivf = static_cast<const SphericalIvfIndex&>(*mapped_a);
  EXPECT_TRUE(std::equal(mivf.centroids().begin(), mivf.centroids().end(),
                         built_a->centroids().begin()));
  ExpectProbesBitIdentical(model_a, *built_a, *mapped_a);

  const auto mapped_b = LoadCandidateIndexMapped(path_, model_b, kItems);
  ASSERT_NE(mapped_b, nullptr);
  const auto& bivf = static_cast<const SphericalIvfIndex&>(*mapped_b);
  EXPECT_TRUE(std::equal(bivf.centroids().begin(), bivf.centroids().end(),
                         built_b->centroids().begin()));
  ExpectProbesBitIdentical(model_b, *built_b, *mapped_b);
}

TEST_F(IndexIoFixture, IvfRebuiltOnMappedCopiesOnWrite) {
  DotScorer model(12, kItems, kDim, 4);
  const auto built =
      SphericalIvfIndex::Build(model, kItems, AnnIndexOptions{}, nullptr);
  ASSERT_TRUE(SaveCandidateIndex(*built, path_));
  const auto mapped = LoadCandidateIndexMapped(path_, model, kItems);
  ASSERT_NE(mapped, nullptr);
  const auto& mivf = static_cast<const SphericalIvfIndex&>(*mapped);

  const std::vector<size_t> dirty = {1, 5};
  for (const size_t s : dirty) {
    const auto [begin, end] = FacetStore::ShardRange(kItems, s, kShards);
    model.PerturbItems(begin, end, 40 + s);
  }
  const auto from_mapped = mapped->Rebuilt(model, dirty, kShards, nullptr);
  const auto from_built = built->Rebuilt(model, dirty, kShards, nullptr);
  ASSERT_NE(from_mapped, nullptr);
  const auto& rivf = static_cast<const SphericalIvfIndex&>(*from_mapped);
  const auto& oivf = static_cast<const SphericalIvfIndex&>(*from_built);

  // Copy-on-write: only what the absorb must mutate is materialized —
  // the centroids are still the mapped bytes (same address), and the
  // keepalive carried over so the view cannot dangle.
  EXPECT_EQ(rivf.centroids().data(), mivf.centroids().data());
  EXPECT_NE(rivf.assignments().data(), mivf.assignments().data());
  EXPECT_TRUE(from_mapped->mapped());

  // ... and the result equals the rebuild of the owned index bit for bit.
  EXPECT_TRUE(std::equal(rivf.assignments().begin(), rivf.assignments().end(),
                         oivf.assignments().begin()));
  EXPECT_TRUE(std::equal(rivf.offsets().begin(), rivf.offsets().end(),
                         oivf.offsets().begin()));
  EXPECT_TRUE(std::equal(rivf.list_ids().begin(), rivf.list_ids().end(),
                         oivf.list_ids().begin()));
  ExpectProbesBitIdentical(model, *from_built, *from_mapped);

  // The mapped receiver is untouched (in-flight probes keep it) and the
  // mapping can be unlinked under the CoW child.
  EXPECT_TRUE(std::equal(mivf.centroids().begin(), mivf.centroids().end(),
                         built->centroids().begin()));
  std::remove(path_.c_str());
  std::vector<float> query(kDim);
  model.WriteIndexQuery(0, query.data());
  std::vector<ItemId> out;
  from_mapped->Probe(query.data(), 10, &out);
  EXPECT_GE(out.size(), 10u);  // IVF appends whole lists until covered
}

TEST_F(IndexIoFixture, MappedIndexServesThroughTopKServer) {
  // The AnnOptions::prebuilt plug: a server on the mapped index answers
  // bit-identically to one on the freshly built index, across misses,
  // hits, and an incremental AbsorbWrites (the CoW Rebuilt inside the
  // serving layer — the borrowed-view path ASAN must cover).
  auto model = std::make_shared<DotScorer>(24, kItems, kDim, 6);
  auto built = SphericalIvfIndex::Build(*model, kItems, AnnIndexOptions{},
                                        nullptr);
  ASSERT_TRUE(SaveCandidateIndex(*built, path_));
  const auto mapped = LoadCandidateIndexMapped(path_, *model, kItems);
  ASSERT_NE(mapped, nullptr);

  TopKServerOptions opts;
  opts.k = 7;
  opts.cache.item_shards = kShards;
  opts.ann.prebuilt = std::move(built);
  TopKServerOptions mopts = opts;
  mopts.ann.prebuilt = mapped;
  TopKServer owned_server(model, 24, kItems, opts);
  TopKServer mapped_server(model, 24, kItems, mopts);
  for (UserId u = 0; u < 12; ++u) {
    const TopKResponse a = owned_server.TopK(u);
    const TopKResponse b = mapped_server.TopK(u);
    EXPECT_EQ(a.items, b.items) << "user " << u;
    EXPECT_EQ(a.scores, b.scores) << "user " << u;
  }

  model->PerturbItems(0, kItems / kShards, 60);
  WriteTracker ta(24, kItems, kShards), tb(24, kItems, kShards);
  ta.MarkItem(0);
  tb.MarkItem(0);
  owned_server.AbsorbWrites(&ta);
  mapped_server.AbsorbWrites(&tb);
  for (UserId u = 0; u < 12; ++u) {
    const TopKResponse a = owned_server.TopK(u);
    const TopKResponse b = mapped_server.TopK(u);
    EXPECT_EQ(a.from_cache, b.from_cache) << "user " << u;
    EXPECT_EQ(a.items, b.items) << "user " << u;
    EXPECT_EQ(a.scores, b.scores) << "user " << u;
  }
}

// --- Rejection suite: every malformed file rejects with nullptr. ----------

struct IndexIoRejectFixture : public IndexIoFixture {
  void SetUp() override {
    IndexIoFixture::SetUp();
    model_ = std::make_unique<DotScorer>(12, kItems, kDim, 7);
    const auto built =
        SphericalIvfIndex::Build(*model_, kItems, AnnIndexOptions{}, nullptr);
    ASSERT_TRUE(SaveCandidateIndex(*built, path_));
    bytes_ = ReadFileBytes(path_);
    ASSERT_GE(bytes_.size(), kHeaderBytes);
  }

  /// Writes the (tampered) bytes back and expects a clean rejection.
  void ExpectRejected() {
    WriteFileBytes(path_, bytes_);
    EXPECT_EQ(LoadCandidateIndexMapped(path_, *model_, kItems), nullptr);
  }

  /// Recomputes region r's checksum over the tampered payload, so the
  /// loader's *semantic* validation — not the CRC — must catch it.
  void FixupCrc(size_t r) {
    const auto offset =
        PeekAt<uint64_t>(bytes_, kOffRegionTable + r * kRegionEntryBytes);
    const auto size =
        PeekAt<uint64_t>(bytes_, kOffRegionTable + r * kRegionEntryBytes + 8);
    PokeAt(&bytes_, kOffRegionTable + r * kRegionEntryBytes + 16,
           Crc32(reinterpret_cast<const uint8_t*>(bytes_.data()) + offset,
                 size));
  }

  std::unique_ptr<DotScorer> model_;
  std::string bytes_;
};

TEST_F(IndexIoRejectFixture, LoadRejectsMissingFile) {
  EXPECT_EQ(LoadCandidateIndexMapped("/no/such/index.annidx", *model_, kItems),
            nullptr);
}

TEST_F(IndexIoRejectFixture, LoadRejectsGarbage) {
  bytes_ = "this is not a candidate index";
  ExpectRejected();
}

TEST_F(IndexIoRejectFixture, LoadRejectsTruncatedHeader) {
  bytes_.resize(kHeaderBytes / 2);
  ExpectRejected();
}

TEST_F(IndexIoRejectFixture, LoadRejectsBadMagic) {
  PokeAt(&bytes_, kOffMagic, uint32_t{0x4953524Eu});
  ExpectRejected();
}

TEST_F(IndexIoRejectFixture, LoadRejectsFutureVersion) {
  PokeAt(&bytes_, kOffVersion, uint32_t{2});
  ExpectRejected();
}

TEST_F(IndexIoRejectFixture, LoadRejectsWrongKindForModelGeometry) {
  // A valid IVF file offered to a model with no index vectors
  // (index_dim() == 0): the dim pairing check must reject before any
  // region is interpreted.
  const NoGeometryScorer plain;
  EXPECT_EQ(LoadCandidateIndexMapped(path_, plain, kItems), nullptr);
  // Kind 2, the retired VP-tree layout, offered to the dot model: an
  // unknown kind rejects like any other.
  PokeAt(&bytes_, kOffKind, uint32_t{2});
  ExpectRejected();
}

TEST_F(IndexIoRejectFixture, LoadRejectsDimMismatch) {
  const DotScorer narrow(12, kItems, kDim / 2, 9);
  EXPECT_EQ(LoadCandidateIndexMapped(path_, narrow, kItems), nullptr);
}

TEST_F(IndexIoRejectFixture, LoadRejectsItemCountMismatch) {
  EXPECT_EQ(LoadCandidateIndexMapped(path_, *model_, kItems + 1), nullptr);
}

TEST_F(IndexIoRejectFixture, LoadRejectsTruncatedPayload) {
  bytes_.resize(bytes_.size() / 2);
  ExpectRejected();
}

TEST_F(IndexIoRejectFixture, LoadRejectsTrailingBytes) {
  bytes_.append(64, '\0');
  ExpectRejected();
}

TEST_F(IndexIoRejectFixture, LoadRejectsImplausibleHeaderShape) {
  // A header-implied size in the terabytes must reject on the bounds
  // check alone — before any size math, table walk, or allocation, so
  // this can never end in bad_alloc or a wild mmap read.
  PokeAt(&bytes_, kOffNumItems, uint64_t{1} << 40);
  ExpectRejected();
}

TEST_F(IndexIoRejectFixture, LoadRejectsImplausibleIvfParams) {
  // nprobe above num_centroids fails plausibility.
  const auto ncent = PeekAt<uint64_t>(bytes_, kOffParams);
  PokeAt(&bytes_, kOffParams + 8, ncent + 1);
  ExpectRejected();
}

TEST_F(IndexIoRejectFixture, LoadRejectsTamperedRegionTable) {
  // Point region 1 somewhere else: the stored table must equal the
  // layout the geometry implies, so a crafted table cannot alias
  // regions on top of each other.
  const auto offset =
      PeekAt<uint64_t>(bytes_, kOffRegionTable + kRegionEntryBytes);
  PokeAt(&bytes_, kOffRegionTable + kRegionEntryBytes, offset + 64);
  ExpectRejected();
}

TEST_F(IndexIoRejectFixture, LoadRejectsChecksumMismatch) {
  // One flipped payload byte, header untouched: only the CRC can see it.
  const auto offset = PeekAt<uint64_t>(bytes_, kOffRegionTable);
  bytes_[offset] = static_cast<char>(bytes_[offset] ^ 0x40);
  ExpectRejected();
}

TEST_F(IndexIoRejectFixture, LoadRejectsCorruptCsrWithFixedUpChecksum) {
  // offsets[0] = 1 with a recomputed CRC: the checksum passes, so the
  // CSR invariant check is the last line of defense against an index
  // whose probes would read outside the mapping.
  const auto offsets_at =
      PeekAt<uint64_t>(bytes_, kOffRegionTable + 2 * kRegionEntryBytes);
  PokeAt(&bytes_, offsets_at, uint32_t{1});
  FixupCrc(2);
  ExpectRejected();
}

TEST_F(IndexIoRejectFixture, LoadRejectsOutOfRangeListIdWithFixedUpChecksum) {
  const auto lists_at =
      PeekAt<uint64_t>(bytes_, kOffRegionTable + 3 * kRegionEntryBytes);
  PokeAt(&bytes_, lists_at, uint32_t{kItems});  // one past the catalog
  FixupCrc(3);
  ExpectRejected();
}

TEST_F(IndexIoRejectFixture,
       LoadRejectsIvfListsThatAreNotAPermutationWithFixedUpChecksum) {
  // Probe promises unique ids because the lists are disjoint: a list id
  // filed twice, filed under a centroid its assign entry does not name, or
  // out of list order must reject even with every id in range and the CRC
  // recomputed.
  const std::string valid = bytes_;
  const auto assign_at =
      PeekAt<uint64_t>(bytes_, kOffRegionTable + kRegionEntryBytes);
  const auto lists_at =
      PeekAt<uint64_t>(bytes_, kOffRegionTable + 3 * kRegionEntryBytes);
  const auto ncent = PeekAt<uint64_t>(bytes_, kOffParams);
  ASSERT_GE(ncent, 2u);

  // list_ids[1] = list_ids[0]: a duplicated id.
  PokeAt(&bytes_, lists_at + 4, PeekAt<uint32_t>(bytes_, lists_at));
  FixupCrc(3);
  ExpectRejected();

  // assign[0] moved to another valid centroid: item 0 now sits in a list
  // its assign entry does not name.
  bytes_ = valid;
  const auto owner = PeekAt<uint32_t>(bytes_, assign_at);
  PokeAt(&bytes_, assign_at,
         static_cast<uint32_t>((owner + 1) % static_cast<uint32_t>(ncent)));
  FixupCrc(1);
  ExpectRejected();

  // The first two ids of a list swapped: still a permutation, but out of
  // the ascending order the rule (docs/FORMAT.md) requires.
  bytes_ = valid;
  const auto offsets_at =
      PeekAt<uint64_t>(bytes_, kOffRegionTable + 2 * kRegionEntryBytes);
  uint64_t c = 0;
  while (PeekAt<uint32_t>(bytes_, offsets_at + 4 * (c + 1)) -
             PeekAt<uint32_t>(bytes_, offsets_at + 4 * c) < 2) {
    ++c;
    ASSERT_LT(c, ncent);
  }
  const uint64_t first_at =
      lists_at + 4 * PeekAt<uint32_t>(bytes_, offsets_at + 4 * c);
  const auto first = PeekAt<uint32_t>(bytes_, first_at);
  PokeAt(&bytes_, first_at, PeekAt<uint32_t>(bytes_, first_at + 4));
  PokeAt(&bytes_, first_at + 4, first);
  FixupCrc(3);
  ExpectRejected();
}

TEST_F(IndexIoRejectFixture, SeededMutationsLoadNothingOrAgree) {
  // The index file is a trust boundary like the model file. Mutate the
  // saved file: every single-bit flip of the header (region table
  // included), seeded 2-4-bit flips over the same bits, seeded payload
  // flips with the region's checksum fixed up, and every truncation. Each
  // load must return null or an index that probes bit for bit like the
  // original. A mutated nprobe is a legitimate file, so a loaded index is
  // compared at the original's nprobe. Centroid payload flips are left
  // out: under a fixed-up checksum any float is a well-formed centroid, so
  // such a file loads as a different index by design.
  const auto reference =
      SphericalIvfIndex::Build(*model_, kItems, AnnIndexOptions{}, nullptr);
  const std::string original = bytes_;
  size_t loaded = 0, rejected = 0;
  const auto check = [&](const std::string& bytes) {
    WriteFileBytes(path_, bytes);
    const auto mapped = LoadCandidateIndexMapped(path_, *model_, kItems);
    if (mapped == nullptr) {
      ++rejected;
      return;
    }
    ++loaded;
    ExpectProbesBitIdentical(*model_, *reference,
                             *mapped->CloneWithNprobe(reference->nprobe()));
  };
  const auto flip = [](std::string* bytes, size_t bit) {
    (*bytes)[bit / 8] = static_cast<char>((*bytes)[bit / 8] ^ (1 << (bit % 8)));
  };

  for (size_t bit = 0; bit < kHeaderBytes * 8; ++bit) {
    SCOPED_TRACE("header bit " + std::to_string(bit));
    std::string bytes = original;
    flip(&bytes, bit);
    check(bytes);
  }
  uint64_t state = 20210314;
  for (int trial = 0; trial < 128; ++trial) {
    SCOPED_TRACE("header trial " + std::to_string(trial));
    std::string bytes = original;
    const int n_flips = 2 + static_cast<int>(SplitMix64(&state) % 3);
    for (int f = 0; f < n_flips; ++f) {
      flip(&bytes, SplitMix64(&state) % (kHeaderBytes * 8));
    }
    check(bytes);
  }
  EXPECT_GT(loaded, 0u);  // reserved and unused fields, nprobe
  EXPECT_GT(rejected, 0u);

  // Regions 1-3 (assign, offsets, lists): the CRC is recomputed, so only
  // the loader's CSR validation stands between a flip and a served index.
  for (size_t r = 1; r < 4; ++r) {
    const auto at =
        PeekAt<uint64_t>(original, kOffRegionTable + r * kRegionEntryBytes);
    const auto size = PeekAt<uint64_t>(
        original, kOffRegionTable + r * kRegionEntryBytes + 8);
    for (int trial = 0; trial < 128; ++trial) {
      SCOPED_TRACE("region " + std::to_string(r) + " trial " +
                   std::to_string(trial));
      bytes_ = original;
      const int n_flips = 1 + static_cast<int>(SplitMix64(&state) % 4);
      for (int f = 0; f < n_flips; ++f) {
        flip(&bytes_, at * 8 + SplitMix64(&state) % (size * 8));
      }
      FixupCrc(r);
      check(bytes_);
    }
  }

  // Cut the file back one byte at a time, from one byte short to empty.
  WriteFileBytes(path_, original);
  for (size_t len = original.size(); len-- > 0;) {
    ASSERT_EQ(::truncate(path_.c_str(), static_cast<off_t>(len)), 0);
    ASSERT_EQ(LoadCandidateIndexMapped(path_, *model_, kItems), nullptr)
        << "len " << len;
  }
}

}  // namespace
}  // namespace mars
