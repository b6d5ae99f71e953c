#include "ann/index_io.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "ann/ivf_index.h"
#include "common/binary_io.h"
#include "common/check.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/mapped_file.h"

namespace mars {

namespace {

// "MRSI" on disk (LE u32), the retrieval-tier sibling of the "MARS"
// snapshot and "MRSK" sidecar magics.
constexpr uint32_t kIndexMagic = 0x4953524Du;
constexpr uint32_t kIndexVersion = 3;
// The header's kind field: the saver writes this constant and the loader
// rejects every other value.
constexpr uint32_t kKindSphericalIvf = 1;
// Fixed header: 72 bytes of fields + a 6-slot region table (24 bytes
// each), zero-padded to 256 — a 64-byte multiple, so the first region
// starts cache-line aligned in the file and (mmap being page-aligned)
// in memory, mirroring the v3 tensor guarantee.
constexpr size_t kNumRegions = 6;
// The codes and scales regions: their checksums are written but not
// verified on load. Any code byte and any finite, non-negative scale is
// valid (served scores always come from the model), so a restart maps the
// codes without reading a byte of them and reads the scales once, for
// that value check.
constexpr size_t kCodesRegion = 4;
constexpr size_t kScalesRegion = 5;
constexpr uint64_t kIndexHeaderBytes = 256;
constexpr uint64_t kRegionAlign = 64;

static_assert(sizeof(ItemId) == sizeof(uint32_t),
              "index regions store ItemId as u32");

uint64_t AlignUp(uint64_t v) {
  return (v + (kRegionAlign - 1)) & ~(kRegionAlign - 1);
}

/// Everything the fixed header encodes, plus the derived region layout.
/// The layout is *computed* from the geometry fields — the loader
/// recomputes it and requires the stored table to match exactly, so a
/// crafted table cannot point regions anywhere the geometry doesn't.
struct IndexLayout {
  uint64_t num_items = 0;
  uint64_t dim = 0;
  uint64_t num_centroids = 0;
  uint64_t nprobe = 0;
  uint64_t region_offset[kNumRegions] = {};
  uint64_t region_bytes[kNumRegions] = {};
  uint64_t file_bytes = 0;
};

/// Region payload sizes, in declaration order:
///   centroids f32 | assign u32 | offsets u32 | lists u32 | codes u8 |
///   scales f32
/// (codes: CodeBytes(dim) bytes of 4-bit codes per item in list order;
/// scales: one per item in list order). Fills offsets (64B-aligned tiling
/// after the header) and file_bytes. Geometry must already be
/// plausibility-bounded: with num_items ≤ 2³¹ and dim ≤ 65536 no product
/// here can overflow u64.
void ComputeRegions(IndexLayout* l) {
  l->region_bytes[0] = l->num_centroids * l->dim * sizeof(float);
  l->region_bytes[1] = l->num_items * sizeof(uint32_t);
  l->region_bytes[2] = (l->num_centroids + 1) * sizeof(uint32_t);
  l->region_bytes[3] = l->num_items * sizeof(uint32_t);
  l->region_bytes[kCodesRegion] =
      l->num_items * SphericalIvfIndex::CodeBytes(l->dim);
  l->region_bytes[kScalesRegion] = l->num_items * sizeof(float);
  uint64_t at = kIndexHeaderBytes;
  for (size_t r = 0; r < kNumRegions; ++r) {
    l->region_offset[r] = at;
    at = AlignUp(at + l->region_bytes[r]);
  }
  // file_bytes is the aligned end: the last region's padding is written
  // (zeros) so the file size is layout-determined to the byte.
  l->file_bytes = at;
}

/// Bounds every header-derived extent before any size computation is
/// trusted (the v3 ShapePlausible discipline): 1 ≤ items ≤ 2³¹,
/// 1 ≤ dim ≤ 65536, 1 ≤ nprobe ≤ num_centroids ≤ items.
bool LayoutPlausible(const IndexLayout& l, const char* who) {
  if (l.num_items == 0 || l.num_items > (1ull << 31) || l.dim == 0 ||
      l.dim > 65536) {
    MARS_LOG(ERROR) << who << ": implausible geometry";
    return false;
  }
  if (l.num_centroids == 0 || l.num_centroids > l.num_items ||
      l.nprobe == 0 || l.nprobe > l.num_centroids) {
    MARS_LOG(ERROR) << who << ": implausible IVF parameters";
    return false;
  }
  return true;
}

void WriteIndexFile(std::ostream& out, const IndexLayout& l,
                    const std::span<const uint8_t>* regions) {
  WriteU32(out, kIndexMagic);
  WriteU32(out, kIndexVersion);
  WriteU32(out, kKindSphericalIvf);
  WriteU32(out, 0u);  // reserved
  WriteU64(out, l.num_items);
  WriteU64(out, l.dim);
  WriteU64(out, l.num_centroids);
  WriteU64(out, l.nprobe);
  WriteU64(out, 0u);  // third kind parameter, unused by the IVF
  WriteU64(out, l.file_bytes);
  WriteU32(out, static_cast<uint32_t>(kNumRegions));
  WriteU32(out, 0u);  // reserved
  for (size_t r = 0; r < kNumRegions; ++r) {
    MARS_CHECK(regions[r].size() == l.region_bytes[r]);
    WriteU64(out, l.region_offset[r]);
    WriteU64(out, l.region_bytes[r]);
    WriteU32(out, Crc32(regions[r].data(), regions[r].size()));
    WriteU32(out, 0u);  // reserved
  }
  const std::vector<char> zeros(kRegionAlign, 0);
  const auto pad_to = [&](uint64_t offset) {
    uint64_t at = static_cast<uint64_t>(out.tellp());
    MARS_CHECK(at <= offset);
    while (at < offset) {
      const uint64_t n = std::min<uint64_t>(offset - at, zeros.size());
      out.write(zeros.data(), static_cast<std::streamsize>(n));
      at += n;
    }
  };
  pad_to(kIndexHeaderBytes);
  for (size_t r = 0; r < kNumRegions; ++r) {
    pad_to(l.region_offset[r]);
    out.write(reinterpret_cast<const char*>(regions[r].data()),
              static_cast<std::streamsize>(regions[r].size()));
  }
  pad_to(l.file_bytes);
}

template <typename T>
std::span<const uint8_t> Bytes(std::span<const T> s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size_bytes()};
}

/// CSR sanity for a loaded IVF — the bounds Probe/Rebuilt index with and
/// the disjointness Probe's unique-ids promise rests on, so a corrupt
/// (checksum-colliding) file can never read out of the mapping or the
/// model, nor serve an id twice. The lists must be exactly the counting
/// sort of `assign` (what RebuildLists writes), and one pass over `assign`
/// in item order checks it, reading each list forward from a cursor
/// instead of reading assign[v] at random in list order: the offsets
/// must tile [0, num_items] non-decreasingly, and each item v must name a
/// centroid whose list has an unread slot, holding v. Each item then
/// takes one slot of its own list, and num_items items fill the
/// num_items slots, so every slot is taken exactly once: each list holds
/// exactly the ids assigned to it, in range, ascending, and the lists are
/// a permutation.
bool IvfPayloadValid(const IndexLayout& l, const uint32_t* assign,
                     const uint32_t* offsets, const ItemId* list_ids) {
  const uint64_t ncent = l.num_centroids;
  if (offsets[0] != 0 || offsets[ncent] != l.num_items) return false;
  for (uint64_t c = 0; c < ncent; ++c) {
    if (offsets[c + 1] < offsets[c]) return false;
  }
  std::vector<uint32_t> cursor(offsets, offsets + ncent);
  for (uint64_t v = 0; v < l.num_items; ++v) {
    const uint32_t c = assign[v];
    if (c >= ncent || cursor[c] == offsets[c + 1] ||
        list_ids[cursor[c]++] != v) {
      return false;
    }
  }
  return true;
}

/// Every code scale finite and >= 0: the probe multiplies it into a score
/// it compares, and a NaN would break the total order its selection uses.
/// One branch-free pass over the bit patterns, which the compiler
/// vectorizes: a scale passes iff its bits are below +inf's (+0 through
/// FLT_MAX) or are exactly -0.0's, the one negative bit pattern >= 0.
/// Kept out of line: inlined into the loader, GCC 12 leaves it scalar.
[[gnu::noinline]] bool ScalesValid(const float* scales, uint64_t count) {
  constexpr uint32_t kPlusInf = 0x7F800000u;
  constexpr uint32_t kMinusZero = 0x80000000u;
  uint32_t bad = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint32_t bits;
    std::memcpy(&bits, scales + i, sizeof(bits));
    bad |= static_cast<uint32_t>(bits >= kPlusInf) &
           static_cast<uint32_t>(bits != kMinusZero);
  }
  return bad == 0;
}

}  // namespace

bool SaveCandidateIndex(const SphericalIvfIndex& index,
                        const std::string& path) {
  IndexLayout l;
  l.num_items = index.num_items();
  l.dim = index.dim();
  l.num_centroids = index.num_centroids();
  l.nprobe = index.nprobe();
  ComputeRegions(&l);
  const std::span<const uint8_t> regions[kNumRegions] = {
      Bytes(index.centroids()), Bytes(index.assignments()),
      Bytes(index.offsets()),   Bytes(index.list_ids()),
      Bytes(index.codes()),     Bytes(index.scales())};
  return WriteFileAtomic(path, "SaveCandidateIndex",
                         [&l, &regions](std::ostream& out) {
                           WriteIndexFile(out, l, regions);
                         });
}

std::shared_ptr<const SphericalIvfIndex> LoadCandidateIndexMapped(
    const std::string& path, const ItemScorer& model, size_t num_items) {
  const char* who = "LoadCandidateIndexMapped";
  std::shared_ptr<MappedFile> file = MappedFile::Open(path);
  if (file == nullptr) return nullptr;
  const uint8_t* base = file->data();
  ByteReader header(base, file->size());
  uint32_t magic = 0, version = 0, kind = 0, num_regions = 0;
  uint64_t file_bytes = 0;
  IndexLayout l;
  // Fixed fields at 0..72; the three reserved or unused fields are skipped.
  if (!header.Read(&magic) || !header.Read(&version) || !header.Read(&kind) ||
      !header.Skip(sizeof(uint32_t)) || !header.Read(&l.num_items) ||
      !header.Read(&l.dim) || !header.Read(&l.num_centroids) ||
      !header.Read(&l.nprobe) || !header.Skip(sizeof(uint64_t)) ||
      !header.Read(&file_bytes) || !header.Read(&num_regions) ||
      !header.Skip(sizeof(uint32_t))) {
    MARS_LOG(ERROR) << who << ": " << path << " is truncated ("
                    << file->size() << " bytes, header needs "
                    << kIndexHeaderBytes << ")";
    return nullptr;
  }
  if (magic != kIndexMagic) {
    MARS_LOG(ERROR) << who << ": bad magic in " << path;
    return nullptr;
  }
  if (version != kIndexVersion) {
    MARS_LOG(ERROR) << who << ": " << path << " is index format v"
                    << version << ", expected v" << kIndexVersion;
    return nullptr;
  }
  if (kind != kKindSphericalIvf) {
    MARS_LOG(ERROR) << who << ": " << path << " holds unknown index kind "
                    << kind;
    return nullptr;
  }

  // Plausibility bounds come BEFORE any size math (the v3 discipline):
  // nothing below multiplies unchecked header fields.
  if (!LayoutPlausible(l, who)) return nullptr;

  // The index must pair with the serving model: same vector dim (an
  // unindexable model's 0 never matches a plausible layout), same catalog.
  if (l.dim != model.index_dim() || l.num_items != num_items) {
    MARS_LOG(ERROR) << who << ": " << path << " was built for dim=" << l.dim
                    << " items=" << l.num_items << ", model wants dim="
                    << model.index_dim() << " items=" << num_items;
    return nullptr;
  }

  // The stored region table and file size must equal the layout the
  // geometry implies — checked against the REAL file size before a
  // single region byte is touched, so truncated or size-lying files
  // reject cleanly.
  ComputeRegions(&l);
  if (num_regions != kNumRegions || file_bytes != l.file_bytes ||
      file->size() != l.file_bytes) {
    MARS_LOG(ERROR) << who << ": " << path << " region layout does not "
                    << "match its geometry (truncated or corrupt)";
    return nullptr;
  }
  // The region table follows the fixed fields; the file holds it, being
  // file_bytes >= kIndexHeaderBytes long.
  uint32_t stored_crc[kNumRegions];
  for (size_t r = 0; r < kNumRegions; ++r) {
    uint64_t offset = 0, bytes = 0;
    if (!header.Read(&offset) || !header.Read(&bytes) ||
        !header.Read(&stored_crc[r]) || !header.Skip(sizeof(uint32_t)) ||
        offset != l.region_offset[r] || bytes != l.region_bytes[r]) {
      MARS_LOG(ERROR) << who << ": " << path << " region " << r
                      << " offsets are inconsistent with its geometry";
      return nullptr;
    }
  }
  for (size_t r = 0; r < kNumRegions; ++r) {
    if (r == kCodesRegion || r == kScalesRegion) continue;
    if (Crc32(base + l.region_offset[r], l.region_bytes[r]) !=
        stored_crc[r]) {
      MARS_LOG(ERROR) << who << ": " << path << " region " << r
                      << " checksum mismatch";
      return nullptr;
    }
  }

  const auto* centroids =
      reinterpret_cast<const float*>(base + l.region_offset[0]);
  const auto* assign =
      reinterpret_cast<const uint32_t*>(base + l.region_offset[1]);
  const auto* offsets =
      reinterpret_cast<const uint32_t*>(base + l.region_offset[2]);
  const auto* list_ids =
      reinterpret_cast<const ItemId*>(base + l.region_offset[3]);
  if (!IvfPayloadValid(l, assign, offsets, list_ids)) {
    MARS_LOG(ERROR) << who << ": " << path << " holds corrupt IVF lists";
    return nullptr;
  }
  const auto* codes =
      reinterpret_cast<const uint8_t*>(base + l.region_offset[kCodesRegion]);
  const auto* scales =
      reinterpret_cast<const float*>(base + l.region_offset[kScalesRegion]);
  if (!ScalesValid(scales, l.num_items)) {
    MARS_LOG(ERROR) << who << ": " << path
                    << " holds a negative or non-finite code scale";
    return nullptr;
  }
  return SphericalIvfIndex::Borrow(l.num_items, l.dim, l.num_centroids,
                                   l.nprobe, centroids, assign, offsets,
                                   list_ids, codes, scales, std::move(file));
}

}  // namespace mars
