#include "ann/index_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <span>
#include <utility>
#include <vector>

#include "ann/ivf_index.h"
#include "ann/vp_tree_index.h"
#include "common/binary_io.h"
#include "common/check.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "common/mapped_store.h"

namespace mars {

namespace {

// "MRSI" on disk (LE u32), the retrieval-tier sibling of the "MARS"
// snapshot and "MRSK" sidecar magics.
constexpr uint32_t kIndexMagic = 0x4953524Du;
constexpr uint32_t kIndexVersion = 1;
constexpr uint32_t kKindSphericalIvf = 1;
constexpr uint32_t kKindVpTree = 2;
// Fixed header: 72 bytes of fields + a 4-slot region table (24 bytes
// each), zero-padded to 192 — a 64-byte multiple, so the first region
// starts cache-line aligned in the file and (mmap being page-aligned)
// in memory, mirroring the v3 tensor guarantee.
constexpr size_t kMaxRegions = 4;
constexpr uint64_t kIndexHeaderBytes = 192;
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
  uint32_t kind = 0;
  uint64_t num_items = 0;
  uint64_t dim = 0;
  // kind-specific build parameters:
  //   spherical_ivf: {num_centroids, nprobe, 0}
  //   vp_tree:       {leaf_size, parallel_depth, seed}
  uint64_t params[3] = {0, 0, 0};
  size_t num_regions = 0;
  uint64_t region_offset[kMaxRegions] = {0, 0, 0, 0};
  uint64_t region_bytes[kMaxRegions] = {0, 0, 0, 0};
  uint64_t file_bytes = 0;
};

/// Region payload sizes per kind, in declaration order:
///   spherical_ivf: centroids f32 | assign u32 | offsets u32 | lists u32
///   vp_tree:       vectors f32   | ids u32    | radii f32
/// Fills offsets (64B-aligned tiling after the header) and file_bytes.
/// Geometry must already be plausibility-bounded: with num_items ≤ 2³¹
/// and dim ≤ 65536 no product here can overflow u64.
void ComputeRegions(IndexLayout* l) {
  if (l->kind == kKindSphericalIvf) {
    const uint64_t ncent = l->params[0];
    l->num_regions = 4;
    l->region_bytes[0] = ncent * l->dim * sizeof(float);
    l->region_bytes[1] = l->num_items * sizeof(uint32_t);
    l->region_bytes[2] = (ncent + 1) * sizeof(uint32_t);
    l->region_bytes[3] = l->num_items * sizeof(uint32_t);
  } else {
    l->num_regions = 3;
    l->region_bytes[0] = l->num_items * l->dim * sizeof(float);
    l->region_bytes[1] = l->num_items * sizeof(uint32_t);
    l->region_bytes[2] = l->num_items * sizeof(float);
  }
  uint64_t at = kIndexHeaderBytes;
  for (size_t r = 0; r < l->num_regions; ++r) {
    l->region_offset[r] = at;
    at = AlignUp(at + l->region_bytes[r]);
  }
  // file_bytes is the aligned end: the last region's padding is written
  // (zeros) so the file size is layout-determined to the byte.
  l->file_bytes = at;
}

/// Bounds every header-derived extent before any size computation is
/// trusted (the v3 ShapePlausible discipline): 1 ≤ items ≤ 2³¹,
/// 1 ≤ dim ≤ 65536, and the kind-specific parameters in sane ranges.
bool LayoutPlausible(const IndexLayout& l, const char* who) {
  constexpr uint64_t kMaxItems = 1ull << 31;
  if (l.num_items == 0 || l.num_items > kMaxItems || l.dim == 0 ||
      l.dim > 65536) {
    MARS_LOG(ERROR) << who << ": implausible geometry";
    return false;
  }
  if (l.kind == kKindSphericalIvf) {
    const uint64_t ncent = l.params[0], nprobe = l.params[1];
    if (ncent == 0 || ncent > l.num_items || nprobe == 0 || nprobe > ncent) {
      MARS_LOG(ERROR) << who << ": implausible IVF parameters";
      return false;
    }
  } else if (l.kind == kKindVpTree) {
    const uint64_t leaf = l.params[0], depth = l.params[1];
    if (leaf == 0 || leaf > kMaxItems || depth > 64) {
      MARS_LOG(ERROR) << who << ": implausible VP-tree parameters";
      return false;
    }
  } else {
    MARS_LOG(ERROR) << who << ": unknown index kind " << l.kind;
    return false;
  }
  return true;
}

bool WriteIndexFile(const std::string& path, IndexLayout l,
                    const std::span<const uint8_t>* regions) {
  ComputeRegions(&l);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    MARS_LOG(ERROR) << "SaveCandidateIndex: cannot open " << path;
    return false;
  }
  WriteU32(out, kIndexMagic);
  WriteU32(out, kIndexVersion);
  WriteU32(out, l.kind);
  WriteU32(out, 0u);  // reserved
  WriteU64(out, l.num_items);
  WriteU64(out, l.dim);
  for (const uint64_t p : l.params) WriteU64(out, p);
  WriteU64(out, l.file_bytes);
  WriteU32(out, static_cast<uint32_t>(l.num_regions));
  WriteU32(out, 0u);  // reserved
  for (size_t r = 0; r < kMaxRegions; ++r) {
    const bool live = r < l.num_regions;
    MARS_CHECK(!live || regions[r].size() == l.region_bytes[r]);
    WriteU64(out, live ? l.region_offset[r] : 0);
    WriteU64(out, live ? l.region_bytes[r] : 0);
    WriteU32(out, live ? Crc32(regions[r].data(), regions[r].size()) : 0u);
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
  for (size_t r = 0; r < l.num_regions; ++r) {
    pad_to(l.region_offset[r]);
    out.write(reinterpret_cast<const char*>(regions[r].data()),
              static_cast<std::streamsize>(regions[r].size()));
  }
  pad_to(l.file_bytes);
  out.flush();
  if (!out) {
    MARS_LOG(ERROR) << "SaveCandidateIndex: write failed for " << path;
    return false;
  }
  return true;
}

template <typename T>
std::span<const uint8_t> Bytes(std::span<const T> s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size_bytes()};
}

/// CSR sanity for a loaded IVF: offsets tile [0, num_items]
/// non-decreasingly and every assignment/list id is in range — the
/// bounds Probe/Rebuilt index with, so a corrupt (checksum-colliding)
/// file can never read out of the mapping or the model.
bool IvfPayloadValid(const IndexLayout& l, const uint32_t* assign,
                     const uint32_t* offsets, const ItemId* list_ids) {
  const uint64_t ncent = l.params[0];
  if (offsets[0] != 0 || offsets[ncent] != l.num_items) return false;
  for (uint64_t c = 0; c < ncent; ++c) {
    if (offsets[c + 1] < offsets[c]) return false;
  }
  for (uint64_t v = 0; v < l.num_items; ++v) {
    if (assign[v] >= ncent) return false;
    if (list_ids[v] >= l.num_items) return false;
  }
  return true;
}

/// A loaded VP-tree's id array must be a permutation of [0, num_items):
/// the search gathers vectors by id, so an out-of-range id would read
/// outside the mapped vector table.
bool VpPayloadValid(const IndexLayout& l, const ItemId* ids) {
  std::vector<bool> seen(l.num_items, false);
  for (uint64_t i = 0; i < l.num_items; ++i) {
    if (ids[i] >= l.num_items || seen[ids[i]]) return false;
    seen[ids[i]] = true;
  }
  return true;
}

}  // namespace

bool SaveCandidateIndex(const CandidateIndex& index, const std::string& path) {
  if (const auto* ivf = dynamic_cast<const SphericalIvfIndex*>(&index)) {
    IndexLayout l;
    l.kind = kKindSphericalIvf;
    l.num_items = ivf->num_items();
    l.dim = ivf->dim();
    l.params[0] = ivf->num_centroids();
    l.params[1] = ivf->nprobe();
    const std::span<const uint8_t> regions[kMaxRegions] = {
        Bytes(ivf->centroids()), Bytes(ivf->assignments()),
        Bytes(ivf->offsets()), Bytes(ivf->list_ids())};
    return WriteIndexFile(path, l, regions);
  }
  if (const auto* vp = dynamic_cast<const VpTreeIndex*>(&index)) {
    IndexLayout l;
    l.kind = kKindVpTree;
    l.num_items = vp->num_items();
    l.dim = vp->dim();
    l.params[0] = vp->leaf_size();
    l.params[1] = vp->parallel_depth();
    l.params[2] = vp->seed();
    const std::span<const uint8_t> regions[kMaxRegions] = {
        Bytes(vp->vectors()), Bytes(vp->ids()), Bytes(vp->radii()), {}};
    return WriteIndexFile(path, l, regions);
  }
  MARS_LOG(ERROR) << "SaveCandidateIndex: unsupported index kind '"
                  << index.kind() << "'";
  return false;
}

std::shared_ptr<const CandidateIndex> LoadCandidateIndexMapped(
    const std::string& path, const ItemScorer& model, size_t num_items) {
  const char* who = "LoadCandidateIndexMapped";
  std::shared_ptr<MappedFile> file = MappedFile::Open(path);
  if (file == nullptr) return nullptr;
  const uint8_t* base = file->data();
  if (file->size() < kIndexHeaderBytes) {
    MARS_LOG(ERROR) << who << ": " << path << " is truncated ("
                    << file->size() << " bytes, header needs "
                    << kIndexHeaderBytes << ")";
    return nullptr;
  }
  const auto read_u32 = [&](size_t offset) {
    uint32_t v;
    std::memcpy(&v, base + offset, sizeof(v));
    return v;
  };
  const auto read_u64 = [&](size_t offset) {
    uint64_t v;
    std::memcpy(&v, base + offset, sizeof(v));
    return v;
  };
  if (read_u32(0) != kIndexMagic) {
    MARS_LOG(ERROR) << who << ": bad magic in " << path;
    return nullptr;
  }
  if (read_u32(4) != kIndexVersion) {
    MARS_LOG(ERROR) << who << ": " << path << " is index format v"
                    << read_u32(4) << ", expected v" << kIndexVersion;
    return nullptr;
  }
  IndexLayout l;
  l.kind = read_u32(8);
  l.num_items = read_u64(16);
  l.dim = read_u64(24);
  for (size_t p = 0; p < 3; ++p) l.params[p] = read_u64(32 + p * 8);
  const uint64_t file_bytes = read_u64(56);
  const uint32_t num_regions = read_u32(64);

  // Plausibility bounds come BEFORE any size math (the v3 discipline):
  // nothing below multiplies unchecked header fields.
  if (!LayoutPlausible(l, who)) return nullptr;

  // The index must pair with the serving model: right geometry kind,
  // same vector dim, same catalog.
  const uint32_t want_kind = model.index_geometry() == IndexGeometry::kDot
                                 ? kKindSphericalIvf
                                 : model.index_geometry() == IndexGeometry::kL2
                                       ? kKindVpTree
                                       : 0;
  if (l.kind != want_kind) {
    MARS_LOG(ERROR) << who << ": " << path
                    << " holds the wrong index kind for the model's "
                    << "geometry";
    return nullptr;
  }
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
  if (num_regions != l.num_regions || file_bytes != l.file_bytes ||
      file->size() != l.file_bytes) {
    MARS_LOG(ERROR) << who << ": " << path << " region layout does not "
                    << "match its geometry (truncated or corrupt)";
    return nullptr;
  }
  uint32_t stored_crc[kMaxRegions];
  for (size_t r = 0; r < l.num_regions; ++r) {
    const size_t entry = 72 + r * 24;
    if (read_u64(entry) != l.region_offset[r] ||
        read_u64(entry + 8) != l.region_bytes[r]) {
      MARS_LOG(ERROR) << who << ": " << path << " region " << r
                      << " offsets are inconsistent with its geometry";
      return nullptr;
    }
    stored_crc[r] = read_u32(entry + 16);
  }
  for (size_t r = 0; r < l.num_regions; ++r) {
    if (Crc32(base + l.region_offset[r], l.region_bytes[r]) !=
        stored_crc[r]) {
      MARS_LOG(ERROR) << who << ": " << path << " region " << r
                      << " checksum mismatch";
      return nullptr;
    }
  }

  if (l.kind == kKindSphericalIvf) {
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
    return SphericalIvfIndex::Borrow(l.num_items, l.dim, l.params[0],
                                     l.params[1], centroids, assign, offsets,
                                     list_ids, std::move(file));
  }
  const auto* vectors =
      reinterpret_cast<const float*>(base + l.region_offset[0]);
  const auto* ids =
      reinterpret_cast<const ItemId*>(base + l.region_offset[1]);
  const auto* radii =
      reinterpret_cast<const float*>(base + l.region_offset[2]);
  if (!VpPayloadValid(l, ids)) {
    MARS_LOG(ERROR) << who << ": " << path
                    << " holds a corrupt VP-tree permutation";
    return nullptr;
  }
  return VpTreeIndex::Borrow(l.num_items, l.dim, l.params[0], l.params[1],
                             l.params[2], vectors, ids, radii,
                             std::move(file));
}

}  // namespace mars
