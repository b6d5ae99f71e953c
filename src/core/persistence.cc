#include "core/persistence.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/binary_io.h"
#include "common/logging.h"
#include "common/mapped_store.h"

namespace mars {
namespace {

constexpr uint32_t kMagic = 0x4D415253;  // "MARS"
// Byte layouts and compatibility matrix: docs/FORMAT.md.
// v1: facet-major tensors ([facet][entity][dim]), the std::vector<Matrix>
//     era. Still loadable.
// v2: entity-major tensors ([entity][facet][dim]) matching FacetStore;
//     padding is never written, so files are layout- and bit-compatible
//     with v1 up to the tensor ordering. SaveMars writes this.
// v3: entity-major tensors at the aligned in-memory row stride, regions on
//     64-byte file offsets — mmap-servable (SaveMarsV3 / LoadMarsMapped).
constexpr uint32_t kVersion = 2;
constexpr uint32_t kVersionV3 = 3;
constexpr uint32_t kOldestLoadableVersion = 1;

// Common header prefix shared by every version (48 bytes):
//   magic u32, version u32, num_facets u64, dim u64, n_users u64,
//   n_items u64, learn_radius u32, calibrated u32.
constexpr size_t kCommonHeaderBytes = 48;
// v3 appends: row_stride u64, user_offset u64, item_offset u64,
// tail_offset u64 (32 bytes, ending at 80), then zero padding up to the
// first 64-byte boundary past the header so the user tensor starts aligned.
constexpr size_t kV3HeaderBytes = 128;

/// Writes a FacetStore entity-major with the row padding stripped. When the
/// store is unpadded (dim is a cache-line multiple) the whole tensor is one
/// dense bulk write instead of entities×facets small ones.
void WriteFacetStore(std::ostream& out, const FacetStore& store) {
  if (store.row_stride() == store.dim()) {
    WriteFloats(out, store.EntityBlock(0),
                store.num_entities() * store.entity_stride());
    return;
  }
  for (size_t e = 0; e < store.num_entities(); ++e) {
    for (size_t k = 0; k < store.num_facets(); ++k) {
      WriteFloats(out, store.Row(e, k), store.dim());
    }
  }
}

/// Reads a tensor written entity-major (v2) into `store`.
bool ReadFacetStoreV2(std::istream& in, FacetStore* store) {
  if (store->row_stride() == store->dim()) {
    return ReadFloats(in, store->EntityBlock(0),
                      store->num_entities() * store->entity_stride());
  }
  for (size_t e = 0; e < store->num_entities(); ++e) {
    for (size_t k = 0; k < store->num_facets(); ++k) {
      if (!ReadFloats(in, store->Row(e, k), store->dim())) return false;
    }
  }
  return true;
}

/// Reads a tensor written facet-major (v1, K stacked N×D matrices),
/// transposing into the entity-major store.
bool ReadFacetStoreV1(std::istream& in, FacetStore* store) {
  for (size_t k = 0; k < store->num_facets(); ++k) {
    for (size_t e = 0; e < store->num_entities(); ++e) {
      if (!ReadFloats(in, store->Row(e, k), store->dim())) return false;
    }
  }
  return true;
}

/// Shape fields every version carries, decoded from the common header.
struct SnapshotShape {
  uint64_t kf = 0, d = 0, n_users = 0, n_items = 0;
  bool learn_radius = false;
  bool calibrated = true;
};

/// Plausibility bounds shared by the stream and mmap loaders: reject
/// corrupt/crafted headers before any size computation can wrap.
bool ShapePlausible(const SnapshotShape& s, const char* who) {
  constexpr uint64_t kMaxEntities = 1ull << 31;
  if (s.kf == 0 || s.kf > 64 || s.d < 2 || s.d > 65536 || s.n_users == 0 ||
      s.n_users > kMaxEntities || s.n_items == 0 ||
      s.n_items > kMaxEntities) {
    MARS_LOG(ERROR) << who << ": implausible header";
    return false;
  }
  return true;
}

std::unique_ptr<Mars> MakeModelForShape(const SnapshotShape& s) {
  MultiFacetConfig cfg;
  cfg.num_facets = s.kf;
  cfg.dim = s.d;
  MarsOptions mopts;
  mopts.learn_radius = s.learn_radius;
  mopts.calibrated = s.calibrated;
  return std::make_unique<Mars>(cfg, mopts);
}

/// v3 region offsets, after the common header.
struct V3Layout {
  uint64_t row_stride = 0;  // floats
  uint64_t user_offset = 0;  // bytes from file start
  uint64_t item_offset = 0;
  uint64_t tail_offset = 0;
};

/// Validates the v3 extension against the shape: the stride must be the
/// aligned in-memory stride and the three regions must tile the file
/// exactly (user tensor at the padded header boundary, item tensor and
/// tail immediately after the preceding region).
bool V3LayoutValid(const SnapshotShape& s, const V3Layout& l,
                   const char* who) {
  if (l.row_stride != FacetStore::RowStrideFor(s.d)) {
    MARS_LOG(ERROR) << who << ": v3 row stride " << l.row_stride
                    << " does not match the aligned stride "
                    << FacetStore::RowStrideFor(s.d) << " for dim " << s.d;
    return false;
  }
  const uint64_t user_bytes =
      s.n_users * s.kf * l.row_stride * sizeof(float);
  const uint64_t item_bytes =
      s.n_items * s.kf * l.row_stride * sizeof(float);
  if (l.user_offset != kV3HeaderBytes ||
      l.item_offset != l.user_offset + user_bytes ||
      l.tail_offset != l.item_offset + item_bytes ||
      l.user_offset % FacetStore::kRowAlignBytes != 0 ||
      l.item_offset % FacetStore::kRowAlignBytes != 0) {
    MARS_LOG(ERROR) << who << ": v3 region offsets are inconsistent or "
                    << "misaligned";
    return false;
  }
  return true;
}

}  // namespace

bool SaveMars(const Mars& model, const std::string& path) {
  if (model.user_facets_.empty()) {
    MARS_LOG(ERROR) << "SaveMars: model has not been fit";
    return false;
  }
  return WriteFileAtomic(path, "SaveMars", [&model](std::ostream& out) {
    WriteU32(out, kMagic);
    WriteU32(out, kVersion);
    WriteU64(out, model.config_.num_facets);
    WriteU64(out, model.config_.dim);
    WriteU64(out, model.user_facets_.num_entities());
    WriteU64(out, model.item_facets_.num_entities());
    WriteU32(out, model.mars_options_.learn_radius ? 1 : 0);
    WriteU32(out, model.mars_options_.calibrated ? 1 : 0);

    WriteFacetStore(out, model.user_facets_);
    WriteFacetStore(out, model.item_facets_);
    WriteFloats(out, model.theta_logits_.data(), model.theta_logits_.size());
    WriteFloats(out, model.radii_.data(), model.radii_.size());
    WriteU64(out, model.margins_.size());
    WriteFloats(out, model.margins_.data(), model.margins_.size());
  });
}

bool SaveMarsV3(const Mars& model, const std::string& path) {
  if (model.user_facets_.empty()) {
    MARS_LOG(ERROR) << "SaveMarsV3: model has not been fit";
    return false;
  }
  return WriteFileAtomic(path, "SaveMarsV3", [&model](std::ostream& out) {
    const FacetStore& users = model.user_facets_;
    const FacetStore& items = model.item_facets_;
    const uint64_t kf = model.config_.num_facets;
    const uint64_t d = model.config_.dim;
    const uint64_t stride = users.row_stride();
    const uint64_t user_bytes =
        users.num_entities() * users.entity_stride() * sizeof(float);
    const uint64_t item_bytes =
        items.num_entities() * items.entity_stride() * sizeof(float);
    const uint64_t user_offset = kV3HeaderBytes;
    const uint64_t item_offset = user_offset + user_bytes;
    const uint64_t tail_offset = item_offset + item_bytes;

    WriteU32(out, kMagic);
    WriteU32(out, kVersionV3);
    WriteU64(out, kf);
    WriteU64(out, d);
    WriteU64(out, users.num_entities());
    WriteU64(out, items.num_entities());
    WriteU32(out, model.mars_options_.learn_radius ? 1 : 0);
    WriteU32(out, model.mars_options_.calibrated ? 1 : 0);
    WriteU64(out, stride);
    WriteU64(out, user_offset);
    WriteU64(out, item_offset);
    WriteU64(out, tail_offset);
    // Zero the reserved bytes up to the aligned payload boundary.
    const std::vector<char> zeros(kV3HeaderBytes - (kCommonHeaderBytes + 32),
                                  0);
    out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));

    // The in-memory buffers are already padded to the aligned stride (the
    // padding floats are zero by construction), so each tensor is one bulk
    // write of the exact bytes a FacetStore holds.
    WriteFloats(out, users.EntityBlock(0),
                users.num_entities() * users.entity_stride());
    WriteFloats(out, items.EntityBlock(0),
                items.num_entities() * items.entity_stride());

    WriteFloats(out, model.theta_logits_.data(), model.theta_logits_.size());
    WriteFloats(out, model.radii_.data(), model.radii_.size());
    WriteU64(out, model.margins_.size());
    WriteFloats(out, model.margins_.data(), model.margins_.size());
  });
}

std::unique_ptr<Mars> LoadMars(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    MARS_LOG(ERROR) << "LoadMars: cannot open " << path;
    return nullptr;
  }
  uint32_t magic = 0, version = 0;
  if (!ReadU32(in, &magic) || magic != kMagic) {
    MARS_LOG(ERROR) << "LoadMars: bad magic in " << path;
    return nullptr;
  }
  if (!ReadU32(in, &version) || version < kOldestLoadableVersion ||
      version > kVersionV3) {
    MARS_LOG(ERROR) << "LoadMars: unsupported version";
    return nullptr;
  }
  SnapshotShape shape;
  uint32_t learn_radius = 0, calibrated = 1;
  if (!ReadU64(in, &shape.kf) || !ReadU64(in, &shape.d) ||
      !ReadU64(in, &shape.n_users) || !ReadU64(in, &shape.n_items) ||
      !ReadU32(in, &learn_radius) || !ReadU32(in, &calibrated)) {
    return nullptr;
  }
  shape.learn_radius = learn_radius != 0;
  shape.calibrated = calibrated != 0;
  // Bound every extent: the per-row facet readers below loop over
  // header-supplied extents, so a wrapped FacetStore size computation on a
  // corrupt/crafted header would otherwise let ReadFloats write past the
  // allocation (the old single bulk read failed cleanly by construction).
  if (!ShapePlausible(shape, "LoadMars")) return nullptr;

  V3Layout layout;
  if (version == 3) {
    if (!ReadU64(in, &layout.row_stride) || !ReadU64(in, &layout.user_offset) ||
        !ReadU64(in, &layout.item_offset) ||
        !ReadU64(in, &layout.tail_offset)) {
      return nullptr;
    }
    if (!V3LayoutValid(shape, layout, "LoadMars")) return nullptr;
  }

  // Require the file to actually hold the tensors the header promises
  // *before* sizing any allocation to header fields: a crafted 80-byte
  // file with a plausible-but-huge shape must fail cleanly here, not
  // throw bad_alloc out of the FacetStore constructor. (Shape bounds
  // above keep every product below within uint64.)
  {
    const uint64_t data_floats = version == 3
                                     ? (shape.n_users + shape.n_items) *
                                           shape.kf * layout.row_stride
                                     : (shape.n_users + shape.n_items) *
                                           shape.kf * shape.d;
    const uint64_t header_bytes =
        version == 3 ? kV3HeaderBytes : kCommonHeaderBytes;
    const uint64_t required = header_bytes +
                              (data_floats + shape.n_users * shape.kf +
                               shape.kf + shape.n_users) *
                                  sizeof(float) +
                              sizeof(uint64_t);
    const std::streampos here = in.tellg();
    in.seekg(0, std::ios::end);
    const uint64_t file_size = static_cast<uint64_t>(in.tellg());
    in.seekg(here);
    if (file_size < required) {
      MARS_LOG(ERROR) << "LoadMars: " << path << " holds " << file_size
                      << " bytes but the header implies >= " << required
                      << " — truncated or corrupt";
      return nullptr;
    }
  }

  auto model = MakeModelForShape(shape);
  model->user_facets_ = FacetStore(shape.n_users, shape.kf, shape.d);
  model->item_facets_ = FacetStore(shape.n_items, shape.kf, shape.d);
  if (version == 3) {
    // The file payload is the in-memory layout (stride validated above):
    // each tensor copy-loads as one bulk read, padding included.
    in.seekg(static_cast<std::streamoff>(layout.user_offset));
    FacetStore& users = model->user_facets_;
    FacetStore& items = model->item_facets_;
    if (!ReadFloats(in, users.EntityBlock(0),
                    users.num_entities() * users.entity_stride())) {
      return nullptr;
    }
    if (!ReadFloats(in, items.EntityBlock(0),
                    items.num_entities() * items.entity_stride())) {
      return nullptr;
    }
  } else if (version == 1) {
    if (!ReadFacetStoreV1(in, &model->user_facets_)) return nullptr;
    if (!ReadFacetStoreV1(in, &model->item_facets_)) return nullptr;
  } else {
    if (!ReadFacetStoreV2(in, &model->user_facets_)) return nullptr;
    if (!ReadFacetStoreV2(in, &model->item_facets_)) return nullptr;
  }
  model->theta_logits_ = Matrix(shape.n_users, shape.kf);
  if (!ReadFloats(in, model->theta_logits_.data(),
                  shape.n_users * shape.kf)) {
    return nullptr;
  }
  model->radii_.assign(shape.kf, 1.0f);
  if (!ReadFloats(in, model->radii_.data(), shape.kf)) return nullptr;
  uint64_t n_margins = 0;
  if (!ReadU64(in, &n_margins) || n_margins != shape.n_users) return nullptr;
  model->margins_.assign(n_margins, 0.0f);
  if (!ReadFloats(in, model->margins_.data(), n_margins)) return nullptr;
  return model;
}

std::unique_ptr<Mars> LoadMarsMapped(const std::string& path) {
  std::shared_ptr<MappedFile> file = MappedFile::Open(path);
  if (file == nullptr) return nullptr;
  if (file->size() < kV3HeaderBytes) {
    MARS_LOG(ERROR) << "LoadMarsMapped: " << path
                    << " is too small to hold a v3 header";
    return nullptr;
  }
  const uint8_t* bytes = file->data();
  auto read_u32 = [bytes](size_t off) {
    uint32_t v;
    std::memcpy(&v, bytes + off, sizeof(v));
    return v;
  };
  auto read_u64 = [bytes](size_t off) {
    uint64_t v;
    std::memcpy(&v, bytes + off, sizeof(v));
    return v;
  };
  if (read_u32(0) != kMagic) {
    MARS_LOG(ERROR) << "LoadMarsMapped: bad magic in " << path;
    return nullptr;
  }
  const uint32_t version = read_u32(4);
  if (version != kVersionV3) {
    MARS_LOG(ERROR) << "LoadMarsMapped: " << path << " is format v"
                    << version << "; only v3 files are mmap-servable "
                    << "(copy-load with LoadMars, or re-save with "
                    << "SaveMarsV3)";
    return nullptr;
  }
  SnapshotShape shape;
  shape.kf = read_u64(8);
  shape.d = read_u64(16);
  shape.n_users = read_u64(24);
  shape.n_items = read_u64(32);
  shape.learn_radius = read_u32(40) != 0;
  shape.calibrated = read_u32(44) != 0;
  if (!ShapePlausible(shape, "LoadMarsMapped")) return nullptr;
  V3Layout layout;
  layout.row_stride = read_u64(48);
  layout.user_offset = read_u64(56);
  layout.item_offset = read_u64(64);
  layout.tail_offset = read_u64(72);
  if (!V3LayoutValid(shape, layout, "LoadMarsMapped")) return nullptr;

  // The tensor regions: validated (alignment, stride, in-bounds) and
  // wrapped without copying.
  auto mapped_users = MappedFacetStore::Create(
      file, layout.user_offset, shape.n_users, shape.kf, shape.d,
      layout.row_stride);
  auto mapped_items = MappedFacetStore::Create(
      file, layout.item_offset, shape.n_items, shape.kf, shape.d,
      layout.row_stride);
  if (mapped_users == nullptr || mapped_items == nullptr) return nullptr;

  // The small tail (Θ logits, radii, margin vector) is materialized —
  // together a few KB against the MBs of facet tensors.
  const uint64_t theta_floats = shape.n_users * shape.kf;
  uint64_t off = layout.tail_offset;
  auto take = [&](void* dst, uint64_t n_bytes) {
    if (off > file->size() || n_bytes > file->size() - off) return false;
    std::memcpy(dst, bytes + off, n_bytes);
    off += n_bytes;
    return true;
  };
  auto model = MakeModelForShape(shape);
  model->theta_logits_ = Matrix(shape.n_users, shape.kf);
  model->radii_.assign(shape.kf, 1.0f);
  uint64_t n_margins = 0;
  if (!take(model->theta_logits_.data(), theta_floats * sizeof(float)) ||
      !take(model->radii_.data(), shape.kf * sizeof(float)) ||
      !take(&n_margins, sizeof(n_margins)) || n_margins != shape.n_users) {
    MARS_LOG(ERROR) << "LoadMarsMapped: truncated or corrupt tail in "
                    << path;
    return nullptr;
  }
  model->margins_.assign(n_margins, 0.0f);
  if (!take(model->margins_.data(), n_margins * sizeof(float))) {
    MARS_LOG(ERROR) << "LoadMarsMapped: truncated margin vector in " << path;
    return nullptr;
  }

  // Point the model's stores straight at the mapping; the shared MappedFile
  // keeps the pages alive for the model's lifetime.
  model->user_facets_ = mapped_users->store();
  model->item_facets_ = mapped_items->store();
  model->storage_keepalive_ = std::move(file);
  return model;
}

}  // namespace mars
