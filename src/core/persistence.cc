#include "core/persistence.h"

#include <cstdint>
#include <vector>

#include "common/binary_io.h"
#include "common/logging.h"
#include "common/mapped_file.h"

namespace mars {
namespace {

constexpr uint32_t kMagic = 0x4D415253;  // "MARS"
// Byte layout: docs/FORMAT.md. Entity-major tensors at the aligned
// in-memory row stride, regions on 64-byte file offsets — mmap-servable.
// Versions 1 and 2 (the packed copy-load formats) are rejected.
constexpr uint32_t kVersion = 3;

// Header (128 bytes): magic u32, version u32, num_facets u64, dim u64,
// n_users u64, n_items u64, learn_radius u32, calibrated u32 (48 bytes),
// then row_stride u64, user_offset u64, item_offset u64, tail_offset u64
// (ending at 80), then zero padding up to the first 64-byte boundary past
// the fields so the user tensor starts aligned.
constexpr size_t kHeaderFieldBytes = 80;
constexpr size_t kHeaderBytes = 128;

/// Shape fields, decoded from the header.
struct SnapshotShape {
  uint64_t kf = 0, d = 0, n_users = 0, n_items = 0;
  bool learn_radius = false;
  bool calibrated = true;
};

/// Plausibility bounds: reject corrupt/crafted headers before any size
/// computation can wrap.
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

/// Region offsets, after the shape fields.
struct Layout {
  uint64_t row_stride = 0;  // floats
  uint64_t user_offset = 0;  // bytes from file start
  uint64_t item_offset = 0;
  uint64_t tail_offset = 0;
};

/// Validates the layout against the shape: the stride must be the aligned
/// in-memory stride and the three regions must tile the file exactly
/// (user tensor at the padded header boundary, item tensor and tail
/// immediately after the preceding region).
bool LayoutValid(const SnapshotShape& s, const Layout& l, const char* who) {
  if (l.row_stride != FacetStore::RowStrideFor(s.d)) {
    MARS_LOG(ERROR) << who << ": row stride " << l.row_stride
                    << " does not match the aligned stride "
                    << FacetStore::RowStrideFor(s.d) << " for dim " << s.d;
    return false;
  }
  const uint64_t user_bytes =
      s.n_users * s.kf * l.row_stride * sizeof(float);
  const uint64_t item_bytes =
      s.n_items * s.kf * l.row_stride * sizeof(float);
  if (l.user_offset != kHeaderBytes ||
      l.item_offset != l.user_offset + user_bytes ||
      l.tail_offset != l.item_offset + item_bytes ||
      l.user_offset % FacetStore::kRowAlignBytes != 0 ||
      l.item_offset % FacetStore::kRowAlignBytes != 0) {
    MARS_LOG(ERROR) << who << ": region offsets are inconsistent or "
                    << "misaligned";
    return false;
  }
  return true;
}

}  // namespace

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
    const uint64_t user_offset = kHeaderBytes;
    const uint64_t item_offset = user_offset + user_bytes;
    const uint64_t tail_offset = item_offset + item_bytes;

    WriteU32(out, kMagic);
    WriteU32(out, kVersion);
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
    const std::vector<char> zeros(kHeaderBytes - kHeaderFieldBytes, 0);
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

std::unique_ptr<Mars> LoadMarsMapped(const std::string& path) {
  const char* who = "LoadMarsMapped";
  std::shared_ptr<MappedFile> file = MappedFile::Open(path);
  if (file == nullptr) return nullptr;
  ByteReader header(file->data(), file->size());
  uint32_t magic = 0, version = 0, learn_radius = 0, calibrated = 0;
  if (!header.Read(&magic) || magic != kMagic) {
    MARS_LOG(ERROR) << who << ": bad magic in " << path;
    return nullptr;
  }
  if (!header.Read(&version) || version != kVersion) {
    MARS_LOG(ERROR) << who << ": " << path << " is not a format v"
                    << kVersion << " snapshot (versions 1 and 2 are no "
                    << "longer loadable; re-save with SaveMarsV3)";
    return nullptr;
  }
  SnapshotShape shape;
  Layout layout;
  if (!header.Read(&shape.kf) || !header.Read(&shape.d) ||
      !header.Read(&shape.n_users) || !header.Read(&shape.n_items) ||
      !header.Read(&learn_radius) || !header.Read(&calibrated) ||
      !header.Read(&layout.row_stride) || !header.Read(&layout.user_offset) ||
      !header.Read(&layout.item_offset) || !header.Read(&layout.tail_offset)) {
    MARS_LOG(ERROR) << who << ": " << path << " is too small to hold a "
                    << "header";
    return nullptr;
  }
  shape.learn_radius = learn_radius != 0;
  shape.calibrated = calibrated != 0;
  if (!ShapePlausible(shape, who) || !LayoutValid(shape, layout, who)) {
    return nullptr;
  }
  // The layout tiles [0, tail_offset) exactly, so this one check puts
  // both tensors inside the mapping.
  if (layout.tail_offset > file->size()) {
    MARS_LOG(ERROR) << who << ": " << path << " holds " << file->size()
                    << " bytes but its tensors end at " << layout.tail_offset
                    << " — truncated payload";
    return nullptr;
  }

  // The tail grows with the user count (Θ logits are N×K floats, the
  // margins N), so Θ and the margins are borrowed in place like the
  // tensors; only the K radii are copied. tail_offset ends the item
  // tensor, so it is 64-byte aligned and the margins, after the u64
  // count, 4-byte aligned: Borrow's alignment check cannot fail on a
  // well-formed file, and every read is bounded by the mapped size.
  auto model = MakeModelForShape(shape);
  ByteReader tail(file->data() + layout.tail_offset,
                  file->size() - layout.tail_offset);
  const float* theta_logits = nullptr;
  const float* margins = nullptr;
  uint64_t n_margins = 0;
  if (!tail.Borrow(&theta_logits, shape.n_users * shape.kf) ||
      !tail.ReadArray(model->radii_.data(), shape.kf) ||
      !tail.Read(&n_margins) || n_margins != shape.n_users) {
    MARS_LOG(ERROR) << who << ": truncated or corrupt tail in " << path;
    return nullptr;
  }
  if (!tail.Borrow(&margins, n_margins)) {
    MARS_LOG(ERROR) << who << ": truncated margin vector in " << path;
    return nullptr;
  }
  model->theta_logits_.Borrow(theta_logits, shape.n_users * shape.kf);
  model->margins_.Borrow(margins, n_margins);

  // Point the model's stores straight at the mapping (validated above:
  // aligned offsets, the aligned stride, in bounds); the shared MappedFile
  // keeps the pages alive for the model's lifetime.
  const auto borrow = [&](uint64_t offset, uint64_t entities) {
    return FacetStore::BorrowConst(
        reinterpret_cast<const float*>(file->data() + offset), entities,
        shape.kf, shape.d, layout.row_stride);
  };
  model->user_facets_ = borrow(layout.user_offset, shape.n_users);
  model->item_facets_ = borrow(layout.item_offset, shape.n_items);
  model->storage_keepalive_ = std::move(file);
  return model;
}

}  // namespace mars
