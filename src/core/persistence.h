// Binary model persistence for the core recommenders.
//
// Three on-disk formats share the magic/version/shape header; the byte
// layouts and the compatibility matrix are documented in docs/FORMAT.md:
//   v1  facet-major tensors (historical; load-only),
//   v2  entity-major tensors, padding stripped (the compact interchange
//       format SaveMars writes),
//   v3  entity-major tensors at the exact in-memory FacetStore stride with
//       64-byte-aligned regions (SaveMarsV3) — the payload of a v3 file IS
//       a valid FacetStore buffer, so LoadMarsMapped can mmap it and serve
//       with zero copy (common/mapped_store.h).
//
// LoadMars copy-loads any version; LoadMarsMapped requires v3.
#ifndef MARS_CORE_PERSISTENCE_H_
#define MARS_CORE_PERSISTENCE_H_

#include <memory>
#include <string>

#include "core/mars.h"

namespace mars {

/// Writes a trained MARS model to `path` in format v2 (entity-major,
/// unpadded — the compact interchange layout). Returns false on I/O error.
/// The model must have been Fit (facet tables populated). Both savers
/// replace an existing file by rename (common/binary_io.h WriteFileAtomic),
/// so a server that mapped the old file keeps serving it intact.
bool SaveMars(const Mars& model, const std::string& path);

/// Writes a trained MARS model to `path` in format v3: the facet tensors
/// are written padded to the aligned FacetStore row stride, each region
/// starting on a 64-byte file offset, so the file can be served zero-copy
/// via LoadMarsMapped. ~row-padding bytes larger than v2 (zero when dim is
/// already a 16-float multiple). Returns false on I/O error.
bool SaveMarsV3(const Mars& model, const std::string& path);

/// Reads a MARS model previously written by SaveMars or SaveMarsV3 (any
/// format version) into freshly allocated, owned storage. Returns nullptr
/// on I/O error, bad magic, version mismatch, or truncated payload. The
/// returned model scores immediately (no Fit required).
std::unique_ptr<Mars> LoadMars(const std::string& path);

/// Maps a format-v3 file read-only and returns a serve-ready model whose
/// facet tensors alias the mapping directly — no load-time copy; only the
/// small Θ/radii/margin tails are materialized. The model keeps the mapping
/// alive, is immutable (Fit aborts; see Mars::mapped()), and its
/// Score/ScoreItems/ScoreItemRange run the same kernels as an owned store,
/// so it can be handed to TopKServer::ReplaceModel unchanged. Returns
/// nullptr (with an error log) on non-v3 input, bad alignment, wrong
/// stride, or truncation.
std::unique_ptr<Mars> LoadMarsMapped(const std::string& path);

}  // namespace mars

#endif  // MARS_CORE_PERSISTENCE_H_
