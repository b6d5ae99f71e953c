// Binary model persistence for the core recommenders.
//
// One on-disk format, v3 (byte layout in docs/FORMAT.md): entity-major
// facet tensors at the exact in-memory FacetStore stride, each region on a
// 64-byte file offset, so the payload of a v3 file IS a valid FacetStore
// buffer. One parser reads it: LoadMarsMapped maps the file and borrows
// the tensors, Θ and the margins in place (FacetStore::BorrowConst and
// MaybeOwned::Borrow over a MappedFile);
// Mars::ServingSnapshot copies a mapped model into owned storage. Versions
// 1 and 2, the packed formats earlier releases wrote, are rejected.
#ifndef MARS_CORE_PERSISTENCE_H_
#define MARS_CORE_PERSISTENCE_H_

#include <memory>
#include <string>

#include "core/mars.h"

namespace mars {

/// Writes a trained MARS model to `path` in format v3: the facet tensors
/// are written padded to the aligned FacetStore row stride, each region
/// starting on a 64-byte file offset, so the file can be served zero-copy
/// via LoadMarsMapped. Returns false on I/O error. The model must have
/// been Fit (facet tables populated). The save replaces an existing file
/// by rename (common/binary_io.h WriteFileAtomic), so a server that mapped
/// the old file keeps serving it intact.
bool SaveMarsV3(const Mars& model, const std::string& path);

/// Maps a format-v3 file read-only and returns a serve-ready model whose
/// facet tensors, Θ logits and margins alias the mapping directly — no
/// load-time copy. Θ (4·N·K bytes) and the margins (4·N bytes) grow with
/// the user count: 320 KB and 80 KB at 20 000 users and 4 facets. Only the
/// K facet radii are copied. The model keeps the mapping
/// alive, is immutable (Fit aborts; see Mars::mapped()), and its
/// Score/ScoreItems/ScoreItemRange run the same kernels as an owned store,
/// so it can be handed to TopKServer::ReplaceModel unchanged. Returns
/// nullptr (with an error log) on bad magic, any version but 3, an
/// implausible shape, bad alignment, wrong stride, or truncation.
std::unique_ptr<Mars> LoadMarsMapped(const std::string& path);

}  // namespace mars

#endif  // MARS_CORE_PERSISTENCE_H_
