// Persisted candidate indexes: zero-rebuild restarts for the retrieval
// tier.
//
// A built SphericalIvfIndex is a handful of flat contiguous arrays (the
// centroids, the per-item assignment and the CSR inverted lists), so
// persisting it follows the format-v3 playbook
// (docs/FORMAT.md): SaveCandidateIndex writes the arrays at their
// in-memory stride into a self-describing index file — fixed header
// (magic "MRSI", version, kind, shape, build parameters), a region
// table placing every array at a 64-byte-aligned file offset with a
// CRC-32 over its bytes — and LoadCandidateIndexMapped mmaps it back as
// an immutable borrowed-buffer index (common/maybe_owned.h) that pins
// the mapping with a keepalive shared_ptr, the LoadMarsMapped lifetime
// contract. Probes on a mapped index are bit-identical to the freshly
// built one (same bytes, same code), and Rebuilt() copies-on-write only
// what a dirty absorb must mutate, so a restart serves ANN traffic
// without re-running k-means.
//
// Pairing contract, like the top-k sidecar: an index file stores
// shape, not provenance — it is only meaningful next to the exact
// model snapshot it was built from. The loader verifies the mechanical
// part (kind, dim vs the model's index_dim(), item count, layout,
// checksums, CSR/permutation invariants); shipping the index next to the
// right snapshot is the caller's job — treat snapshot + index + sidecar
// as one restart unit and regenerate all three together.
#ifndef MARS_ANN_INDEX_IO_H_
#define MARS_ANN_INDEX_IO_H_

#include <memory>
#include <string>

#include "ann/ivf_index.h"

namespace mars {

/// Writes `index` to `path` (see docs/FORMAT.md for the byte layout),
/// replacing any existing file by rename (common/binary_io.h
/// WriteFileAtomic), so a server that mapped the old file keeps serving
/// it intact. Returns false with an error log on I/O failure.
bool SaveCandidateIndex(const SphericalIvfIndex& index,
                        const std::string& path);

/// Maps the index at `path` and returns it as an immutable, probe-ready
/// SphericalIvfIndex borrowing the mapping (zero copy; the mapping is kept alive
/// for the life of the returned index and anything derived from it). `model`
/// and `num_items` are the serving pair the index must match: a dim other than
/// the model's index_dim() (an unindexable model's 0 never matches) or a wrong
/// item count rejects, as do bad magic/version, implausible or inconsistent
/// headers, truncation, and checksum mismatches — always with a clean nullptr
/// + error log, never a crash or allocation blow-up. The result plugs directly
/// into TopKServerOptions::ann.prebuilt.
std::shared_ptr<const SphericalIvfIndex> LoadCandidateIndexMapped(
    const std::string& path, const ItemScorer& model, size_t num_items);

}  // namespace mars

#endif  // MARS_ANN_INDEX_IO_H_
