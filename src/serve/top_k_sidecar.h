// Persisted top-k cache sidecar: warm serving starts for mapped snapshots.
//
// A freshly constructed TopKServer — e.g. one pointed at an mmap'd v3
// snapshot right after a restart or model swap (core/persistence.h
// LoadMarsMapped) — starts with an empty cache, so every hot user pays one
// cold full-catalog sweep before the >1000x cached path kicks in. The
// sidecar closes that gap: SaveTopKSidecar dumps the server's cached
// rankings next to the model snapshot, and WarmFromSidecar primes a new
// server with them, preserving the LRU order (per cache stripe — a
// striped server has no global recency order; configure cache.stripes=1
// when the exact global order matters), so the first query of a
// previously-hot user is a cache hit. AbsorbWrites treats primed entries
// like swept ones, so on a server whose misses take the exact sweep a
// warmed cache also stays warm across mostly-clean training epochs.
//
// Pairing contract: a sidecar stores rankings, not parameters, so it is
// only meaningful next to the exact model snapshot it was generated
// with, served under the same TopKServerOptions (in particular the same
// exclude_interactions set). What the loader *verifies* is the cheap,
// mechanical part — k, user count, item count, per-entry bounds, no
// repeated user, no bytes after the last entry — which
// catches wrong-catalog and corrupt files; binding the sidecar to the
// right snapshot and options is the caller's job (ship the two files as
// a unit and regenerate the sidecar whenever either changes).
#ifndef MARS_SERVE_TOP_K_SIDECAR_H_
#define MARS_SERVE_TOP_K_SIDECAR_H_

#include <cstddef>
#include <string>

#include "serve/top_k_server.h"

namespace mars {

/// Writes every cached entry of `server` (most recently used first) to
/// `path`, replacing any existing file by rename (common/binary_io.h
/// WriteFileAtomic). Returns false on I/O error. An empty cache writes a
/// valid, empty sidecar.
bool SaveTopKSidecar(const TopKServer& server, const std::string& path);

/// Primes `server` from a sidecar previously written by SaveTopKSidecar.
/// The sidecar's k, user count, and item count must match the server's;
/// mismatches, bad magic, truncated or corrupt entries, a user listed
/// twice and bytes after the last entry load nothing and return 0 with an
/// error log. Returns the number of entries primed
/// (the server's LRU bound may retain fewer).
size_t WarmFromSidecar(TopKServer* server, const std::string& path);

}  // namespace mars

#endif  // MARS_SERVE_TOP_K_SIDECAR_H_
