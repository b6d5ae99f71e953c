// The one serving request/response surface, shared by every entry into
// the top-k server: in-process callers (TopKServer::TopK / TopKBatch),
// the wire codec (net/protocol.h encodes exactly these value types into
// frames and back), and the bench/test harnesses. Keeping the vocabulary
// types here — not in top_k_server.h — lets the codec and the client
// speak the request language without pulling in the server, its cache,
// or the ANN tier.
//
// Contract split between the two call forms:
//
//  * The TopKRequest form *reports*: a malformed request (out-of-range
//    user, k above the server's configured depth, unknown flag bits)
//    comes back as a TopKResponse whose status names the rejection and
//    whose item list is empty. This is the only acceptable behavior for
//    requests that crossed a wire — remote bytes must never abort the
//    process.
//  * The thin UserId compat overloads *assert*: they keep the original
//    in-process contract (MARS_CHECK on an out-of-range user), because
//    their callers pass ids they derived from the catalog shape and a
//    violation is a caller bug, not input.
#ifndef MARS_SERVE_REQUEST_H_
#define MARS_SERVE_REQUEST_H_

#include <cstdint>
#include <vector>

#include "data/interaction.h"

namespace mars {

/// Request flag bits (TopKRequest::flags). Unknown bits are rejected with
/// TopKStatus::kInvalidFlags rather than ignored, so a newer client's
/// flags can never be silently dropped by an older server.
enum TopKRequestFlags : uint32_t {
  kTopKFlagNone = 0,
  /// Skip the cache read: the answer comes from a fresh sweep of the
  /// current snapshot (it still populates the cache under the usual
  /// pinned-epoch rule). The forced-freshness escape hatch for callers
  /// that must observe the latest published epoch.
  kTopKFlagBypassCache = 1u << 0,
};

/// Every defined flag bit; anything outside is kInvalidFlags.
inline constexpr uint32_t kTopKFlagsMask = kTopKFlagBypassCache;

/// One top-k query.
struct TopKRequest {
  UserId user = 0;
  /// Ranking depth: 0 means "the server's configured k". A smaller k is
  /// served as the exact prefix of the configured-depth ranking (a prefix
  /// of a top-K list is the top-k list); a larger k cannot be served from
  /// a cache built at the configured depth and is rejected with
  /// kInvalidK.
  uint32_t k = 0;
  /// Bitwise-or of TopKRequestFlags.
  uint32_t flags = 0;
};

/// Why a response carries no ranking (or does): the status vocabulary is
/// shared verbatim by the wire protocol (docs/PROTOCOL.md error codes
/// 0-15 are exactly these values).
enum class TopKStatus : uint8_t {
  kOk = 0,
  kInvalidUser = 1,   // user id outside [0, num_users)
  kInvalidK = 2,      // k above the server's configured ranking depth
  kInvalidFlags = 3,  // unknown flag bits set
};

/// One answered query. status != kOk ⇒ items/scores are empty and epoch
/// is 0 (the request never reached a snapshot).
struct TopKResponse {
  std::vector<ItemId> items;  // ranked best-first
  std::vector<float> scores;  // parallel to items
  uint64_t epoch = 0;  // model epoch the ranking was computed/refreshed at
  TopKStatus status = TopKStatus::kOk;
  bool from_cache = false;
};

}  // namespace mars

#endif  // MARS_SERVE_REQUEST_H_
