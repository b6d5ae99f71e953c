#include "serve/top_k_sidecar.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/binary_io.h"
#include "common/logging.h"
#include "common/mapped_file.h"

namespace mars {
namespace {

constexpr uint32_t kSidecarMagic = 0x4B53524D;  // "MRSK"
constexpr uint32_t kSidecarVersion = 1;

// Layout (little-endian):
//   magic u32, version u32, k u64, num_users u64, num_items u64,
//   num_entries u64, then per entry: user u32, count u32, count floats
//   (scores), count u32s (items). Entries are ordered most recently used
//   first, matching ForEachCached.

/// True when `items`/`scores` have the form of a ranking the server serves:
/// in-catalog items, no NaN score, strictly ordered best first by (score
/// desc, item id asc) — the order TopKServer's RanksBetter selects by, so
/// an item listed twice at one score fails too. This checks form, not
/// truth: like a made-up score, an item listed at two scores passes.
bool RankingServable(std::span<const ItemId> items,
                     std::span<const float> scores, uint64_t n_items) {
  for (size_t j = 0; j < items.size(); ++j) {
    const ItemId v = items[j];
    if (v >= n_items || std::isnan(scores[j])) return false;
    if (j > 0 && !(scores[j - 1] > scores[j] ||
                   (scores[j - 1] == scores[j] && items[j - 1] < v))) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool SaveTopKSidecar(const TopKServer& server, const std::string& path) {
  // Collect in one ForEachCached traversal, then write the header with
  // the count actually collected: reading the count and the entries in
  // separate passes could disagree when frontend queries race the save
  // (the server's read front is allowed to run during maintenance), and
  // a mismatched count makes the loader reject the whole sidecar. The
  // rankings are gathered back to back: entry i holds counts[i] items.
  std::vector<UserId> users;
  std::vector<uint32_t> counts;
  std::vector<ItemId> items;
  std::vector<float> scores;
  server.ForEachCached([&](UserId u, std::span<const ItemId> entry_items,
                           std::span<const float> entry_scores) {
    users.push_back(u);
    counts.push_back(static_cast<uint32_t>(entry_items.size()));
    items.insert(items.end(), entry_items.begin(), entry_items.end());
    scores.insert(scores.end(), entry_scores.begin(), entry_scores.end());
  });
  return WriteFileAtomic(path, "SaveTopKSidecar", [&](std::ostream& out) {
    WriteU32(out, kSidecarMagic);
    WriteU32(out, kSidecarVersion);
    WriteU64(out, server.options().k);
    WriteU64(out, server.num_users());
    WriteU64(out, server.num_items());
    WriteU64(out, users.size());
    size_t at = 0;
    for (size_t i = 0; i < users.size(); ++i) {
      WriteU32(out, users[i]);
      WriteU32(out, counts[i]);
      WriteFloats(out, scores.data() + at, counts[i]);
      // Entries are tiny (<= k ids), so per-element writes through the
      // shared helper beat a raw byte dump that would bypass it.
      for (size_t j = 0; j < counts[i]; ++j) WriteU32(out, items[at + j]);
      at += counts[i];
    }
  });
}

size_t WarmFromSidecar(TopKServer* server, const std::string& path) {
  // Map the file once and validate it in place; every read below is
  // bounded by the mapped size, never by a length the file claims.
  const std::shared_ptr<MappedFile> file = MappedFile::Open(path);
  if (file == nullptr) {
    MARS_LOG(ERROR) << "WarmFromSidecar: cannot open " << path;
    return 0;
  }
  ByteReader r(file->data(), file->size());

  uint32_t magic = 0, version = 0;
  if (!r.Read(&magic) || magic != kSidecarMagic) {
    MARS_LOG(ERROR) << "WarmFromSidecar: bad magic in " << path;
    return 0;
  }
  if (!r.Read(&version) || version != kSidecarVersion) {
    MARS_LOG(ERROR) << "WarmFromSidecar: unsupported sidecar version";
    return 0;
  }
  uint64_t k = 0, n_users = 0, n_items = 0, n_entries = 0;
  if (!r.Read(&k) || !r.Read(&n_users) || !r.Read(&n_items) ||
      !r.Read(&n_entries)) {
    MARS_LOG(ERROR) << "WarmFromSidecar: truncated header in " << path;
    return 0;
  }
  if (k != server->options().k || n_users != server->num_users() ||
      n_items != server->num_items()) {
    MARS_LOG(ERROR) << "WarmFromSidecar: sidecar shape (k=" << k << ", "
                    << n_users << " users, " << n_items << " items) does "
                    << "not match the server (k=" << server->options().k
                    << ", " << server->num_users() << " users, "
                    << server->num_items() << " items)";
    return 0;
  }
  if (n_entries > n_users) {
    MARS_LOG(ERROR) << "WarmFromSidecar: implausible entry count in "
                    << path;
    return 0;
  }

  // Validate every entry before touching the server: a corrupt sidecar
  // loads nothing instead of half a cache. The saver writes each cached
  // user once, so a repeated user is corruption too (priming would
  // silently replace the first entry and the count would over-report).
  // Each entry becomes a view of its bytes in the mapping (the layout
  // keeps every field 4-byte aligned), filled back to front: the file
  // stores most-recent-first, and priming in reverse puts the hottest
  // user at the front of the LRU again.
  const uint64_t max_count = std::min<uint64_t>(k, n_items);
  std::vector<TopKServer::PrimeEntry> entries(n_entries);
  std::vector<bool> seen(n_users);
  for (uint64_t i = 0; i < n_entries; ++i) {
    uint32_t user = 0, count = 0;
    if (!r.Read(&user) || !r.Read(&count) || user >= n_users ||
        count > max_count || seen[user]) {
      MARS_LOG(ERROR) << "WarmFromSidecar: corrupt entry " << i << " in "
                      << path;
      return 0;
    }
    seen[user] = true;
    const float* scores = nullptr;
    const ItemId* items = nullptr;
    if (!r.Borrow(&scores, count) || !r.Borrow(&items, count)) {
      MARS_LOG(ERROR) << "WarmFromSidecar: truncated entry " << i << " in "
                      << path;
      return 0;
    }
    TopKServer::PrimeEntry& e = entries[n_entries - 1 - i];
    e = {user, {items, count}, {scores, count}};
    if (!RankingServable(e.items, e.scores, n_items)) {
      MARS_LOG(ERROR) << "WarmFromSidecar: entry " << i << " of " << path
                      << " is not a ranking the server could produce";
      return 0;
    }
  }
  if (r.remaining() != 0) {
    MARS_LOG(ERROR) << "WarmFromSidecar: " << r.remaining()
                    << " bytes after the last entry of " << path;
    return 0;
  }
  // The views die with `file`, after Prime has copied every ranking.
  return server->Prime(entries);
}

}  // namespace mars
