// Seeded randomized differential test: a mixed-validity TopKRequest
// stream generated from one Rng seed is sent twice — over TCP through
// NetClient/NetServer, and directly into an identically configured
// in-process TopKServer — and every response must match bit-for-bit:
// items, float scores, epoch, and status. This pins the entire wire
// path — encode, frame, reactor, batch coalescing, decode — as a no-op
// on serving semantics, under traffic no hand-written case enumerates.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "eval/scorer.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serve/request.h"
#include "serve/top_k_server.h"

namespace mars {
namespace {

class ToyScorer : public ItemScorer {
 public:
  float Score(UserId u, ItemId v) const override {
    return static_cast<float>((v * 41 + u * 13) % 157) * 0.25f;
  }
};

constexpr size_t kUsers = 48;
constexpr size_t kItems = 160;
constexpr size_t kDepth = 8;

TopKRequest RandomRequest(Rng* rng) {
  TopKRequest req;
  const double r = rng->Uniform();
  if (r < 0.08) {
    req.user = static_cast<UserId>(kUsers + rng->UniformInt(5));
  } else {
    req.user = static_cast<UserId>(rng->UniformInt(kUsers));
  }
  if (r >= 0.08 && r < 0.16) {
    req.k = static_cast<uint32_t>(kDepth + 1 + rng->UniformInt(4));
  } else {
    req.k = static_cast<uint32_t>(rng->UniformInt(kDepth + 1));  // 0 = full
  }
  if (r >= 0.16 && r < 0.22) {
    req.flags = 1u << (1 + rng->UniformInt(3));  // undefined flag bit
  } else if (rng->Bernoulli(0.1)) {
    req.flags = kTopKFlagBypassCache;
  }
  return req;
}

void ExpectBitIdentical(const WireResponse& wire, const TopKResponse& want,
                        size_t i) {
  EXPECT_EQ(wire.status, WireStatusOf(want.status)) << "request " << i;
  ASSERT_EQ(wire.response.items.size(), want.items.size()) << "request " << i;
  for (size_t j = 0; j < want.items.size(); ++j) {
    EXPECT_EQ(wire.response.items[j], want.items[j])
        << "request " << i << " rank " << j;
    // Bitwise float equality: the wire carries the exact sweep output.
    EXPECT_EQ(wire.response.scores[j], want.scores[j])
        << "request " << i << " rank " << j;
  }
  EXPECT_EQ(wire.response.epoch, want.epoch) << "request " << i;
}

TEST(ScenarioDifferentialTest, RandomStreamMatchesInProcessBitwise) {
  ToyScorer scorer;
  TopKServerOptions opts;
  opts.k = kDepth;
  TopKServer wire_side(&scorer, kUsers, kItems, opts);
  TopKServer in_process(&scorer, kUsers, kItems, opts);

  NetServer server(&wire_side, NetServerOptions{});
  ASSERT_TRUE(server.Start());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));

  Rng rng(20260808);
  for (size_t i = 0; i < 400; ++i) {
    const TopKRequest req = RandomRequest(&rng);
    WireResponse wire;
    ASSERT_TRUE(client.TopK(req, &wire)) << "request " << i;
    ExpectBitIdentical(wire, in_process.TopK(req), i);
  }
  server.Stop();
}

TEST(ScenarioDifferentialTest, PipelinedBurstsMatchInProcessBitwise) {
  ToyScorer scorer;
  TopKServerOptions opts;
  opts.k = kDepth;
  TopKServer wire_side(&scorer, kUsers, kItems, opts);
  TopKServer in_process(&scorer, kUsers, kItems, opts);

  NetServer server(&wire_side, NetServerOptions{});
  ASSERT_TRUE(server.Start());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));

  Rng rng(9157);
  for (size_t burst = 0; burst < 12; ++burst) {
    std::vector<TopKRequest> reqs(1 + rng.UniformInt(24));
    for (TopKRequest& r : reqs) r = RandomRequest(&rng);
    std::vector<WireResponse> out;
    ASSERT_TRUE(client.TopKPipelined(reqs, &out)) << "burst " << burst;
    ASSERT_EQ(out.size(), reqs.size());
    // The server coalesces whatever lands together into TopKBatch — the
    // differential check shows batching never changes any payload byte.
    for (size_t i = 0; i < reqs.size(); ++i) {
      ExpectBitIdentical(out[i], in_process.TopK(reqs[i]), i);
    }
  }
  EXPECT_GT(wire_side.stats().batch_sweeps, 0u);
  server.Stop();
}

}  // namespace
}  // namespace mars
