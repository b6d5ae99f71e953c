// Wire-to-wire serving tests over the epoll reactor. The contracts under
// test:
//
//  * Bit-identity: a TCP round-trip returns exactly the bytes the
//    in-process TopK produces for the same user/epoch — items, float
//    scores, epoch, status.
//  * Natural batching: frames pipelined in one burst are served through
//    one TopKServer::TopKBatch (visible in stats().batch_sweeps and the
//    server's wire_batches_multi).
//  * Robustness: hostile frames (bad magic/version/checksum, oversized,
//    unknown type, malformed payload) are answered per protocol.h's
//    trust split — error frame + close for stream-level violations,
//    error frame + live connection for frame-level ones — and a
//    byte-at-a-time sender is reassembled correctly. A process out of file
//    descriptors sheds a pending connection (the peer reads one
//    kOverloaded frame, then EOF) instead of spinning on the readable
//    listener, a connection over max_connections is shed the same way,
//    and a peer dropped in the middle of a wake-up never hands its
//    answers to the next client that gets its descriptor number.
//  * Lifecycle: Start is one-shot; a second call opens nothing.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/scorer.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serve/top_k_server.h"

namespace mars {
namespace {

class ToyScorer : public ItemScorer {
 public:
  float Score(UserId u, ItemId v) const override {
    return static_cast<float>((v * 37 + u * 11) % 101);
  }
};

/// Holds the first range sweep after Arm() until Release(), so a test can
/// stall the reactor inside TopKBatch; every other sweep runs through.
class GateScorer : public ToyScorer {
 public:
  void ScoreItemRange(UserId u, ItemId begin, ItemId end,
                      float* out) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (armed_) {
        armed_ = false;
        entered_ = true;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
      }
    }
    ToyScorer::ScoreItemRange(u, begin, end, out);
  }

  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable bool armed_ = false;
  mutable bool entered_ = false;
  mutable bool released_ = false;
};

constexpr size_t kUsers = 64;
constexpr size_t kItems = 200;

/// The reason a shed peer reads before EOF: a kError frame with request
/// id 0 and code kOverloaded.
void ExpectOverloadedFrame(const Frame& frame) {
  ASSERT_EQ(frame.type, FrameType::kError);
  uint64_t id = 1;
  WireStatus code = WireStatus::kOk;
  ASSERT_TRUE(DecodeErrorPayload(frame.payload, &id, &code));
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(code, WireStatus::kOverloaded);
}

TopKServerOptions ServeOptions(size_t k = 8) {
  TopKServerOptions opts;
  opts.k = k;
  return opts;
}

TEST(NetServerTest, RoundTripIsBitIdenticalToInProcess) {
  ToyScorer scorer;
  TopKServer wire_side(&scorer, kUsers, kItems, ServeOptions());
  TopKServer in_process(&scorer, kUsers, kItems, ServeOptions());

  NetServer server(&wire_side, NetServerOptions{});
  ASSERT_TRUE(server.Start());
  ASSERT_NE(server.port(), 0);
  EXPECT_EQ(server.backend_name(), "epoll");

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  for (UserId u : {0u, 13u, 63u}) {
    WireResponse wire;
    ASSERT_TRUE(client.TopK(TopKRequest{.user = u}, &wire));
    const TopKResponse want = in_process.TopK(u);
    EXPECT_EQ(wire.status, WireStatus::kOk);
    EXPECT_EQ(wire.response.status, TopKStatus::kOk);
    EXPECT_EQ(wire.response.items, want.items) << "user " << u;
    EXPECT_EQ(wire.response.scores, want.scores) << "user " << u;
    EXPECT_EQ(wire.response.epoch, want.epoch) << "user " << u;
  }

  // Second query: served from the wire-side cache, same payload.
  WireResponse warm;
  ASSERT_TRUE(client.TopK(TopKRequest{.user = 13}, &warm));
  EXPECT_TRUE(warm.response.from_cache);
  EXPECT_EQ(warm.response.items, in_process.TopK(13).items);
  server.Stop();
}

TEST(NetServerTest, RequestRejectionsTravelAsResponses) {
  ToyScorer scorer;
  TopKServer top_k(&scorer, kUsers, kItems, ServeOptions(8));
  NetServer server(&top_k, NetServerOptions{});
  ASSERT_TRUE(server.Start());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));

  WireResponse bad_user;
  ASSERT_TRUE(client.TopK(TopKRequest{.user = kUsers}, &bad_user));
  EXPECT_EQ(bad_user.status, WireStatus::kInvalidUser);
  EXPECT_TRUE(bad_user.response.items.empty());

  WireResponse bad_k;
  ASSERT_TRUE(client.TopK(TopKRequest{.user = 1, .k = 9}, &bad_k));
  EXPECT_EQ(bad_k.status, WireStatus::kInvalidK);

  WireResponse bad_flags;
  ASSERT_TRUE(
      client.TopK(TopKRequest{.user = 1, .flags = 1u << 9}, &bad_flags));
  EXPECT_EQ(bad_flags.status, WireStatus::kInvalidFlags);

  // The connection survived three rejections.
  WireResponse ok;
  ASSERT_TRUE(client.TopK(TopKRequest{.user = 1}, &ok));
  EXPECT_EQ(ok.status, WireStatus::kOk);
  EXPECT_FALSE(ok.response.items.empty());
}

TEST(NetServerTest, PipelinedBurstEntersOneTopKBatchSweep) {
  ToyScorer scorer;
  TopKServer top_k(&scorer, kUsers, kItems, ServeOptions());
  TopKServer solo(&scorer, kUsers, kItems, ServeOptions());
  NetServer server(&top_k, NetServerOptions{});
  ASSERT_TRUE(server.Start());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));

  // One send() burst of 8 distinct cold users: the whole burst sits in
  // the server's socket buffer before its reactor wakes, so one
  // wake-up decodes all 8 and serves them through one TopKBatch call,
  // whose distinct-miss group runs as one multi-user sweep.
  std::vector<TopKRequest> burst;
  for (UserId u = 0; u < 8; ++u) burst.push_back(TopKRequest{.user = u});
  std::vector<WireResponse> responses;
  ASSERT_TRUE(client.TopKPipelined(burst, &responses));
  ASSERT_EQ(responses.size(), burst.size());
  for (size_t i = 0; i < burst.size(); ++i) {
    const TopKResponse want = solo.TopK(burst[i].user);
    EXPECT_EQ(responses[i].status, WireStatus::kOk);
    EXPECT_EQ(responses[i].response.items, want.items) << "pos " << i;
    EXPECT_EQ(responses[i].response.scores, want.scores) << "pos " << i;
  }

  // The batching is demonstrable, not incidental: the wire fed >1
  // request to one TopKBatch call, and the serve layer swept >1 user
  // in one multi-user sweep.
  EXPECT_GE(server.stats().wire_batches_multi, 1u);
  EXPECT_GE(top_k.stats().batch_sweeps, 1u);
  EXPECT_EQ(server.stats().requests_served, burst.size());
}

TEST(NetServerTest, StreamViolationsGetOneErrorFrameThenClose) {
  ToyScorer scorer;
  TopKServer top_k(&scorer, kUsers, kItems, ServeOptions());
  NetServer server(&top_k, NetServerOptions{});
  ASSERT_TRUE(server.Start());

  struct Case {
    const char* name;
    WireStatus want;
    std::vector<uint8_t> bytes;
  };
  std::vector<Case> cases;
  {
    std::vector<uint8_t> garbage(kFrameHeaderBytes, 0xAB);
    cases.push_back({"bad magic", WireStatus::kBadFrame, garbage});
  }
  {
    std::vector<uint8_t> frame;
    EncodeTopKRequest(1, TopKRequest{.user = 1}, &frame);
    frame[4] = kWireVersion + 3;
    cases.push_back({"bad version", WireStatus::kBadVersion, frame});
  }
  {
    std::vector<uint8_t> frame;
    EncodeTopKRequest(1, TopKRequest{.user = 1}, &frame);
    frame[kFrameHeaderBytes] ^= 0x01;  // corrupt the payload
    cases.push_back({"bad checksum", WireStatus::kBadChecksum, frame});
  }
  {
    std::vector<uint8_t> frame;
    EncodeTopKRequest(1, TopKRequest{.user = 1}, &frame);
    const uint32_t huge = (1u << 20) + 1;  // over the default cap
    std::memcpy(&frame[8], &huge, sizeof(huge));
    frame.resize(kFrameHeaderBytes);
    cases.push_back({"oversized", WireStatus::kOversized, frame});
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
    ASSERT_TRUE(client.SendRaw(c.bytes));

    Frame reply;
    ASSERT_TRUE(client.RecvFrame(&reply));
    ASSERT_EQ(reply.type, FrameType::kError);
    uint64_t id = 0;
    WireStatus code = WireStatus::kOk;
    ASSERT_TRUE(DecodeErrorPayload(reply.payload, &id, &code));
    EXPECT_EQ(code, c.want);

    // The stream is untrusted: the server closes after the courtesy
    // error frame, so the next read sees EOF, not another frame.
    Frame next;
    EXPECT_FALSE(client.RecvFrame(&next));
  }
  EXPECT_GE(server.stats().protocol_errors, cases.size());
}

TEST(NetServerTest, FrameViolationsKeepTheConnection) {
  ToyScorer scorer;
  TopKServer top_k(&scorer, kUsers, kItems, ServeOptions());
  NetServer server(&top_k, NetServerOptions{});
  ASSERT_TRUE(server.Start());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));

  // Unknown frame type: well-delimited, so answered and survived.
  std::vector<uint8_t> unknown;
  AppendFrame(static_cast<FrameType>(42), {}, &unknown);
  ASSERT_TRUE(client.SendRaw(unknown));
  Frame reply;
  ASSERT_TRUE(client.RecvFrame(&reply));
  ASSERT_EQ(reply.type, FrameType::kError);
  uint64_t id = 0;
  WireStatus code = WireStatus::kOk;
  ASSERT_TRUE(DecodeErrorPayload(reply.payload, &id, &code));
  EXPECT_EQ(code, WireStatus::kBadType);

  // Malformed request payload (wrong size): same story, kBadFrame.
  const std::vector<uint8_t> short_payload(8, 0);
  std::vector<uint8_t> malformed;
  AppendFrame(FrameType::kTopKRequest, short_payload, &malformed);
  ASSERT_TRUE(client.SendRaw(malformed));
  ASSERT_TRUE(client.RecvFrame(&reply));
  ASSERT_EQ(reply.type, FrameType::kError);
  ASSERT_TRUE(DecodeErrorPayload(reply.payload, &id, &code));
  EXPECT_EQ(code, WireStatus::kBadFrame);

  // And a well-formed request on the same connection still serves.
  WireResponse ok;
  ASSERT_TRUE(client.TopK(TopKRequest{.user = 5}, &ok));
  EXPECT_EQ(ok.status, WireStatus::kOk);
  EXPECT_FALSE(ok.response.items.empty());
}

TEST(NetServerTest, OneByteWritesReassembleIntoOneRequest) {
  ToyScorer scorer;
  TopKServer top_k(&scorer, kUsers, kItems, ServeOptions());
  TopKServer solo(&scorer, kUsers, kItems, ServeOptions());
  NetServer server(&top_k, NetServerOptions{});
  ASSERT_TRUE(server.Start());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));

  // Trickle the frame one byte per send(): the server sees up to N
  // partial reads and must hold state across every split point.
  std::vector<uint8_t> frame;
  EncodeTopKRequest(321, TopKRequest{.user = 17}, &frame);
  for (const uint8_t b : frame) {
    ASSERT_TRUE(client.SendRaw(std::span<const uint8_t>(&b, 1)));
  }

  Frame reply;
  ASSERT_TRUE(client.RecvFrame(&reply));
  ASSERT_EQ(reply.type, FrameType::kTopKResponse);
  WireResponse got;
  ASSERT_TRUE(DecodeTopKResponsePayload(reply.payload, &got));
  EXPECT_EQ(got.request_id, 321u);
  const TopKResponse want = solo.TopK(17);
  EXPECT_EQ(got.response.items, want.items);
  EXPECT_EQ(got.response.scores, want.scores);
}

TEST(NetServerTest, StopIsIdempotentAndJoinsTheLoop) {
  ToyScorer scorer;
  TopKServer top_k(&scorer, kUsers, kItems, ServeOptions());
  NetServer server(&top_k, NetServerOptions{});
  ASSERT_TRUE(server.Start());
  server.Stop();
  server.Stop();  // second stop is a no-op, not a crash/hang
}

TEST(NetServerTest, StartIsOneShot) {
  ToyScorer scorer;
  TopKServer top_k(&scorer, kUsers, kItems, ServeOptions());
  NetServer server(&top_k, NetServerOptions{});
  ASSERT_TRUE(server.Start());
  server.Stop();

  const auto open_fds = [] {
    size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
      ++n;
    }
    return n;
  };
  const size_t before = open_fds();
  EXPECT_FALSE(server.Start());
  EXPECT_EQ(open_fds(), before) << "a refused Start() opened descriptors";
}

TEST(NetServerTest, DroppedPeerResponsesNeverReachTheNextConnectionOnItsFd) {
  GateScorer scorer;
  TopKServer top_k(&scorer, kUsers, kItems, ServeOptions());
  NetServer server(&top_k, NetServerOptions{});
  ASSERT_TRUE(server.Start());

  // Peer A: a raw socket, so it can leave with a reset. It connects before
  // C, and C's round trip below needs C accepted, so both are accepted
  // (one accept drain takes the listen queue in order).
  const int a = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(a, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      connect(a, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  NetClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server.port()));
  WireResponse warm;
  ASSERT_TRUE(c.TopK(TopKRequest{.user = 0}, &warm));

  // C's next miss stalls the reactor inside its sweep.
  scorer.Arm();
  std::vector<uint8_t> stalled;
  EncodeTopKRequest(2, TopKRequest{.user = 1}, &stalled);
  ASSERT_TRUE(c.SendRaw(stalled));
  scorer.AwaitEntered();

  // Meanwhile A sends a request and an unknown-type frame, then resets,
  // and B connects. On the next wake-up the server decodes A's request,
  // fails to flush A's error frame (the reset), drops A and frees its
  // descriptor, and accepts B, which can take the same number.
  std::vector<uint8_t> from_a;
  EncodeTopKRequest(77, TopKRequest{.user = 2}, &from_a);
  AppendFrame(static_cast<FrameType>(42), {}, &from_a);
  ASSERT_EQ(send(a, from_a.data(), from_a.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(from_a.size()));
  const linger reset{1, 0};
  ASSERT_EQ(setsockopt(a, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset)), 0);
  close(a);
  NetClient b;
  ASSERT_TRUE(b.Connect("127.0.0.1", server.port()));
  scorer.Release();

  Frame reply;
  ASSERT_TRUE(c.RecvFrame(&reply));
  ASSERT_EQ(reply.type, FrameType::kTopKResponse);

  // B's first frame answers B's own request, not A's request 77.
  std::vector<uint8_t> from_b;
  EncodeTopKRequest(5, TopKRequest{.user = 3}, &from_b);
  ASSERT_TRUE(b.SendRaw(from_b));
  ASSERT_TRUE(b.RecvFrame(&reply));
  ASSERT_EQ(reply.type, FrameType::kTopKResponse);
  WireResponse got;
  ASSERT_TRUE(DecodeTopKResponsePayload(reply.payload, &got));
  EXPECT_EQ(got.request_id, 5u);
  EXPECT_EQ(got.response.items, top_k.TopK(3).items);
  // C's two requests and B's one: A's request 77 was filtered out before
  // the sweep, not answered into the void.
  EXPECT_EQ(server.stats().requests_served, 3u);
  server.Stop();
}

TEST(NetServerTest, FdExhaustionShedsThePendingClient) {
  ToyScorer scorer;
  TopKServer top_k(&scorer, kUsers, kItems, ServeOptions());
  NetServer server(&top_k, NetServerOptions{});
  ASSERT_TRUE(server.Start());

  // The client socket exists before descriptors run out; connecting
  // needs no new one on this side.
  const int client = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(client, 0);
  const timeval one_second{1, 0};
  ASSERT_EQ(setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &one_second,
                       sizeof(one_second)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  // A soft limit at the lowest free descriptor makes every new one in
  // this process fail with EMFILE, the server's accept4 included.
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int lowest_free = dup(client);
  ASSERT_GE(lowest_free, 0);
  close(lowest_free);
  rlimit exhausted = saved;
  exhausted.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &exhausted), 0);
  const int connected =
      connect(client, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  // Read up to EOF: the shed peer gets its reason, then the close.
  std::vector<uint8_t> received;
  ssize_t got = -1;
  if (connected == 0) {
    uint8_t buf[256];
    while ((got = recv(client, buf, sizeof(buf), 0)) > 0) {
      received.insert(received.end(), buf, buf + got);
    }
  }
  const int recv_errno = errno;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);  // before any bail-out
  close(client);

  ASSERT_EQ(connected, 0);
  EXPECT_EQ(got, 0) << "no EOF within 1 s (errno " << recv_errno
                    << "): the pending client was neither served nor shed";
  FrameDecoder decoder;
  decoder.Append(received.data(), received.size());
  Frame reply;
  ASSERT_EQ(decoder.Next(&reply), FrameDecoder::Result::kFrame);
  ExpectOverloadedFrame(reply);
  EXPECT_EQ(decoder.buffered(), 0u) << "bytes after the frame";
  EXPECT_EQ(server.stats().connections_dropped, 1u);
  EXPECT_EQ(server.stats().shed_fd_exhaustion, 1u);
  EXPECT_EQ(server.stats().shed_max_connections, 0u);
  EXPECT_EQ(server.stats().connections_accepted, 0u);

  // With descriptors back, the same server serves normally.
  NetClient next;
  ASSERT_TRUE(next.Connect("127.0.0.1", server.port()));
  WireResponse wire;
  ASSERT_TRUE(next.TopK(TopKRequest{.user = 3}, &wire));
  EXPECT_EQ(wire.response.items, top_k.TopK(3).items);
  server.Stop();
}

TEST(NetServerTest, ConnectionOverTheCapGetsOverloadedThenClose) {
  ToyScorer scorer;
  TopKServer top_k(&scorer, kUsers, kItems, ServeOptions());
  NetServerOptions opts;
  opts.max_connections = 1;
  NetServer server(&top_k, opts);
  ASSERT_TRUE(server.Start());

  // A round trip makes sure the first client holds the one slot.
  NetClient first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server.port()));
  WireResponse wire;
  ASSERT_TRUE(first.TopK(TopKRequest{.user = 5}, &wire));

  // The second is shed with its reason: one id-0 kOverloaded frame, EOF.
  NetClient second;
  ASSERT_TRUE(second.Connect("127.0.0.1", server.port(),
                             /*recv_timeout_ms=*/5000));
  Frame reply;
  ASSERT_TRUE(second.RecvFrame(&reply));
  ExpectOverloadedFrame(reply);
  Frame next;
  EXPECT_FALSE(second.RecvFrame(&next));
  EXPECT_EQ(server.stats().connections_dropped, 1u);
  EXPECT_EQ(server.stats().shed_max_connections, 1u);
  EXPECT_EQ(server.stats().shed_fd_exhaustion, 0u);
  EXPECT_EQ(server.stats().connections_accepted, 1u);

  // The connection inside the cap keeps serving.
  ASSERT_TRUE(first.TopK(TopKRequest{.user = 6}, &wire));
  EXPECT_EQ(wire.response.items, top_k.TopK(6).items);
  server.Stop();
}

TEST(NetServerTest, BackpressureShedsUndrainedConnection) {
  ToyScorer scorer;
  TopKServer top_k(&scorer, kUsers, kItems, ServeOptions());
  NetServerOptions opts;
  // Tiny budgets so an undrained client trips the cap with test-sized
  // traffic: shrink the kernel's send buffer (inherited from the
  // listener) and bound the userspace response queue.
  opts.max_queued_response_bytes = 16u << 10;
  opts.sndbuf_bytes = 4096;
  NetServer server(&top_k, opts);
  ASSERT_TRUE(server.Start());

  // The slow reader: a tiny receive window, then pipelined request
  // bursts with no reads. Responses fill the client's window, the
  // kernel buffer, then the server's userspace queue — which is capped.
  NetClient slow;
  ASSERT_TRUE(slow.Connect("127.0.0.1", server.port(),
                           /*recv_timeout_ms=*/5000, /*rcvbuf_bytes=*/4096));
  std::vector<uint8_t> burst;
  for (uint64_t rid = 1; rid <= 64; ++rid) {
    EncodeTopKRequest(rid, TopKRequest{.user = 1}, &burst);
  }
  // Deadline- rather than round-bounded: the kernel's auto-tuned
  // buffers can absorb many megabytes before the first send blocks, so
  // a fixed round count can finish before the server's first
  // serve-and-shed cycle. A healthy server sheds within its first read
  // budget; the deadline only bounds a regressed (never-shedding) run.
  bool send_failed = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!send_failed && std::chrono::steady_clock::now() < deadline) {
    send_failed = !slow.SendRaw(burst);
  }
  // The shed close arrives as a reset once the kernel processes it; the
  // send failing is the client-visible half of the contract.
  EXPECT_TRUE(send_failed);
  EXPECT_GE(server.stats().backpressure_closes, 1u);
  slow.Close();

  // Isolation: shedding one connection leaves the listener and every
  // other connection serving normally.
  NetClient fine;
  ASSERT_TRUE(fine.Connect("127.0.0.1", server.port()));
  WireResponse got;
  ASSERT_TRUE(fine.TopK(TopKRequest{.user = 2}, &got));
  EXPECT_EQ(got.status, WireStatus::kOk);
  server.Stop();
}

TEST(NetServerTest, UnboundedQueueNeverSheds) {
  ToyScorer scorer;
  TopKServer top_k(&scorer, kUsers, kItems, ServeOptions());
  NetServerOptions opts;
  opts.max_queued_response_bytes = 0;  // documented opt-out
  opts.sndbuf_bytes = 4096;
  NetServer server(&top_k, opts);
  ASSERT_TRUE(server.Start());

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port(),
                             /*recv_timeout_ms=*/5000,
                             /*rcvbuf_bytes=*/4096));
  // Same undrained burst shape as the shedding test, bounded rounds —
  // then drain everything: every response must still arrive.
  std::vector<uint8_t> burst;
  constexpr size_t kPerBurst = 64;
  for (uint64_t rid = 1; rid <= kPerBurst; ++rid) {
    EncodeTopKRequest(rid, TopKRequest{.user = 1}, &burst);
  }
  constexpr size_t kRounds = 8;
  for (size_t round = 0; round < kRounds; ++round) {
    ASSERT_TRUE(client.SendRaw(burst));
  }
  size_t responses = 0;
  Frame f;
  while (responses < kRounds * kPerBurst && client.RecvFrame(&f)) {
    ASSERT_EQ(f.type, FrameType::kTopKResponse);
    ++responses;
  }
  EXPECT_EQ(responses, kRounds * kPerBurst);
  EXPECT_EQ(server.stats().backpressure_closes, 0u);
  server.Stop();
}

}  // namespace
}  // namespace mars
