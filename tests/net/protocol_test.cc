// Codec-level protocol tests: byte-exact framing, checksum integrity,
// and the FrameDecoder's reassembly + latch-on-violation contract.
// These never open a socket — the decoder must behave identically no
// matter how the transport splits the byte stream, so the tests drive
// it with adversarial splits directly. The crafted-frame cases mirror
// the LoadMarsMapped crafted-file bounds tests: every field that could
// let a hostile peer over-read or over-allocate is violated once.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "net/protocol.h"

namespace mars {
namespace {

std::vector<uint8_t> EncodedRequest(uint64_t id, UserId user, uint32_t k,
                                    uint32_t flags) {
  std::vector<uint8_t> bytes;
  EncodeTopKRequest(id, TopKRequest{user, k, flags}, &bytes);
  return bytes;
}

TopKResponse SampleResponse() {
  TopKResponse r;
  r.items = {7, 3, 101, 0};
  r.scores = {9.5f, 3.25f, -1.0f, 0.0f};
  r.epoch = 42;
  r.status = TopKStatus::kOk;
  r.from_cache = true;
  return r;
}

TEST(ProtocolCodec, Crc32MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 check vector: crc32("123456789").
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(data, sizeof(data)), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(ProtocolCodec, EncodedFrameBytesArePinned) {
  // The CRC-32 of two whole encoded frames (header and payload, so each
  // payload checksum the header carries is pinned too), recorded from the
  // slicing-by-16 Crc32. Any change to the codec or to Crc32's values
  // fails here. The response's 104-byte payload is long enough for
  // Crc32's 64-byte folds; the request's 20 bytes take the short path.
  std::vector<uint8_t> request;
  EncodeTopKRequest(0x0123456789ABCDEFull,
                    TopKRequest{48213, 10, kTopKFlagBypassCache}, &request);
  TopKResponse top10;
  for (uint32_t i = 0; i < 10; ++i) {
    top10.items.push_back(49999 - 977 * i);
    top10.scores.push_back(2.5f - 0.1875f * static_cast<float>(i));
  }
  top10.epoch = 17;
  top10.status = TopKStatus::kOk;
  std::vector<uint8_t> response;
  EncodeTopKResponse(0xFEDCBA9876543210ull, top10, &response);

  ASSERT_EQ(request.size(), kFrameHeaderBytes + 20);
  ASSERT_EQ(response.size(), kFrameHeaderBytes + 24 + 8 * 10);
  EXPECT_EQ(Crc32(request.data(), request.size()), 0x8054B323u);
  EXPECT_EQ(Crc32(response.data(), response.size()), 0x45F17AF3u);
}

TEST(ProtocolCodec, RequestRoundTripsBitExact) {
  const std::vector<uint8_t> bytes =
      EncodedRequest(77, 12345, 10, kTopKFlagBypassCache);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + 20);

  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.type, FrameType::kTopKRequest);

  WireRequest req;
  ASSERT_TRUE(DecodeTopKRequestPayload(frame.payload, &req));
  EXPECT_EQ(req.request_id, 77u);
  EXPECT_EQ(req.request.user, 12345u);
  EXPECT_EQ(req.request.k, 10u);
  EXPECT_EQ(req.request.flags, kTopKFlagBypassCache);
}

TEST(ProtocolCodec, ResponseRoundTripsBitExact) {
  const TopKResponse response = SampleResponse();
  std::vector<uint8_t> bytes;
  EncodeTopKResponse(9001, response, &bytes);

  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.type, FrameType::kTopKResponse);

  WireResponse got;
  ASSERT_TRUE(DecodeTopKResponsePayload(frame.payload, &got));
  EXPECT_EQ(got.request_id, 9001u);
  EXPECT_EQ(got.status, WireStatus::kOk);
  EXPECT_EQ(got.response.items, response.items);
  EXPECT_EQ(got.response.scores, response.scores);  // bit-equal floats
  EXPECT_EQ(got.response.epoch, 42u);
  EXPECT_TRUE(got.response.from_cache);
  EXPECT_EQ(got.response.status, TopKStatus::kOk);
}

TEST(ProtocolCodec, ErrorRoundTrips) {
  std::vector<uint8_t> bytes;
  EncodeError(5, WireStatus::kBadChecksum, &bytes);
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(frame.type, FrameType::kError);
  uint64_t id = 0;
  WireStatus code = WireStatus::kOk;
  ASSERT_TRUE(DecodeErrorPayload(frame.payload, &id, &code));
  EXPECT_EQ(id, 5u);
  EXPECT_EQ(code, WireStatus::kBadChecksum);
}

TEST(ProtocolDecoder, ReassemblesOneByteAtATime) {
  const std::vector<uint8_t> bytes = EncodedRequest(1, 2, 3, 0);
  FrameDecoder decoder;
  Frame frame;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.Append(&bytes[i], 1);
    ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kNeedMore)
        << "after byte " << i;
  }
  decoder.Append(&bytes[bytes.size() - 1], 1);
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
  WireRequest req;
  ASSERT_TRUE(DecodeTopKRequestPayload(frame.payload, &req));
  EXPECT_EQ(req.request.user, 2u);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(ProtocolDecoder, DecodesBackToBackFramesFromOneAppend) {
  std::vector<uint8_t> bytes = EncodedRequest(1, 10, 0, 0);
  const std::vector<uint8_t> second = EncodedRequest(2, 20, 0, 0);
  bytes.insert(bytes.end(), second.begin(), second.end());

  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  WireRequest req;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
  ASSERT_TRUE(DecodeTopKRequestPayload(frame.payload, &req));
  EXPECT_EQ(req.request.user, 10u);
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
  ASSERT_TRUE(DecodeTopKRequestPayload(frame.payload, &req));
  EXPECT_EQ(req.request.user, 20u);
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kNeedMore);
}

TEST(ProtocolDecoder, TruncatedFrameIsNeedMoreNotError) {
  const std::vector<uint8_t> bytes = EncodedRequest(1, 2, 3, 0);
  FrameDecoder decoder;
  // Header plus half the payload: a stalled peer, not a hostile one.
  decoder.Append(bytes.data(), kFrameHeaderBytes + 10);
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kNeedMore);
  EXPECT_EQ(decoder.error(), WireStatus::kOk);
}

TEST(ProtocolDecoder, BadMagicLatchesBadFrame) {
  std::vector<uint8_t> bytes = EncodedRequest(1, 2, 3, 0);
  bytes[0] ^= 0xFF;
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kBad);
  EXPECT_EQ(decoder.error(), WireStatus::kBadFrame);
  // Latched: even appending a pristine frame cannot revive the stream.
  const std::vector<uint8_t> good = EncodedRequest(4, 5, 6, 0);
  decoder.Append(good.data(), good.size());
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kBad);
}

TEST(ProtocolDecoder, NonzeroReservedBitsLatchBadFrame) {
  std::vector<uint8_t> bytes = EncodedRequest(1, 2, 3, 0);
  bytes[6] = 0x01;  // reserved u16 at header offset 6
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kBad);
  EXPECT_EQ(decoder.error(), WireStatus::kBadFrame);
}

TEST(ProtocolDecoder, WrongVersionLatchesBadVersion) {
  std::vector<uint8_t> bytes = EncodedRequest(1, 2, 3, 0);
  bytes[4] = kWireVersion + 1;
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kBad);
  EXPECT_EQ(decoder.error(), WireStatus::kBadVersion);
}

TEST(ProtocolDecoder, OversizedLengthLatchesWithoutAllocating) {
  std::vector<uint8_t> bytes = EncodedRequest(1, 2, 3, 0);
  // Claim a payload over the decoder's cap; only the header arrives.
  const uint32_t huge = 1u << 24;
  std::memcpy(&bytes[8], &huge, sizeof(huge));
  FrameDecoder decoder(/*max_payload=*/1u << 16);
  decoder.Append(bytes.data(), kFrameHeaderBytes);
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kBad);
  EXPECT_EQ(decoder.error(), WireStatus::kOversized);
}

TEST(ProtocolDecoder, CorruptedPayloadLatchesBadChecksum) {
  std::vector<uint8_t> bytes = EncodedRequest(1, 2, 3, 0);
  bytes[kFrameHeaderBytes + 4] ^= 0x20;  // flip one payload bit
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::Result::kBad);
  EXPECT_EQ(decoder.error(), WireStatus::kBadChecksum);
}

TEST(ProtocolDecoder, UnknownFrameTypePassesThroughForTheReceiver) {
  // An unknown type with a valid header is *framed* correctly — the
  // receiver answers kBadType and keeps the connection; the decoder
  // must not latch (that policy lives above the codec).
  const std::vector<uint8_t> payload = {1, 2, 3};
  std::vector<uint8_t> bytes;
  AppendFrame(static_cast<FrameType>(99), payload, &bytes);
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame);
  EXPECT_EQ(static_cast<uint8_t>(frame.type), 99);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(decoder.error(), WireStatus::kOk);
}

/// What a decoder made of one byte stream: the frames it emitted, the
/// result that ended the drain, and what it latched and still buffers.
struct DecodeOutcome {
  std::vector<Frame> frames;
  FrameDecoder::Result last = FrameDecoder::Result::kNeedMore;
  WireStatus error = WireStatus::kOk;
  size_t buffered = 0;
};

DecodeOutcome DecodeStream(const std::vector<uint8_t>& bytes,
                           bool one_byte_at_a_time) {
  FrameDecoder decoder;
  DecodeOutcome o;
  const auto drain = [&] {
    Frame f;
    while ((o.last = decoder.Next(&f)) == FrameDecoder::Result::kFrame) {
      o.frames.push_back(std::move(f));
    }
  };
  if (one_byte_at_a_time) {
    for (const uint8_t& b : bytes) {
      decoder.Append(&b, 1);
      drain();
    }
  } else {
    decoder.Append(bytes.data(), bytes.size());
  }
  drain();
  o.error = decoder.error();
  o.buffered = decoder.buffered();
  return o;
}

/// The decoder's contract on arbitrary bytes, checked whole and split one
/// byte at a time: every emitted frame re-encodes (AppendFrame) to exactly
/// the bytes it consumed, and the stream ends either as kNeedMore on a
/// proper prefix of one frame or as kBad with a latched violation. Both
/// feedings must agree. Returns the whole-stream outcome.
DecodeOutcome ExpectRejectOrReencode(const std::vector<uint8_t>& bytes,
                                     const std::string& what) {
  const DecodeOutcome whole = DecodeStream(bytes, false);
  std::vector<uint8_t> reencoded;
  for (const Frame& f : whole.frames) {
    AppendFrame(f.type, f.payload, &reencoded);
  }
  EXPECT_LE(reencoded.size(), bytes.size()) << what;
  if (reencoded.size() > bytes.size()) return whole;
  EXPECT_TRUE(std::equal(reencoded.begin(), reencoded.end(), bytes.begin()))
      << what;
  EXPECT_EQ(reencoded.size() + whole.buffered, bytes.size()) << what;
  if (whole.last == FrameDecoder::Result::kNeedMore) {
    EXPECT_EQ(whole.error, WireStatus::kOk) << what;
    const size_t left = whole.buffered;
    if (left >= kFrameHeaderBytes) {
      uint32_t len = 0;
      std::memcpy(&len, bytes.data() + reencoded.size() + 8, sizeof(len));
      EXPECT_LT(left, kFrameHeaderBytes + len) << what;
    }
  } else {
    EXPECT_EQ(whole.last, FrameDecoder::Result::kBad) << what;
    EXPECT_NE(whole.error, WireStatus::kOk) << what;
  }

  const DecodeOutcome split = DecodeStream(bytes, true);
  EXPECT_EQ(split.last, whole.last) << what;
  EXPECT_EQ(split.error, whole.error) << what;
  EXPECT_EQ(split.buffered, whole.buffered) << what;
  EXPECT_EQ(split.frames.size(), whole.frames.size()) << what;
  for (size_t i = 0; i < std::min(split.frames.size(), whole.frames.size());
       ++i) {
    EXPECT_EQ(split.frames[i].type, whole.frames[i].type) << what;
    EXPECT_EQ(split.frames[i].payload, whole.frames[i].payload) << what;
  }
  return whole;
}

TEST(ProtocolDecoder, SeededMutationsRejectOrReencode) {
  // One valid stream: a request, a response and an error frame.
  std::vector<uint8_t> stream;
  std::vector<size_t> starts;
  starts.push_back(stream.size());
  EncodeTopKRequest(11, TopKRequest{12345, 10, kTopKFlagBypassCache},
                    &stream);
  starts.push_back(stream.size());
  EncodeTopKResponse(12, SampleResponse(), &stream);
  starts.push_back(stream.size());
  EncodeError(13, WireStatus::kInvalidUser, &stream);
  starts.push_back(stream.size());
  ASSERT_EQ(ExpectRejectOrReencode(stream, "pristine").frames.size(), 3u);

  // Single-bit and 2-4-bit flips anywhere in headers and payloads.
  uint64_t state = 0x5EEDF00Du;
  const size_t bits = stream.size() * 8;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<uint8_t> bytes = stream;
    const size_t flips = 1 + SplitMix64(&state) % 4;
    std::string what = "flips";
    for (size_t f = 0; f < flips; ++f) {
      const size_t bit = SplitMix64(&state) % bits;
      bytes[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      what += " " + std::to_string(bit);
    }
    ExpectRejectOrReencode(bytes, what);
  }

  // Every truncation of the valid stream is a stalled peer, never a
  // violation: the whole frames before the cut decode, the rest waits.
  for (size_t len = 0; len < stream.size(); ++len) {
    const std::vector<uint8_t> bytes(stream.begin(), stream.begin() + len);
    const DecodeOutcome o =
        ExpectRejectOrReencode(bytes, "truncated to " + std::to_string(len));
    EXPECT_EQ(o.last, FrameDecoder::Result::kNeedMore) << len;
    EXPECT_EQ(o.frames.size(),
              static_cast<size_t>(std::upper_bound(starts.begin() + 1,
                                                   starts.end(), len) -
                                  (starts.begin() + 1)))
        << len;
  }

  // Length lies in each header, checksum untouched: the frames before it
  // still decode, the lying frame never does, and a length over the cap
  // latches kOversized before any payload is awaited.
  for (size_t i = 0; i + 1 < starts.size(); ++i) {
    const uint32_t len =
        static_cast<uint32_t>(starts[i + 1] - starts[i] - kFrameHeaderBytes);
    const uint32_t cap = static_cast<uint32_t>(kDefaultMaxFramePayload);
    for (const uint32_t lie : {0u, len - 1, len + 1, cap, cap + 1}) {
      std::vector<uint8_t> bytes = stream;
      std::memcpy(&bytes[starts[i] + 8], &lie, sizeof(lie));
      const DecodeOutcome o = ExpectRejectOrReencode(
          bytes, "frame " + std::to_string(i) + " length " +
                     std::to_string(lie));
      EXPECT_EQ(o.frames.size(), i) << "frame " << i << " length " << lie;
      if (lie == cap + 1) EXPECT_EQ(o.error, WireStatus::kOversized);
    }
  }
}

TEST(ProtocolPayloads, RequestPayloadSizeIsExact) {
  WireRequest req;
  std::vector<uint8_t> payload(20, 0);
  EXPECT_TRUE(DecodeTopKRequestPayload(payload, &req));
  payload.resize(19);
  EXPECT_FALSE(DecodeTopKRequestPayload(payload, &req));
  payload.resize(21, 0);
  EXPECT_FALSE(DecodeTopKRequestPayload(payload, &req));
  EXPECT_FALSE(DecodeTopKRequestPayload({}, &req));
}

TEST(ProtocolPayloads, ResponseCountMustMatchPayloadBytes) {
  std::vector<uint8_t> bytes;
  EncodeTopKResponse(1, SampleResponse(), &bytes);
  // Strip the frame header to operate on the raw payload.
  std::vector<uint8_t> payload(bytes.begin() + kFrameHeaderBytes,
                               bytes.end());
  WireResponse out;
  ASSERT_TRUE(DecodeTopKResponsePayload(payload, &out));

  // Inflate the count field: decode must reject instead of over-read.
  std::vector<uint8_t> inflated = payload;
  const uint32_t lie = 1u << 30;
  std::memcpy(&inflated[20], &lie, sizeof(lie));
  EXPECT_FALSE(DecodeTopKResponsePayload(inflated, &out));

  // Truncate one score byte: sizes no longer reconcile.
  std::vector<uint8_t> truncated = payload;
  truncated.pop_back();
  EXPECT_FALSE(DecodeTopKResponsePayload(truncated, &out));

  // Nonzero reserved bytes are a forward-compat fence, not padding.
  std::vector<uint8_t> reserved = payload;
  reserved[10] = 1;
  EXPECT_FALSE(DecodeTopKResponsePayload(reserved, &out));

  EXPECT_FALSE(DecodeTopKResponsePayload({}, &out));
}

}  // namespace
}  // namespace mars
