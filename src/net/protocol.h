// The MARS wire protocol: length-prefixed, versioned, checksummed binary
// frames carrying the serve/request.h value types over TCP. The byte
// layout is normative in docs/PROTOCOL.md (the same role FORMAT.md plays
// for the snapshot files); this header is the single codec both sides
// use — NetServer decodes requests and encodes responses with exactly
// these functions, NetClient the reverse — so the two cannot drift.
//
// Framing. Every message is one frame:
//
//   [magic u32]["MRSN" = 4D 52 53 4E on the wire]
//   [version u8][type u8][reserved u16 = 0]
//   [payload_len u32][checksum u32 = CRC-32 of the payload bytes]
//   [payload_len bytes of payload]
//
// All integers little-endian, matching common/binary_io.h and the
// FORMAT.md files. The checksum (common/crc32.h, the same CRC-32 as the
// MRSI index regions) covers the payload only — the header is validated
// structurally (magic, version, reserved, bounded length), the payload
// cryptographically-not-at-all but corruption-detectably.
//
// Error handling splits by what can still be trusted:
//
//  * Request-level rejections (bad user/k/flags) are *responses*: a
//    kTopKResponse frame whose status names the rejection, exactly the
//    in-process TopKResponse contract. The connection stays up.
//  * Frame-level violations where the header parsed but the frame is
//    semantically wrong (unknown type, malformed payload of a known
//    type) get a kError frame; stream framing is intact, so the
//    connection stays up.
//  * Stream-level violations (bad magic, nonzero reserved bits, wrong
//    version, oversized length, checksum mismatch) mean the byte stream
//    can no longer be trusted to re-synchronize: the peer sends one
//    kError frame naming the violation and closes.
#ifndef MARS_NET_PROTOCOL_H_
#define MARS_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/crc32.h"
#include "serve/request.h"

namespace mars {

/// Frame magic: the bytes "MRSN" read as a little-endian u32.
inline constexpr uint32_t kWireMagic = 0x4E53524Du;

/// Protocol version this build speaks (see docs/PROTOCOL.md for the
/// compatibility matrix). A peer announcing any other version is
/// rejected with WireStatus::kBadVersion.
inline constexpr uint8_t kWireVersion = 1;

/// Fixed frame header size preceding every payload.
inline constexpr size_t kFrameHeaderBytes = 16;

/// Default cap on a single frame's payload. A TopKResponse at the
/// serving depths this system runs (k ≤ a few hundred) is well under a
/// kilobyte; anything near the cap is an attack or a corrupted length.
inline constexpr size_t kDefaultMaxFramePayload = 1u << 20;

enum class FrameType : uint8_t {
  kTopKRequest = 1,
  kTopKResponse = 2,
  kError = 3,
};

/// Wire status vocabulary. Values 0–15 are reserved to mirror
/// serve/request.h TopKStatus verbatim (a response's status byte *is*
/// the server's TopKStatus); 16+ are wire-level conditions that never
/// occur in-process.
enum class WireStatus : uint8_t {
  kOk = 0,
  kInvalidUser = 1,
  kInvalidK = 2,
  kInvalidFlags = 3,
  kBadFrame = 16,     // bad magic / nonzero reserved / malformed payload
  kBadVersion = 17,   // version byte not kWireVersion
  kBadType = 18,      // unknown frame type
  kOversized = 19,    // payload_len above the receiver's cap
  kBadChecksum = 20,  // CRC-32 mismatch over the payload
  kInternal = 21,     // receiver-side failure unrelated to the bytes
  kOverloaded = 22,   // receiver shed the connection under backpressure
};

inline WireStatus WireStatusOf(TopKStatus s) {
  return static_cast<WireStatus>(static_cast<uint8_t>(s));
}

/// One decoded frame: type + raw payload, checksum already verified.
struct Frame {
  FrameType type = FrameType::kError;
  std::vector<uint8_t> payload;
};

/// A request as it crosses the wire: the client-assigned correlation id
/// plus the in-process request. Responses echo the id, so a pipelined
/// client can match answers without assuming ordering.
struct WireRequest {
  uint64_t request_id = 0;
  TopKRequest request;
};

/// A response as it crosses the wire. `status` is the full wire
/// vocabulary; for values ≤ 15 it equals response.status.
struct WireResponse {
  uint64_t request_id = 0;
  WireStatus status = WireStatus::kOk;
  TopKResponse response;
};

// ---------------------------------------------------------------------
// Encoding. All encoders *append* a complete frame (header + payload)
// to `out`, so a pipelining sender builds one contiguous write buffer.

/// kTopKRequest payload: [request_id u64][user u32][k u32][flags u32].
void EncodeTopKRequest(uint64_t request_id, const TopKRequest& request,
                       std::vector<uint8_t>* out);

/// kTopKResponse payload:
///   [request_id u64][status u8][from_cache u8][reserved u16 = 0]
///   [epoch u64][count u32][count × item u32][count × score f32]
void EncodeTopKResponse(uint64_t request_id, const TopKResponse& response,
                        std::vector<uint8_t>* out);

/// kError payload: [request_id u64 (0 if unattributable)][code u32].
void EncodeError(uint64_t request_id, WireStatus code,
                 std::vector<uint8_t>* out);

/// Appends a frame of arbitrary type/payload — the test seam for
/// crafting hostile frames (wrong type, truncated payload) with a valid
/// header and checksum.
void AppendFrame(FrameType type, std::span<const uint8_t> payload,
                 std::vector<uint8_t>* out);

// ---------------------------------------------------------------------
// Payload decoding (frame already reassembled and checksum-verified).
// Each returns false — without touching errno or aborting — when the
// payload bytes are not a well-formed instance; remote bytes never
// MARS_CHECK.

bool DecodeTopKRequestPayload(std::span<const uint8_t> payload,
                              WireRequest* out);
bool DecodeTopKResponsePayload(std::span<const uint8_t> payload,
                               WireResponse* out);
bool DecodeErrorPayload(std::span<const uint8_t> payload,
                        uint64_t* request_id, WireStatus* code);

// ---------------------------------------------------------------------

/// Streaming frame reassembler: feed whatever byte ranges the transport
/// delivers (a syscall's worth at a time, split anywhere — mid-header,
/// mid-payload), pull complete verified frames. Once a stream-level
/// violation is seen the decoder latches kBad and stays there: the
/// stream cannot re-synchronize, the connection must close (file
/// comment).
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = kDefaultMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Buffers `n` more wire bytes.
  void Append(const uint8_t* data, size_t n);

  enum class Result {
    kFrame,     // *out holds the next frame
    kNeedMore,  // no complete frame buffered yet
    kBad,       // stream-level violation; error() names it; latched
  };
  Result Next(Frame* out);

  /// The latched violation after kBad (kOk before).
  WireStatus error() const { return error_; }

  /// Bytes buffered but not yet consumed (tests pin reassembly math).
  size_t buffered() const { return buf_.size() - consumed_; }

 private:
  Result Fail(WireStatus code) {
    error_ = code;
    return Result::kBad;
  }

  size_t max_payload_;
  std::vector<uint8_t> buf_;
  size_t consumed_ = 0;
  WireStatus error_ = WireStatus::kOk;
};

}  // namespace mars

#endif  // MARS_NET_PROTOCOL_H_
