#include "net/protocol.h"

#include <cstring>

namespace mars {

namespace {

/// Little-endian scalar append/read. The wire format is defined
/// little-endian (docs/PROTOCOL.md); like common/binary_io.h these copy
/// the host representation, which is correct on every platform this
/// library targets.
template <typename T>
void AppendScalar(T v, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + sizeof(T));
  std::memcpy(out->data() + at, &v, sizeof(T));
}

template <typename T>
T ReadScalar(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

/// Request payload: request_id + user + k + flags.
constexpr size_t kRequestPayloadBytes = 8 + 4 + 4 + 4;
/// Response payload before the item/score arrays.
constexpr size_t kResponseHeadBytes = 8 + 1 + 1 + 2 + 8 + 4;
/// Error payload: request_id + code.
constexpr size_t kErrorPayloadBytes = 8 + 4;

}  // namespace

void AppendFrame(FrameType type, std::span<const uint8_t> payload,
                 std::vector<uint8_t>* out) {
  AppendScalar<uint32_t>(kWireMagic, out);
  AppendScalar<uint8_t>(kWireVersion, out);
  AppendScalar<uint8_t>(static_cast<uint8_t>(type), out);
  AppendScalar<uint16_t>(0, out);  // reserved
  AppendScalar<uint32_t>(static_cast<uint32_t>(payload.size()), out);
  AppendScalar<uint32_t>(Crc32(payload.data(), payload.size()), out);
  out->insert(out->end(), payload.begin(), payload.end());
}

void EncodeTopKRequest(uint64_t request_id, const TopKRequest& request,
                       std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  payload.reserve(kRequestPayloadBytes);
  AppendScalar<uint64_t>(request_id, &payload);
  AppendScalar<uint32_t>(request.user, &payload);
  AppendScalar<uint32_t>(request.k, &payload);
  AppendScalar<uint32_t>(request.flags, &payload);
  AppendFrame(FrameType::kTopKRequest, payload, out);
}

void EncodeTopKResponse(uint64_t request_id, const TopKResponse& response,
                        std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  const size_t count = response.items.size();
  payload.reserve(kResponseHeadBytes + count * 8);
  AppendScalar<uint64_t>(request_id, &payload);
  AppendScalar<uint8_t>(static_cast<uint8_t>(response.status), &payload);
  AppendScalar<uint8_t>(response.from_cache ? 1 : 0, &payload);
  AppendScalar<uint16_t>(0, &payload);  // reserved
  AppendScalar<uint64_t>(response.epoch, &payload);
  AppendScalar<uint32_t>(static_cast<uint32_t>(count), &payload);
  for (ItemId v : response.items) AppendScalar<uint32_t>(v, &payload);
  for (float s : response.scores) AppendScalar<float>(s, &payload);
  AppendFrame(FrameType::kTopKResponse, payload, out);
}

void EncodeError(uint64_t request_id, WireStatus code,
                 std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  payload.reserve(kErrorPayloadBytes);
  AppendScalar<uint64_t>(request_id, &payload);
  AppendScalar<uint32_t>(static_cast<uint32_t>(code), &payload);
  AppendFrame(FrameType::kError, payload, out);
}

bool DecodeTopKRequestPayload(std::span<const uint8_t> payload,
                              WireRequest* out) {
  if (payload.size() != kRequestPayloadBytes) return false;
  const uint8_t* p = payload.data();
  out->request_id = ReadScalar<uint64_t>(p);
  out->request.user = ReadScalar<uint32_t>(p + 8);
  out->request.k = ReadScalar<uint32_t>(p + 12);
  out->request.flags = ReadScalar<uint32_t>(p + 16);
  return true;
}

bool DecodeTopKResponsePayload(std::span<const uint8_t> payload,
                               WireResponse* out) {
  if (payload.size() < kResponseHeadBytes) return false;
  const uint8_t* p = payload.data();
  out->request_id = ReadScalar<uint64_t>(p);
  out->status = static_cast<WireStatus>(ReadScalar<uint8_t>(p + 8));
  out->response.status = static_cast<TopKStatus>(
      static_cast<uint8_t>(out->status) & 0x0Fu);
  out->response.from_cache = ReadScalar<uint8_t>(p + 9) != 0;
  if (ReadScalar<uint16_t>(p + 10) != 0) return false;  // reserved
  out->response.epoch = ReadScalar<uint64_t>(p + 12);
  const uint32_t count = ReadScalar<uint32_t>(p + 20);
  // Overflow-safe size check: count is bounded by the payload length
  // itself before the multiply.
  if (count > (payload.size() - kResponseHeadBytes) / 8) return false;
  if (payload.size() != kResponseHeadBytes + size_t{count} * 8) return false;
  out->response.items.resize(count);
  out->response.scores.resize(count);
  const uint8_t* items = p + kResponseHeadBytes;
  const uint8_t* scores = items + size_t{count} * 4;
  for (uint32_t i = 0; i < count; ++i) {
    out->response.items[i] = ReadScalar<uint32_t>(items + size_t{i} * 4);
    out->response.scores[i] = ReadScalar<float>(scores + size_t{i} * 4);
  }
  return true;
}

bool DecodeErrorPayload(std::span<const uint8_t> payload,
                        uint64_t* request_id, WireStatus* code) {
  if (payload.size() != kErrorPayloadBytes) return false;
  *request_id = ReadScalar<uint64_t>(payload.data());
  *code = static_cast<WireStatus>(ReadScalar<uint32_t>(payload.data() + 8));
  return true;
}

void FrameDecoder::Append(const uint8_t* data, size_t n) {
  // Compact before growing once the consumed prefix dominates — keeps
  // the buffer bounded by (one frame + one read) regardless of how long
  // the connection lives.
  if (consumed_ > 0 && consumed_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

FrameDecoder::Result FrameDecoder::Next(Frame* out) {
  if (error_ != WireStatus::kOk) return Result::kBad;
  const size_t avail = buf_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return Result::kNeedMore;
  const uint8_t* h = buf_.data() + consumed_;

  // Header checks in trust order: each failure means the stream has no
  // recoverable framing (file comment in protocol.h).
  if (ReadScalar<uint32_t>(h) != kWireMagic) {
    return Fail(WireStatus::kBadFrame);
  }
  if (ReadScalar<uint16_t>(h + 6) != 0) {  // reserved bits
    return Fail(WireStatus::kBadFrame);
  }
  if (ReadScalar<uint8_t>(h + 4) != kWireVersion) {
    return Fail(WireStatus::kBadVersion);
  }
  const uint32_t payload_len = ReadScalar<uint32_t>(h + 8);
  if (payload_len > max_payload_) {
    return Fail(WireStatus::kOversized);
  }
  if (avail < kFrameHeaderBytes + payload_len) return Result::kNeedMore;

  const uint8_t* payload = h + kFrameHeaderBytes;
  if (Crc32(payload, payload_len) != ReadScalar<uint32_t>(h + 12)) {
    return Fail(WireStatus::kBadChecksum);
  }

  // Unknown frame *types* are NOT stream errors: the header framed the
  // payload correctly, so the receiver can answer kBadType and keep the
  // connection. The decoder passes the type through untouched.
  out->type = static_cast<FrameType>(ReadScalar<uint8_t>(h + 5));
  out->payload.assign(payload, payload + payload_len);
  consumed_ += kFrameHeaderBytes + payload_len;
  return Result::kFrame;
}

}  // namespace mars
