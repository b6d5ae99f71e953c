#include "net/connection.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

namespace mars {

Connection::Connection(int fd, size_t max_frame_payload)
    : fd_(fd), decoder_(max_frame_payload) {}

Connection::~Connection() {
  if (fd_ >= 0) close(fd_);
}

bool Connection::ReadAndDecode(std::vector<WireRequest>* out) {
  if (read_done_) return false;
  uint8_t chunk[16 * 1024];
  // Per-wake-up read budget. Without it, a peer that keeps the pipe
  // full delivers full chunks forever and one connection monopolizes
  // the event loop — starving every other connection and deferring the
  // response/backpressure cycle for the duration of its backlog. Under
  // the reactor's level-triggered readiness, leftover bytes simply fire
  // the next wake-up.
  constexpr size_t kMaxBytesPerWake = 16 * sizeof(chunk);  // 256 KiB
  size_t consumed = 0;
  while (consumed < kMaxBytesPerWake) {
    const ssize_t n = read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      decoder_.Append(chunk, static_cast<size_t>(n));
      consumed += static_cast<size_t>(n);
      if (static_cast<size_t>(n) < sizeof(chunk)) {
        // Short read: the socket is drained for now; decode what we
        // have. (A full chunk loops — more may be buffered.)
        break;
      }
      continue;
    }
    if (n == 0) {
      read_done_ = true;  // orderly peer close
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    read_done_ = true;  // fatal socket error
    break;
  }

  Frame frame;
  for (;;) {
    const FrameDecoder::Result r = decoder_.Next(&frame);
    if (r == FrameDecoder::Result::kNeedMore) break;
    if (r == FrameDecoder::Result::kBad) {
      // Stream-level violation: one error frame naming it, then close
      // once it flushes. No further bytes from this peer are trusted.
      ++protocol_errors_;
      EncodeError(0, decoder_.error(), &outbuf_);
      read_done_ = true;
      break;
    }
    ++frames_decoded_;
    HandleFrame(frame, out);
  }
  return !read_done_;
}

void Connection::HandleFrame(const Frame& frame,
                             std::vector<WireRequest>* out) {
  switch (frame.type) {
    case FrameType::kTopKRequest: {
      WireRequest req;
      if (!DecodeTopKRequestPayload(frame.payload, &req)) {
        // Framing held but the payload is not a request: recoverable.
        ++protocol_errors_;
        EncodeError(0, WireStatus::kBadFrame, &outbuf_);
        return;
      }
      out->push_back(req);
      return;
    }
    case FrameType::kTopKResponse:
    case FrameType::kError:
    default:
      // A client pushing responses at the server, or a type this
      // version doesn't know: answer kBadType, keep the connection
      // (the frame was well-delimited).
      ++protocol_errors_;
      EncodeError(0, WireStatus::kBadType, &outbuf_);
      return;
  }
}

void Connection::QueueResponse(uint64_t request_id,
                               const TopKResponse& response) {
  EncodeTopKResponse(request_id, response, &outbuf_);
}

void Connection::QueueError(uint64_t request_id, WireStatus code) {
  EncodeError(request_id, code, &outbuf_);
}

bool Connection::Flush() {
  while (write_pos_ < outbuf_.size()) {
    // MSG_NOSIGNAL: a peer that resets mid-flush must surface as EPIPE,
    // not a process-killing SIGPIPE (the backpressure shed provokes
    // exactly this race).
    const ssize_t n = send(fd_, outbuf_.data() + write_pos_,
                           outbuf_.size() - write_pos_, MSG_NOSIGNAL);
    if (n > 0) {
      write_pos_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer vanished mid-write
  }
  // Fully drained: reclaim the buffer so a long-lived connection's
  // outbuf is bounded by its largest in-flight burst, not its history.
  outbuf_.clear();
  write_pos_ = 0;
  return true;
}

}  // namespace mars
