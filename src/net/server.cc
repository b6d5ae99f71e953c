#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

namespace mars {

namespace {

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// The descriptor NetServer holds back for shedding under fd exhaustion.
int OpenReserveFd() { return open("/dev/null", O_RDONLY | O_CLOEXEC); }

}  // namespace

NetServer::NetServer(TopKServer* server, NetServerOptions options)
    : top_k_(server), options_(std::move(options)) {}

NetServer::~NetServer() {
  Stop();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (stop_fd_ >= 0) close(stop_fd_);
  if (reserve_fd_ >= 0) close(reserve_fd_);
}

bool NetServer::Start() {
  // One-shot: a second call would overwrite the descriptors of the first
  // (leaking a bound listener) and keep connections the new reactor
  // never watches.
  if (reactor_ != nullptr) return false;

  reactor_ = std::make_unique<Reactor>();
  if (!reactor_->ok()) return false;
  backend_name_ = reactor_->name();

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (options_.sndbuf_bytes > 0) {
    // Accepted sockets inherit the listener's buffer sizing.
    setsockopt(listen_fd_, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
               sizeof(options_.sndbuf_bytes));
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return false;
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      listen(listen_fd_, SOMAXCONN) != 0 || !SetNonBlocking(listen_fd_)) {
    return false;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    return false;
  }
  port_ = ntohs(bound.sin_port);

  stop_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (stop_fd_ < 0) return false;
  if (reserve_fd_ < 0) reserve_fd_ = OpenReserveFd();
  if (reserve_fd_ < 0) return false;

  if (!reactor_->Add(listen_fd_, /*read=*/true, /*write=*/false) ||
      !reactor_->Add(stop_fd_, /*read=*/true, /*write=*/false)) {
    return false;
  }

  running_ = true;
  loop_ = std::thread([this] { RunLoop(); });
  return true;
}

void NetServer::Stop() {
  if (!running_) return;
  const uint64_t one = 1;
  // The reactor thread exits on the eventfd's readability; retry is
  // unnecessary (an eventfd write of 1 cannot fail with EAGAIN unless
  // the counter is saturated, which a single stop cannot do).
  [[maybe_unused]] const ssize_t n = write(stop_fd_, &one, sizeof(one));
  loop_.join();
  running_ = false;
}

void NetServer::RunLoop() {
  std::vector<ReactorEvent> events;
  std::vector<std::pair<int, WireRequest>> decoded;
  for (;;) {
    events.clear();
    const int n = reactor_->Wait(&events, /*timeout_ms=*/-1);
    if (n < 0) return;  // reactor failure: nothing sane left to do

    decoded.clear();
    bool stop = false;
    bool accept = false;
    for (const ReactorEvent& ev : events) {
      if (ev.fd == stop_fd_) {
        stop = true;
        continue;
      }
      if (ev.fd == listen_fd_) {
        accept = true;
        continue;
      }
      auto it = connections_.find(ev.fd);
      if (it == connections_.end()) continue;
      Connection* conn = it->second.get();

      if (ev.readable || ev.error) {
        // Collect this connection's requests into the shared wake-up
        // batch; frames and violations roll up into server stats as
        // deltas after the call.
        const uint64_t frames_before = conn->frames_decoded();
        const uint64_t errors_before = conn->protocol_errors();
        std::vector<WireRequest> requests;
        const bool still_reading = conn->ReadAndDecode(&requests);
        frames_decoded_.fetch_add(conn->frames_decoded() - frames_before,
                                  std::memory_order_relaxed);
        protocol_errors_.fetch_add(
            conn->protocol_errors() - errors_before,
            std::memory_order_relaxed);
        for (const WireRequest& r : requests) {
          decoded.emplace_back(ev.fd, r);
        }
        // Error frames queued during decode (frame-level violations
        // produce no request for ServeDecoded to answer) go out now;
        // leftover bytes arm write interest below.
        if (conn->wants_write() && !conn->Flush()) {
          DropConnection(ev.fd);
          continue;
        }
        if (!still_reading) {
          // Read side finished. Requests decoded in this very wake-up
          // (a client that sent-then-half-closed) still get served:
          // ServeDecoded queues their responses and the flush loop
          // drops the connection once drained. Only a connection with
          // nothing in flight dies here.
          if (!conn->wants_write() && requests.empty()) {
            DropConnection(ev.fd);
            continue;
          }
          reactor_->Modify(ev.fd, /*read=*/false, conn->wants_write());
        } else if (conn->wants_write()) {
          reactor_->Modify(ev.fd, /*read=*/true, /*write=*/true);
        }
      }
      if (ev.writable) {
        if (!conn->Flush()) {
          DropConnection(ev.fd);
          continue;
        }
        if (conn->finished()) {
          DropConnection(ev.fd);
          continue;
        }
        if (!conn->wants_write()) {
          reactor_->Modify(ev.fd, /*read=*/true, /*write=*/false);
        }
      }
    }

    // Everything decoded this wake-up — across all connections — is
    // served through TopKBatch together (the natural batch).
    if (!decoded.empty()) ServeDecoded(&decoded);
    // Accept only now: a connection dropped above freed its fd, and a new
    // client accepted before ServeDecoded could reuse that number and
    // receive the dropped peer's responses.
    if (accept) AcceptReady();

    if (stop) return;
  }
}

void NetServer::AcceptReady() {
  for (;;) {
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if ((errno == EMFILE || errno == ENFILE) && ShedWithReserveFd()) {
        continue;
      }
      return;  // EAGAIN (drained) or transient accept failure
    }
    if (connections_.size() >= options_.max_connections) {
      connections_dropped_.fetch_add(1, std::memory_order_relaxed);
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (!reactor_->Add(fd, /*read=*/true, /*write=*/false)) {
      close(fd);
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_.emplace(
        fd, std::make_unique<Connection>(fd, options_.max_frame_payload));
  }
}

bool NetServer::ShedWithReserveFd() {
  // Out of descriptors, the pending connection stays queued and the
  // listener stays readable: without a free slot the loop would spin on
  // it forever. Spend the reserve slot to take the connection off the
  // queue and close it (the peer sees EOF), then hold the slot again.
  if (reserve_fd_ < 0) return false;
  close(reserve_fd_);
  const int fd =
      accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
  const bool shed = fd >= 0;
  if (shed) {
    // Count before the close: the peer's EOF must never overtake the stat.
    connections_dropped_.fetch_add(1, std::memory_order_relaxed);
    close(fd);
  }
  reserve_fd_ = OpenReserveFd();
  return shed;
}

void NetServer::ServeDecoded(
    std::vector<std::pair<int, WireRequest>>* decoded) {
  std::vector<TopKRequest> batch;
  std::vector<size_t> positions;
  size_t at = 0;
  while (at < decoded->size()) {
    const size_t n =
        std::min(options_.max_wire_batch, decoded->size() - at);
    batch.clear();
    positions.clear();
    for (size_t i = 0; i < n; ++i) {
      batch.push_back((*decoded)[at + i].second.request);
      positions.push_back(at + i);
    }
    const std::vector<TopKResponse> responses =
        top_k_->TopKBatch(std::span<const TopKRequest>(batch));
    wire_batches_.fetch_add(1, std::memory_order_relaxed);
    if (n > 1) {
      wire_batches_multi_.fetch_add(1, std::memory_order_relaxed);
    }
    requests_served_.fetch_add(n, std::memory_order_relaxed);
    for (size_t i = 0; i < n; ++i) {
      const auto& [fd, wire] = (*decoded)[positions[i]];
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // dropped mid-batch
      Connection* conn = it->second.get();
      conn->QueueResponse(wire.request_id, responses[i]);
      // Backpressure: a peer that pipelines requests without draining
      // responses grows this queue without bound (the socket buffer is
      // full, Flush can't shrink it). Shed the connection: one
      // best-effort kError naming the overload, one flush attempt for
      // whatever the socket still accepts, then close. Responses already
      // queued for this fd die with it — the peer declared itself
      // uninterested in reading them.
      if (options_.max_queued_response_bytes > 0 &&
          conn->queued_bytes() > options_.max_queued_response_bytes) {
        conn->QueueError(0, WireStatus::kOverloaded);
        conn->Flush();
        backpressure_closes_.fetch_add(1, std::memory_order_relaxed);
        DropConnection(fd);
      }
    }
    at += n;
  }

  // Push what fits now; leave write interest armed for the rest.
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection* conn = it->second.get();
    if (!conn->wants_write()) {
      ++it;
      continue;
    }
    if (!conn->Flush()) {
      const int fd = it->first;
      ++it;
      DropConnection(fd);
      continue;
    }
    if (conn->finished()) {
      const int fd = it->first;
      ++it;
      DropConnection(fd);
      continue;
    }
    if (conn->wants_write()) {
      reactor_->Modify(it->first, /*read=*/true, /*write=*/true);
    }
    ++it;
  }
}

void NetServer::DropConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  reactor_->Remove(fd);
  connections_.erase(it);  // Connection dtor closes the fd
}

NetServerStats NetServer::stats() const {
  NetServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_dropped =
      connections_dropped_.load(std::memory_order_relaxed);
  s.backpressure_closes =
      backpressure_closes_.load(std::memory_order_relaxed);
  s.frames_decoded = frames_decoded_.load(std::memory_order_relaxed);
  s.requests_served = requests_served_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.wire_batches = wire_batches_.load(std::memory_order_relaxed);
  s.wire_batches_multi =
      wire_batches_multi_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace mars
