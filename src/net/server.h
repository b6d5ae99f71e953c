// NetServer: the asynchronous TCP front-end over TopKServer. One
// reactor thread (level-triggered epoll — net/reactor.h) accepts
// connections, reassembles frames (net/connection.h), and answers with
// the same TopKResponse bytes the in-process API produces.
//
// The load-bearing design point is *natural batching*: every request
// decoded in one reactor wake-up — across all connections — is grouped
// into TopKServer::TopKBatch calls (chunks of max_wire_batch). While a
// sweep runs, newly-arriving requests accumulate in socket buffers; the
// next wake-up drains them all at once, so batch size self-scales with
// load exactly like the in-process miss coalescer. No artificial delay
// is ever added: an idle server answers a lone request at solo latency,
// a loaded one amortizes the catalog stream over every concurrent user
// (stats().wire_batches / the serve layer's batch_sweeps make the
// grouping observable — the acceptance test pins it).
//
// Threading: Start() spawns the reactor thread; Stop() (and the
// destructor) signal it through an eventfd and join. TopKServer's read
// front is fully concurrent, so in-process callers may keep using the
// wrapped server while the wire serves — both see the same epoch-swapped
// snapshots. stats() may be read from any thread.
#ifndef MARS_NET_SERVER_H_
#define MARS_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/connection.h"
#include "net/protocol.h"
#include "net/reactor.h"
#include "serve/top_k_server.h"

namespace mars {

struct NetServerOptions {
  /// Bind address. Loopback by default: the bench and tests drive the
  /// wire without touching the network config.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; port() reports the actual one.
  uint16_t port = 0;
  /// Per-frame payload cap handed to each connection's decoder.
  size_t max_frame_payload = kDefaultMaxFramePayload;
  /// Accepted connections beyond this are closed immediately.
  size_t max_connections = 1024;
  /// Requests decoded in one reactor wake-up are fed to TopKBatch in
  /// chunks of this size (the serve layer further splits sweeps by its
  /// own batch.max_batch).
  size_t max_wire_batch = 64;
  /// Backpressure: a connection whose queued-but-unsent response bytes
  /// exceed this cap is shed — one best-effort kError(kOverloaded) frame,
  /// then close (stats().backpressure_closes counts them). A reader that
  /// keeps up never comes near the cap; only a peer that pipelines
  /// requests while refusing to drain responses does. 0 = unbounded
  /// (the pre-backpressure behavior).
  size_t max_queued_response_bytes = 8u << 20;
  /// When nonzero, SO_SNDBUF for accepted sockets (set on the listener,
  /// inherited on accept). A test/bench seam: shrinking the kernel's
  /// buffer makes the userspace queue — and the cap above — observable
  /// with small traffic volumes.
  int sndbuf_bytes = 0;
};

struct NetServerStats {
  uint64_t connections_accepted = 0;
  /// Accepted and closed at once: over max_connections, or taken off the
  /// listen queue with the reserve descriptor while the process was out
  /// of file descriptors.
  uint64_t connections_dropped = 0;
  /// Connections shed for exceeding max_queued_response_bytes.
  uint64_t backpressure_closes = 0;
  uint64_t frames_decoded = 0;
  uint64_t requests_served = 0;
  uint64_t protocol_errors = 0;
  /// TopKBatch calls made on behalf of the wire...
  uint64_t wire_batches = 0;
  /// ...and how many of them carried more than one request — the
  /// natural-batching signal.
  uint64_t wire_batches_multi = 0;
};

class NetServer {
 public:
  /// Serves `server`, which the caller configures and must keep alive
  /// for the NetServer's lifetime.
  NetServer(TopKServer* server, NetServerOptions options);

  /// Stops and joins if still running.
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and spawns the reactor thread. False when the
  /// bind/listen or reactor setup fails (port busy, no epoll instance).
  /// One-shot: every call after the first returns false — after Stop()
  /// and after a failed Start() alike; construct a new NetServer to
  /// serve again.
  bool Start();

  /// Signals the reactor thread and joins. Idempotent.
  void Stop();

  /// The bound port (valid after Start() returned true).
  uint16_t port() const { return port_; }

  /// Reactor backend running ("epoll"; empty before Start).
  const std::string& backend_name() const { return backend_name_; }

  /// The wrapped serving layer (for maintenance calls — PublishEpoch,
  /// Prime — and its own stats()).
  TopKServer& top_k() { return *top_k_; }

  NetServerStats stats() const;

 private:
  void RunLoop();
  void AcceptReady();
  /// On EMFILE/ENFILE: closes the reserve descriptor, accepts and closes
  /// one pending connection, and reopens the reserve. True when a
  /// connection was shed (the caller keeps draining the queue).
  bool ShedWithReserveFd();
  /// Serves every request decoded this wake-up: TopKBatch in
  /// max_wire_batch chunks, responses queued to their connections.
  void ServeDecoded(std::vector<std::pair<int, WireRequest>>* decoded);
  void DropConnection(int fd);

  TopKServer* top_k_;
  NetServerOptions options_;

  std::unique_ptr<Reactor> reactor_;
  int listen_fd_ = -1;
  int stop_fd_ = -1;  // eventfd the reactor also waits on
  int reserve_fd_ = -1;  // held back for ShedWithReserveFd
  uint16_t port_ = 0;
  std::string backend_name_;
  std::thread loop_;
  bool running_ = false;

  std::unordered_map<int, std::unique_ptr<Connection>> connections_;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_dropped_{0};
  std::atomic<uint64_t> backpressure_closes_{0};
  std::atomic<uint64_t> frames_decoded_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> wire_batches_{0};
  std::atomic<uint64_t> wire_batches_multi_{0};
};

}  // namespace mars

#endif  // MARS_NET_SERVER_H_
