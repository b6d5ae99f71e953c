// The readiness reactor of the TCP front-end: level-triggered epoll.
//
// Level-triggered from the caller's point of view: a Wait returns an fd
// as readable for as long as unread bytes remain, so the connection state
// machine never needs the drain-to-EAGAIN discipline edge-triggering
// would force (it still drains — for batching, not correctness).
//
// Threading: a reactor belongs to the single thread that Waits on it.
// Add/Modify/Remove must come from that thread (the server loop owns
// both roles); nothing here is internally synchronized.
#ifndef MARS_NET_REACTOR_H_
#define MARS_NET_REACTOR_H_

#include <vector>

namespace mars {

/// One readiness event. `error` covers hangup/error conditions; the
/// caller treats it like readability (the next read reports the close).
struct ReactorEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

class Reactor {
 public:
  Reactor();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// False when the epoll instance could not be created.
  bool ok() const { return epfd_ >= 0; }

  /// Backend name for stats/logs.
  const char* name() const { return "epoll"; }

  /// Registers `fd` with the given interest set. False on failure.
  bool Add(int fd, bool read, bool write);

  /// Changes the interest set of a registered fd.
  bool Modify(int fd, bool read, bool write);

  /// Unregisters `fd`. Safe to call just before closing it.
  void Remove(int fd);

  /// Blocks up to `timeout_ms` (-1 = forever) and appends ready events.
  /// Returns the number appended, 0 on timeout, -1 on reactor failure.
  int Wait(std::vector<ReactorEvent>* events, int timeout_ms);

 private:
  int epfd_;
};

}  // namespace mars

#endif  // MARS_NET_REACTOR_H_
