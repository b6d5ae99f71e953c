#include "net/reactor.h"

#include <errno.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <cstdint>

namespace mars {

namespace {

uint32_t Mask(bool read, bool write) {
  uint32_t m = EPOLLRDHUP;
  if (read) m |= EPOLLIN;
  if (write) m |= EPOLLOUT;
  return m;
}

}  // namespace

Reactor::Reactor() : epfd_(epoll_create1(EPOLL_CLOEXEC)) {}

Reactor::~Reactor() {
  if (epfd_ >= 0) close(epfd_);
}

bool Reactor::Add(int fd, bool read, bool write) {
  epoll_event ev{};
  ev.events = Mask(read, write);
  ev.data.fd = fd;
  return epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool Reactor::Modify(int fd, bool read, bool write) {
  epoll_event ev{};
  ev.events = Mask(read, write);
  ev.data.fd = fd;
  return epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void Reactor::Remove(int fd) { epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr); }

int Reactor::Wait(std::vector<ReactorEvent>* events, int timeout_ms) {
  epoll_event raw[64];
  int n;
  do {
    n = epoll_wait(epfd_, raw, 64, timeout_ms);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return -1;
  for (int i = 0; i < n; ++i) {
    ReactorEvent ev;
    ev.fd = raw[i].data.fd;
    ev.readable = (raw[i].events & (EPOLLIN | EPOLLHUP | EPOLLRDHUP)) != 0;
    ev.writable = (raw[i].events & EPOLLOUT) != 0;
    ev.error = (raw[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    events->push_back(ev);
  }
  return n;
}

}  // namespace mars
