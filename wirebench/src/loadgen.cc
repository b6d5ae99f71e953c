#include "loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

namespace wirebench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

UserMix UserMix::Uniform(size_t population) {
  UserMix m;
  m.population_ = population;
  return m;
}

UserMix UserMix::Zipf(std::vector<mars::UserId> hot, double s) {
  UserMix m;
  m.hot_ = std::move(hot);
  double total = 0.0;
  for (size_t r = 0; r < m.hot_.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    m.cdf_.push_back(total);
  }
  for (double& c : m.cdf_) c /= total;
  return m;
}

mars::UserId UserMix::Draw(mars::Rng* rng) const {
  if (hot_.empty()) {
    return static_cast<mars::UserId>(rng->UniformInt(population_));
  }
  const double u = rng->Uniform();
  const size_t r = std::min<size_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
      hot_.size() - 1);
  return hot_[r];
}

std::vector<Arrival> PoissonSchedule(double rate_qps, double seconds,
                                     const UserMix& mix, uint64_t seed) {
  mars::Rng rng(seed);
  std::vector<Arrival> out;
  out.reserve(static_cast<size_t>(rate_qps * seconds * 1.1) + 16);
  double t = 0.0;
  while (true) {
    // Exponential inter-arrival gap; 1 - U keeps the log argument > 0.
    t += -std::log(1.0 - rng.Uniform()) / rate_qps;
    if (t >= seconds) break;
    Arrival a;
    a.at_ns = static_cast<int64_t>(t * 1e9);
    a.request.user = mix.Draw(&rng);
    out.push_back(a);
  }
  return out;
}

namespace {

bool PinTo(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return ::sched_setaffinity(0, sizeof(one), &one) == 0;
}

}  // namespace

CpuPlan PlanCpus() {
  CpuPlan plan;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) < 3) {
    return plan;
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  plan.generator = cpus[cpus.size() - 1];
  plan.reactor = cpus[cpus.size() - 2];
  CPU_CLR(plan.generator, &allowed);
  CPU_CLR(plan.reactor, &allowed);
  if (::sched_setaffinity(0, sizeof(allowed), &allowed) != 0) return CpuPlan{};
  return plan;
}

void WithCpu(int cpu, const std::function<void()>& fn) {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  const bool pinned =
      cpu >= 0 && ::sched_getaffinity(0, sizeof(saved), &saved) == 0 &&
      PinTo(cpu);
  fn();
  if (pinned) ::sched_setaffinity(0, sizeof(saved), &saved);
}

IdleKeeper::IdleKeeper(int cpu) {
  if (cpu < 0) return;
  thread_ = std::thread([this, cpu] {
    PinTo(cpu);
    sched_param sp{};
    ::sched_setscheduler(0, SCHED_IDLE, &sp);
    while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  });
}

IdleKeeper::~IdleKeeper() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

namespace {

struct Conn {
  int fd = -1;
  bool alive = false;
  std::vector<uint8_t> out;  // encoded, not yet fully written
  size_t out_off = 0;
  // (request index, end offset in `out`) of requests not yet fully sent.
  std::vector<std::pair<size_t, size_t>> unsent;
  size_t unsent_head = 0;
  mars::FrameDecoder decoder;
};

int ConnectTcp(const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

}  // namespace

namespace {

OpenLoopResult RunOpenLoopHere(const std::vector<Arrival>& schedule,
                               const OpenLoopOptions& options,
                               const ResponseSink& sink) {
  OpenLoopResult result;
  const size_t n = schedule.size();
  result.records.resize(n);
  for (size_t i = 0; i < n; ++i) result.records[i].sched_ns = schedule[i].at_ns;

  const size_t nc = std::max<size_t>(1, options.connections);
  std::vector<Conn> conns(nc);
  result.connected = true;
  for (Conn& c : conns) {
    c.fd = ConnectTcp(options.host, options.port);
    c.alive = c.fd >= 0;
    result.connected = result.connected && c.alive;
  }

  size_t outstanding = 0;  // queued or sent, not yet resolved
  auto fail_conn = [&](size_t ci, size_t sent_upto) {
    Conn& c = conns[ci];
    if (!c.alive) return;
    c.alive = false;
    ::close(c.fd);
    c.fd = -1;
    for (size_t i = ci; i < sent_upto; i += nc) {
      if (result.records[i].outcome == Outcome::kPending) {
        result.records[i].outcome = Outcome::kTransport;
        --outstanding;
      }
    }
  };

  const int64_t timeout_ns = static_cast<int64_t>(options.timeout_ms * 1e6);
  const int64_t last_at = n == 0 ? 0 : schedule.back().at_ns;
  const int64_t origin = NowNs() + 2'000'000;  // 2 ms to settle
  result.origin_ns = origin;
  size_t next = 0;
  std::vector<uint8_t> rbuf(1 << 16);
  mars::Frame frame;
  mars::WireResponse resp;

  while (true) {
    int64_t now = NowNs() - origin;
    // 1. Queue every request that has fallen due.
    while (next < n && schedule[next].at_ns <= now) {
      Conn& c = conns[next % nc];
      if (!c.alive) {
        result.records[next].outcome = Outcome::kTransport;
      } else {
        mars::EncodeTopKRequest(next + 1, schedule[next].request, &c.out);
        c.unsent.emplace_back(next, c.out.size());
        ++outstanding;
      }
      ++next;
    }
    // 2. Write what the kernel will take.
    for (size_t ci = 0; ci < nc; ++ci) {
      Conn& c = conns[ci];
      if (!c.alive || c.out_off == c.out.size()) continue;
      const ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (w < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          fail_conn(ci, next);
        }
        continue;
      }
      c.out_off += static_cast<size_t>(w);
      const int64_t t = NowNs() - origin;
      while (c.unsent_head < c.unsent.size() &&
             c.unsent[c.unsent_head].second <= c.out_off) {
        result.records[c.unsent[c.unsent_head].first].sent_ns = t;
        ++c.unsent_head;
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
        c.unsent.clear();
        c.unsent_head = 0;
      }
    }
    // 3. Drain every readable connection.
    for (size_t ci = 0; ci < nc; ++ci) {
      Conn& c = conns[ci];
      while (c.alive) {
        const ssize_t r = ::recv(c.fd, rbuf.data(), rbuf.size(), MSG_DONTWAIT);
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (r < 0 && errno == EINTR) continue;
        if (r <= 0) {
          fail_conn(ci, next);
          break;
        }
        const int64_t t = NowNs() - origin;
        c.decoder.Append(rbuf.data(), static_cast<size_t>(r));
        while (true) {
          const auto st = c.decoder.Next(&frame);
          if (st == mars::FrameDecoder::Result::kNeedMore) break;
          if (st == mars::FrameDecoder::Result::kBad) {
            ++result.protocol_errors;
            fail_conn(ci, next);
            break;
          }
          uint64_t id = 0;
          bool ok_frame = false;
          mars::WireStatus code = mars::WireStatus::kOk;
          if (frame.type == mars::FrameType::kTopKResponse &&
              mars::DecodeTopKResponsePayload(frame.payload, &resp)) {
            id = resp.request_id;
            ok_frame = resp.status == mars::WireStatus::kOk;
          } else if (frame.type != mars::FrameType::kError ||
                     !mars::DecodeErrorPayload(frame.payload, &id, &code)) {
            id = 0;
          }
          if (id == 0 || id > next ||
              result.records[id - 1].outcome != Outcome::kPending) {
            ++result.protocol_errors;
            continue;
          }
          RequestRecord& rec = result.records[id - 1];
          rec.done_ns = t;
          --outstanding;
          if (ok_frame && t - rec.sched_ns <= timeout_ns) {
            rec.outcome = Outcome::kOk;
            rec.epoch = resp.response.epoch;
            if (sink) sink(id - 1, resp);
          } else {
            rec.outcome = ok_frame ? Outcome::kTimedOut : Outcome::kRejected;
          }
        }
      }
    }
    now = NowNs() - origin;
    if (next == n && outstanding == 0) break;
    if (now > last_at + timeout_ns) {
      for (RequestRecord& rec : result.records) {
        if (rec.outcome == Outcome::kPending) rec.outcome = Outcome::kTimedOut;
      }
      break;
    }
  }
  for (Conn& c : conns) {
    if (c.fd >= 0) ::close(c.fd);
  }
  return result;
}

}  // namespace

OpenLoopResult RunOpenLoop(const std::vector<Arrival>& schedule,
                           const OpenLoopOptions& options,
                           const ResponseSink& sink) {
  OpenLoopResult result;
  WithCpu(options.cpu,
          [&] { result = RunOpenLoopHere(schedule, options, sink); });
  return result;
}

double Percentile(std::vector<double>* v, double pct) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v->size()));
  const size_t idx = std::clamp<size_t>(
      rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1, 0, v->size() - 1);
  return (*v)[idx];
}

double TailPercentile(size_t n) {
  if (n == 0) return 0.0;
  return std::max(0.0, std::min(99.0, 100.0 * (1.0 - 10.0 / n)));
}

double Median(std::vector<double> v) { return Percentile(&v, 50.0); }

LoadSummary Summarize(const OpenLoopResult& result) {
  LoadSummary s;
  s.attempted = result.records.size();
  std::vector<double> lat, lag;
  lat.reserve(s.attempted);
  lag.reserve(s.attempted);
  int64_t first = std::numeric_limits<int64_t>::max(), last = 0;
  for (const RequestRecord& r : result.records) {
    if (r.sent_ns >= 0) lag.push_back((r.sent_ns - r.sched_ns) / 1e3);
    if (r.outcome == Outcome::kOk) {
      ++s.ok;
      lat.push_back((r.done_ns - r.sched_ns) / 1e3);
      first = std::min(first, r.sched_ns);
      last = std::max(last, r.done_ns);
    } else {
      lat.push_back(std::numeric_limits<double>::infinity());
    }
  }
  s.failed = s.attempted - s.ok;
  s.tail_pct = TailPercentile(lat.size());
  s.p50_us = Percentile(&lat, 50.0);
  s.tail_us = Percentile(&lat, s.tail_pct);
  s.lag_p99_us = Percentile(&lag, 99.0);
  if (s.ok > 0 && last > first) s.achieved_qps = s.ok / ((last - first) / 1e9);

  s.windows = std::clamp<size_t>(s.attempted / 1000, 1, 10);
  std::vector<double> p50s, tails, slice;
  for (size_t w = 0; w < s.windows && s.attempted > 0; ++w) {
    const size_t b = s.attempted * w / s.windows;
    const size_t e = s.attempted * (w + 1) / s.windows;
    slice.clear();
    for (size_t i = b; i < e; ++i) {
      const RequestRecord& r = result.records[i];
      slice.push_back(r.outcome == Outcome::kOk
                          ? (r.done_ns - r.sched_ns) / 1e3
                          : std::numeric_limits<double>::infinity());
    }
    s.window_tail_pct = TailPercentile(slice.size());
    p50s.push_back(Percentile(&slice, 50.0));
    tails.push_back(Percentile(&slice, s.window_tail_pct));
  }
  s.window_p50_us = Median(p50s);
  s.window_tail_us = Median(tails);
  return s;
}

}  // namespace wirebench
