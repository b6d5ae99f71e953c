// Open-loop load generator for the MRSN wire protocol.
//
// A schedule of requests is fixed before the run (seeded Poisson arrivals
// at an offered rate); the generator sends each request when it falls due,
// whether or not earlier ones have been answered, and times every request
// from its *scheduled* send time. A slow or stalled server therefore shows
// up as queueing in the latencies of every request scheduled behind the
// stall, instead of silently lowering the offered load (the coordinated
// omission a closed loop suffers from). How late the generator itself ran
// is recorded per request (sent - scheduled) so a run whose generator fell
// behind can be recognised and rejected.
//
// The generator is one thread driving a few non-blocking connections; it
// busy-polls instead of sleeping, because a sleeping thread's wake-up can
// be late by milliseconds on a virtualised host, which would show up as
// generator lag. Requests are spread round-robin over the connections.
#ifndef WIREBENCH_LOADGEN_H_
#define WIREBENCH_LOADGEN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/protocol.h"

namespace wirebench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

/// Who asks: uniform over [0, population) or Zipf(s) over a fixed hot list.
class UserMix {
 public:
  static UserMix Uniform(size_t population);
  /// Rank r of `hot` is drawn with probability proportional to 1/(r+1)^s.
  static UserMix Zipf(std::vector<mars::UserId> hot, double s);

  mars::UserId Draw(mars::Rng* rng) const;

 private:
  size_t population_ = 0;
  std::vector<mars::UserId> hot_;
  std::vector<double> cdf_;
};

struct Arrival {
  int64_t at_ns = 0;  // scheduled send time, relative to the run origin
  mars::TopKRequest request;
};

/// Poisson arrivals at `rate_qps` over `seconds`, users drawn from `mix`.
std::vector<Arrival> PoissonSchedule(double rate_qps, double seconds,
                                     const UserMix& mix, uint64_t seed);

enum class Outcome : uint8_t {
  kPending,
  kOk,         // kTopKResponse with status kOk
  kRejected,   // a non-OK status or a kError frame for this request
  kTransport,  // the connection failed or closed before the answer
  kTimedOut,   // no answer within timeout of the scheduled time
};

struct RequestRecord {
  int64_t sched_ns = 0;
  int64_t sent_ns = -1;  // last byte handed to the kernel
  int64_t done_ns = -1;  // response received
  uint64_t epoch = 0;
  Outcome outcome = Outcome::kPending;
};

struct OpenLoopOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t connections = 2;
  /// A request unanswered this long after its scheduled time fails.
  double timeout_ms = 1000.0;
  /// When >= 0, the generator thread runs pinned to this CPU for the run
  /// (its previous affinity is restored afterwards). See PlanCpus.
  int cpu = -1;
};

/// CPU placement of the benchmark's threads. The generator spins on a CPU
/// of its own (sharing one with the reactor it wakes would delay that
/// wake-up by a scheduler time slice); the server's reactor gets another,
/// kept from halting by an idle-priority spinner (see IdleKeeper); the
/// remaining CPUs take everything else (a trainer, set-up pools). Every
/// field is -1 when the process has fewer than three CPUs, and then
/// nothing is pinned.
struct CpuPlan {
  int generator = -1;
  int reactor = -1;
};

/// Makes the plan and restricts the calling thread — and so every thread
/// it creates afterwards — to the CPUs the plan leaves for the rest.
CpuPlan PlanCpus();

/// Runs `fn` with the calling thread pinned to `cpu` (no-op pinning when
/// cpu < 0), so threads `fn` spawns inherit that pin; then restores.
void WithCpu(int cpu, const std::function<void()>& fn);

/// A SCHED_IDLE thread spinning on `cpu`: any other runnable thread there
/// preempts it at once, but the virtual CPU never halts, so a wake-up of
/// the thread pinned there does not pay the hypervisor's halt/resume
/// latency (milliseconds at the tail on a virtualised host). Does nothing
/// when cpu < 0.
class IdleKeeper {
 public:
  explicit IdleKeeper(int cpu);
  ~IdleKeeper();
  IdleKeeper(const IdleKeeper&) = delete;
  IdleKeeper& operator=(const IdleKeeper&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct OpenLoopResult {
  std::vector<RequestRecord> records;  // parallel to the schedule
  int64_t origin_ns = 0;               // absolute NowNs() of time zero
  size_t protocol_errors = 0;          // frames that matched no request
  bool connected = false;
};

/// Called for every kOk response, from the generator thread: keep it cheap
/// (it runs on the clock of the requests still in flight).
using ResponseSink =
    std::function<void(size_t index, const mars::WireResponse& response)>;

OpenLoopResult RunOpenLoop(const std::vector<Arrival>& schedule,
                           const OpenLoopOptions& options,
                           const ResponseSink& sink);

/// Summary of one open-loop run. Latencies count failed requests as
/// infinitely late, so a failure always misses a latency limit.
struct LoadSummary {
  size_t attempted = 0;
  size_t ok = 0;
  size_t failed = 0;
  double p50_us = 0.0;
  double tail_us = 0.0;    // the percentile below
  double tail_pct = 0.0;   // highest percentile <= 99 with >= 10 beyond it
  double lag_p99_us = 0.0; // sent - scheduled
  double achieved_qps = 0.0;
  // The run cut into `windows` consecutive slices of equal request count
  // (>= 1000 each when the run has them, at most 10): the medians over the
  // slices of their p50 and tail. A lone host stall moves one slice only.
  size_t windows = 0;
  double window_p50_us = 0.0;
  double window_tail_us = 0.0;
  double window_tail_pct = 0.0;
};

LoadSummary Summarize(const OpenLoopResult& result);

/// Generator lag p99 beyond which a run is invalid: the generator, not the
/// server, would be what fell behind.
inline constexpr double kLagLimitUs = 2000.0;

/// Nearest-rank percentile (0-100) of `v`; sorts in place. 0 when empty.
double Percentile(std::vector<double>* v, double pct);

/// The percentile reported as "tail" for `n` samples: p99 when n >= 1000,
/// otherwise the highest percentile that still leaves 10 samples beyond it.
double TailPercentile(size_t n);

double Median(std::vector<double> v);

}  // namespace wirebench

#endif  // WIREBENCH_LOADGEN_H_
