// Self-check of the open-loop generator (loadgen.h) against a real
// NetServer over a cheap synthetic scorer:
//
//  1. at a rate the server meets easily, every scheduled request is sent
//     and answered, and the generator's lag p99 stays under the validity
//     bound the benchmark uses;
//  2. a deliberately stalled server (one 50 ms sleep inside a miss sweep on
//     the reactor thread) raises the measured latency of the requests
//     scheduled behind the stall: timing starts at the scheduled send, so
//     the stall shows up as queueing instead of as a lower offered load.
//
// Exits 0 when every check holds, 1 otherwise.
//
//   .bench_build/wirebench/wirebench_selftest
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "loadgen.h"
#include "net/server.h"
#include "serve/top_k_server.h"

namespace {

using namespace mars;

constexpr size_t kUsers = 5000, kItems = 500;

/// Deterministic scores; ScoreItemRange sleeps once when a stall is armed.
class StallingScorer : public ItemScorer {
 public:
  float Score(UserId u, ItemId v) const override {
    return static_cast<float>((u * 2654435761u + v * 40503u) % 1000u) / 1000.0f;
  }
  void ScoreItemRange(UserId u, ItemId begin, ItemId end,
                      float* out) const override {
    const int64_t stall = stall_ns_.exchange(0);
    if (stall > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(stall));
    for (ItemId v = begin; v < end; ++v) out[v - begin] = Score(u, v);
  }
  void ArmStall(int64_t ns) const { stall_ns_.store(ns); }

 private:
  mutable std::atomic<int64_t> stall_ns_{0};
};

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

}  // namespace

int main() {
  const wirebench::CpuPlan cpus = wirebench::PlanCpus();
  const wirebench::IdleKeeper keeper(cpus.reactor);
  auto scorer = std::make_shared<StallingScorer>();
  TopKServerOptions so;
  so.k = 10;
  so.cache.max_users = 16;  // nearly every request misses and sweeps
  TopKServer server(scorer, kUsers, kItems, so);
  NetServer net(&server, NetServerOptions{});
  bool started = false;
  wirebench::WithCpu(cpus.reactor, [&] { started = net.Start(); });
  if (!started) {
    std::printf("FAIL NetServer did not start\n");
    return 1;
  }
  wirebench::OpenLoopOptions o;
  o.port = net.port();
  o.cpu = cpus.generator;
  const auto mix = wirebench::UserMix::Uniform(kUsers);
  const double rate = 2000, seconds = 1.0;

  // 1. Easy rate: everything sent and answered, lag within the bound.
  const auto schedule = wirebench::PoissonSchedule(rate, seconds, mix, 1);
  const auto easy = wirebench::RunOpenLoop(schedule, o, nullptr);
  const auto es = wirebench::Summarize(easy);
  size_t sent = 0;
  for (const auto& r : easy.records) sent += r.sent_ns >= 0 ? 1 : 0;
  std::printf("easy: %zu scheduled, %zu sent, %zu ok, p50 %.1f us, p%.1f %.1f us, "
              "lag p99 %.1f us\n",
              schedule.size(), sent, es.ok, es.p50_us, es.tail_pct, es.tail_us,
              es.lag_p99_us);
  Expect(easy.connected, "generator connected");
  Expect(schedule.size() > 1500 && schedule.size() < 2500,
         "Poisson schedule has about rate x seconds arrivals");
  Expect(sent == schedule.size(), "every scheduled request was sent");
  Expect(es.ok == schedule.size() && es.failed == 0, "every request answered OK");
  Expect(es.lag_p99_us < wirebench::kLagLimitUs,
         "generator lag p99 under the validity bound");

  // 2. The same schedule with a 50 ms stall armed half-way through.
  std::thread staller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    scorer->ArmStall(50'000'000);
  });
  const auto stalled = wirebench::RunOpenLoop(schedule, o, nullptr);
  staller.join();
  const auto ss = wirebench::Summarize(stalled);
  // Requests answered more than 10 ms after their scheduled send. The host
  // adds a few on its own, so the stall is judged against the easy run.
  auto over_10ms = [](const wirebench::OpenLoopResult& run) {
    size_t n = 0;
    for (const auto& r : run.records) {
      if (r.outcome == wirebench::Outcome::kOk &&
          r.done_ns - r.sched_ns > 10'000'000) {
        ++n;
      }
    }
    return n;
  };
  const size_t queued = over_10ms(stalled), queued_easy = over_10ms(easy);
  std::printf("stalled: %zu ok, p50 %.1f us, p%.1f %.1f us, %zu requests over "
              "10 ms (easy run: %zu), lag p99 %.1f us\n",
              ss.ok, ss.p50_us, ss.tail_pct, ss.tail_us, queued, queued_easy,
              ss.lag_p99_us);
  Expect(ss.failed == 0, "stalled run still answers every request");
  Expect(ss.tail_us > 30000, "the stall raises tail latency above 30 ms");
  // ~rate × 40 ms of arrivals land behind the stall with > 10 ms to wait.
  Expect(queued >= queued_easy + 40,
         "requests scheduled behind the stall count its queueing");
  Expect(ss.lag_p99_us < wirebench::kLagLimitUs,
         "the generator kept its schedule during the stall");

  net.Stop();
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
