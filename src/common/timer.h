// Wall-clock timer for benchmarks and progress logging.
#ifndef MARS_COMMON_TIMER_H_
#define MARS_COMMON_TIMER_H_

#include <chrono>

namespace mars {

/// Monotonic stopwatch started at construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Elapsed seconds since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace mars

#endif  // MARS_COMMON_TIMER_H_
