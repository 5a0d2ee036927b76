// Wall-clock timing helper for the serving-latency accounting the paper
// motivates (challenge 3: pipelines are difficult to serve in production).
#pragma once

#include <chrono>

namespace taglets::util {

/// Simple stopwatch.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}
  void reset() { start_ = Clock::now(); }
  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double elapsed_ms() const { return elapsed_seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace taglets::util
