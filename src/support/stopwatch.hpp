// Monotonic wall-clock stopwatch used by the pre-calculation engine and the
// benchmark harness.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>

namespace hcg {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Elapsed time since construction / last reset.
  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  std::int64_t elapsed_nanoseconds() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// CPU time the calling thread has used (CLOCK_THREAD_CPUTIME_ID).  Unlike
/// wall time it does not grow while the thread is preempted.
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace hcg
