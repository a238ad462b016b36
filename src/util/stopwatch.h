#ifndef ODF_UTIL_STOPWATCH_H_
#define ODF_UTIL_STOPWATCH_H_

#include <chrono>

namespace odf {

/// Monotonic wall-clock stopwatch used for training/benchmark progress
/// reporting.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace odf

#endif  // ODF_UTIL_STOPWATCH_H_
