#ifndef ODF_UTIL_METRICS_H_
#define ODF_UTIL_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace odf {

/// Monotonic nanosecond timestamp shared by the metrics and trace layers.
inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process-wide switch for the built-in metric instrumentation (kernel
/// timing histograms, pool counters, …). Initialized from `ODF_METRICS`
/// (off by default); a disabled check is one relaxed atomic load, so
/// instrumented hot paths pay nothing measurable when metrics are off.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

/// Monotonically increasing event count. Increments are single relaxed
/// atomic adds — safe and lock-free from any thread, including pool workers.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, learning rate, …).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Lock-free timing histogram over log-linear nanosecond buckets: each
/// octave [2^k, 2^{k+1}) splits into kSubBuckets equal-width buckets, and
/// values below kSubBuckets ns get one bucket each. Tracks count/sum/min/max
/// exactly; a quantile is its bucket's midpoint clamped to [min, max], so
/// its relative error is at most 1/(2·kSubBuckets) (6.25%). All mutation is
/// relaxed atomics.
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;
  /// Resolves samples below 2^48 ns (~78 hours); larger ones share the
  /// last bucket.
  static constexpr int kBuckets = 46 * kSubBuckets;

  void Record(uint64_t nanos);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_nanos() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t min_nanos() const;  // 0 when empty
  uint64_t max_nanos() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Estimated quantile in nanoseconds (q in [0, 1]); 0 when empty.
  uint64_t QuantileNanos(double q) const;

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

/// Thread-safe name → metric registry with stable pointers: Get* registers
/// on first use (under a mutex) and callers cache the returned reference in
/// a function-local static, so steady-state increments never touch the
/// lock. Export renders every registered metric as one JSON object.
class MetricsRegistry {
 public:
  /// The process-wide registry (leaked, safe during static destruction).
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string ToJson() const;
  bool WriteJsonFile(const std::string& path) const;

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

/// RAII histogram timer. Reads the clock only when metrics are enabled at
/// construction; otherwise both ends are a null check.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h)
      : histogram_(MetricsEnabled() ? &h : nullptr),
        start_(histogram_ != nullptr ? MonotonicNanos() : 0) {}
  ~ScopedTimer() {
    if (histogram_ != nullptr) histogram_->Record(MonotonicNanos() - start_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  uint64_t start_;
};

}  // namespace odf

#endif  // ODF_UTIL_METRICS_H_
