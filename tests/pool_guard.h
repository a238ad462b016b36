// Test helpers for the global thread pool: restore its size after a test
// that resizes it, and count the parallel regions a piece of code forks.

#ifndef ODF_TESTS_POOL_GUARD_H_
#define ODF_TESTS_POOL_GUARD_H_

#include <cstdint>

#include "util/metrics.h"
#include "util/thread_pool.h"

namespace odf {

/// Restores the global pool's thread count when a test scope exits.
struct PoolGuard {
  int saved = ThreadPool::Global().threads();
  ~PoolGuard() { ThreadPool::Global().Resize(saved); }
};

/// Splits forked by the global pool while this object lives, read from the
/// `pool.parallel_fors` and `pool.chunks` counters. Metrics are switched on
/// for its lifetime (the pool only counts when they are) and restored after.
class PoolCounts {
 public:
  PoolCounts()
      : was_enabled_(MetricsEnabled()),
        fors_(MetricsRegistry::Global().GetCounter("pool.parallel_fors")),
        chunks_(MetricsRegistry::Global().GetCounter("pool.chunks")),
        fors_at_start_(fors_.value()),
        chunks_at_start_(chunks_.value()) {
    SetMetricsEnabled(true);
  }
  ~PoolCounts() { SetMetricsEnabled(was_enabled_); }

  PoolCounts(const PoolCounts&) = delete;
  PoolCounts& operator=(const PoolCounts&) = delete;

  uint64_t parallel_fors() const { return fors_.value() - fors_at_start_; }
  uint64_t chunks() const { return chunks_.value() - chunks_at_start_; }

 private:
  bool was_enabled_;
  Counter& fors_;
  Counter& chunks_;
  uint64_t fors_at_start_;
  uint64_t chunks_at_start_;
};

}  // namespace odf

#endif  // ODF_TESTS_POOL_GUARD_H_
