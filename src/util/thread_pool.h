#ifndef ODF_UTIL_THREAD_POOL_H_
#define ODF_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace odf {

/// Persistent worker pool behind every parallel kernel in the library.
///
/// The process-wide instance (`ThreadPool::Global()`) is sized by the
/// `ODF_THREADS` environment variable (default: `hardware_concurrency`).
/// With one thread every ParallelFor runs inline on the calling thread, so
/// `ODF_THREADS=1` reproduces fully serial execution.
///
/// Scheduling is deliberately static — `ParallelFor` splits `[0, n)` into
/// contiguous chunks with no work stealing, and every chunk's loop body is
/// independent of which thread runs it. Kernels built on top therefore
/// produce identical results for every thread count (see substrate_test).
class ThreadPool {
 public:
  /// The shared pool. Created on first use; sized from `ODF_THREADS`.
  static ThreadPool& Global();

  /// A pool with `threads` workers total (including the calling thread's
  /// share of ParallelFor work); `threads <= 1` means fully inline.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Current worker count (>= 1).
  int threads() const { return threads_; }

  /// Re-sizes the pool (joins and relaunches workers). Must not be called
  /// concurrently with ParallelFor; intended for tests and benchmarks that
  /// sweep thread counts inside one process.
  void Resize(int threads);

  /// `fn(begin, end)` over a partition of `[0, n)`.
  using RangeFn = std::function<void(int64_t begin, int64_t end)>;

  /// Runs `fn` over `[0, n)`, split into at most `threads()` contiguous
  /// chunks of at least `grain` iterations each. Runs inline when the pool
  /// is serial, when `n <= grain`, or when called from inside a pool task
  /// (nested parallelism is serialized rather than oversubscribed).
  /// Blocks until every chunk has finished.
  void ParallelFor(int64_t n, int64_t grain, const RangeFn& fn);

  /// True when the calling thread is a pool worker (nested region).
  static bool InWorker();

 private:
  void WorkerLoop();
  void Start(int threads);
  void Stop();

  int threads_ = 1;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Convenience wrapper over the global pool. A range that runs as one chunk
/// (`n <= grain`, or a serial pool) calls `fn` directly, so a small kernel
/// pays no RangeFn allocation.
template <typename Fn>
void ParallelFor(int64_t n, int64_t grain, const Fn& fn) {
  if (n <= 0) return;
  if (n <= grain || ThreadPool::Global().threads() <= 1) {
    fn(int64_t{0}, n);
    return;
  }
  ThreadPool::Global().ParallelFor(n, grain, fn);
}

}  // namespace odf

#endif  // ODF_UTIL_THREAD_POOL_H_
