#ifndef ODF_UTIL_THREAD_POOL_H_
#define ODF_UTIL_THREAD_POOL_H_

#include <algorithm>
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
  /// share of ParallelFor work), clamped to [1, kMaxPoolThreads];
  /// `threads <= 1` means fully inline.
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

  /// Runs `fn` over `[0, n)`, split into `min(threads(), n / grain)`
  /// contiguous chunks of at least `grain` iterations each. Runs inline when
  /// the pool is serial, when `n < 2 * grain` (one chunk), or when called
  /// from inside a pool task (nested parallelism is serialized rather than
  /// oversubscribed). Blocks until every chunk has finished. Kernels go
  /// through the free `odf::ParallelFor`, which sizes `grain` for them.
  void ParallelFor(int64_t n, int64_t grain, const RangeFn& fn);

  /// True when the calling thread runs a chunk of a split region (a pool
  /// worker, or the caller during its own chunk): a nested region.
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

/// Most threads a pool starts. A larger request, such as a mistyped
/// ODF_THREADS, would spawn that many workers and abort once thread
/// creation fails.
inline constexpr int kMaxPoolThreads = 256;

/// The global pool's size for an ODF_THREADS value (`value` is null when the
/// variable is unset): `fallback` unless the whole value parses as an
/// integer (ParseInt64), clamped to [1, kMaxPoolThreads]. Logs one warning
/// naming a value it does not use as given.
int ResolvePoolThreads(const char* value, int fallback);

/// Minimum work per parallel chunk, in the units kernels state their work
/// in: inner-loop multiply-adds, or elements touched for loops that do no
/// multiply-adds. Below this the fork/join cost outweighs the loop body.
inline constexpr int64_t kMinChunkWork = int64_t{1} << 14;

/// The library's one parallel-dispatch rule, over the global pool. Each
/// index of `[0, n)` costs `work_per_item` (values below 1 count as 1), and
/// every chunk gets at least `kMinChunkWork` of it, so the range splits into
/// `min(threads, n / ceil(kMinChunkWork / work_per_item))` chunks. Runs
/// `fn(0, n)` directly, with no RangeFn built, when the pool is serial, when
/// the caller already runs a pool chunk (`ThreadPool::InWorker()`), or when
/// the total work does not fill two chunks. Callers whose items are whole tasks (a batch, a model)
/// pass `kMinChunkWork`: each item is worth a chunk.
template <typename Fn>
void ParallelFor(int64_t n, int64_t work_per_item, const Fn& fn) {
  if (n <= 0) return;
  ThreadPool& pool = ThreadPool::Global();
  const int64_t work = std::max<int64_t>(1, work_per_item);
  const int64_t grain = (kMinChunkWork + work - 1) / work;
  if (pool.threads() <= 1 || ThreadPool::InWorker() || n / grain < 2) {
    fn(int64_t{0}, n);
    return;
  }
  pool.ParallelFor(n, grain, fn);
}

}  // namespace odf

#endif  // ODF_UTIL_THREAD_POOL_H_
