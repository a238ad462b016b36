#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pool_guard.h"

namespace odf {
namespace {

// The ODF_THREADS resolution as a pure function: no pool is built from these
// values.
TEST(ThreadPoolTest, ResolvesTheEnvironmentValueIntoTheCappedRange) {
  EXPECT_EQ(ResolvePoolThreads(nullptr, 3), 3);
  EXPECT_EQ(ResolvePoolThreads("2", 3), 2);
  EXPECT_EQ(ResolvePoolThreads("4x", 3), 3);
  EXPECT_EQ(ResolvePoolThreads("1e9", 3), 3);
  EXPECT_EQ(ResolvePoolThreads("0", 3), 1);
  EXPECT_EQ(ResolvePoolThreads("-3", 3), 1);
  EXPECT_EQ(ResolvePoolThreads("99999999999", 3), kMaxPoolThreads);
  // 2^32 + 1 wraps to 1 through a bare int cast.
  EXPECT_EQ(ResolvePoolThreads("4294967297", 3), kMaxPoolThreads);
  EXPECT_EQ(ResolvePoolThreads(nullptr, 100000), kMaxPoolThreads);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(100, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 3, 4, 7}) {
    ThreadPool pool(threads);
    for (int64_t n : {0, 1, 5, 64, 1000, 1027}) {
      for (int64_t grain : {1, 8, 100, 5000}) {
        std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
        for (auto& h : hits) h = 0;
        pool.ParallelFor(n, grain, [&](int64_t begin, int64_t end) {
          EXPECT_LE(0, begin);
          EXPECT_LE(begin, end);
          EXPECT_LE(end, n);
          for (int64_t i = begin; i < end; ++i) {
            hits[static_cast<size_t>(i)].fetch_add(1);
          }
        });
        for (int64_t i = 0; i < n; ++i) {
          EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
              << "threads=" << threads << " n=" << n << " grain=" << grain
              << " i=" << i;
        }
      }
    }
  }
}

TEST(ThreadPoolTest, GrainLimitsChunkCount) {
  ThreadPool pool(8);
  std::atomic<int> chunks{0};
  // n=22, grain=6 -> 22/6 = 3 chunks of at least 6 iterations each,
  // regardless of thread count.
  pool.ParallelFor(22, 6, [&](int64_t begin, int64_t end) {
    EXPECT_GE(end - begin, 6);
    chunks.fetch_add(1);
  });
  EXPECT_EQ(chunks.load(), 3);
}

TEST(ThreadPoolTest, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  constexpr int64_t kN = 123457;
  std::vector<std::atomic<int64_t>> partial(1);
  partial[0] = 0;
  pool.ParallelFor(kN, 1000, [&](int64_t begin, int64_t end) {
    int64_t local = 0;
    for (int64_t i = begin; i < end; ++i) local += i;
    partial[0].fetch_add(local);
  });
  EXPECT_EQ(partial[0].load(), kN * (kN - 1) / 2);
}

TEST(ThreadPoolTest, NestedCallsRunInline) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(8, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      // A nested ParallelFor from inside a task must not deadlock; it runs
      // inline on the worker (or caller) that owns the outer chunk.
      pool.ParallelFor(100, 1, [&](int64_t b2, int64_t e2) {
        total.fetch_add(e2 - b2);
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 100);
}

TEST(ThreadPoolTest, ResizeChangesThreadCount) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.threads(), 2);
  pool.Resize(5);
  EXPECT_EQ(pool.threads(), 5);
  std::atomic<int64_t> count{0};
  pool.ParallelFor(1000, 1, [&](int64_t begin, int64_t end) {
    count.fetch_add(end - begin);
  });
  EXPECT_EQ(count.load(), 1000);
  pool.Resize(1);
  EXPECT_EQ(pool.threads(), 1);
  count = 0;
  pool.ParallelFor(37, 1, [&](int64_t begin, int64_t end) {
    count.fetch_add(end - begin);
  });
  EXPECT_EQ(count.load(), 37);
}

TEST(ThreadPoolTest, GlobalPoolIsUsable) {
  std::atomic<int64_t> count{0};
  ParallelFor(257, 16, [&](int64_t begin, int64_t end) {
    count.fetch_add(end - begin);
  });
  EXPECT_EQ(count.load(), 257);
}

// The dispatch rule (odf::ParallelFor): chunks carry at least kMinChunkWork,
// so a range whose total work fills fewer than two chunks never forks.
TEST(ParallelForRuleTest, WorkUnderTwoChunksRunsInline) {
  PoolGuard guard;
  ThreadPool::Global().Resize(4);
  PoolCounts counts;
  std::atomic<int> calls{0};
  for (const int64_t work : {int64_t{1}, int64_t{3}, int64_t{64},
                             kMinChunkWork - 1, kMinChunkWork}) {
    // Under one chunk in total, then just under two.
    for (const int64_t total : {kMinChunkWork - 1, 2 * kMinChunkWork - 1}) {
      const int64_t n = std::max<int64_t>(1, total / work);
      if (n * work >= 2 * kMinChunkWork) continue;
      ParallelFor(n, work, [&](int64_t begin, int64_t end) {
        EXPECT_EQ(begin, 0);
        EXPECT_EQ(end, n);
        calls.fetch_add(1);
      });
      EXPECT_EQ(calls.exchange(0), 1) << "work=" << work << " n=" << n;
    }
  }
  EXPECT_EQ(counts.parallel_fors(), 0u);
  EXPECT_EQ(counts.chunks(), 0u);
}

// Larger work splits into min(threads, total / kMinChunkWork) chunks (never
// more chunks than items), each carrying at least kMinChunkWork.
TEST(ParallelForRuleTest, SplitsIntoMinChunkWorkChunks) {
  PoolGuard guard;
  for (const int threads : {2, 3, 4}) {
    ThreadPool::Global().Resize(threads);
    // Work values that divide kMinChunkWork or are multiples of it, so
    // total / kMinChunkWork counts whole chunks exactly.
    for (const int64_t work : {int64_t{1}, int64_t{16}, kMinChunkWork / 2,
                               kMinChunkWork, 3 * kMinChunkWork}) {
      for (const int64_t n : {int64_t{2}, int64_t{3}, int64_t{5},
                              2 * kMinChunkWork / work,
                              7 * kMinChunkWork / work + 1}) {
        if (n == 0) continue;
        const int64_t total = n * work;
        const int64_t expected = std::min<int64_t>(
            {threads, n, total / kMinChunkWork});
        PoolCounts counts;
        std::atomic<int64_t> chunks{0};
        std::atomic<int64_t> covered{0};
        ParallelFor(n, work, [&](int64_t begin, int64_t end) {
          if (expected >= 2) {
            EXPECT_GE((end - begin) * work, kMinChunkWork);
          }
          chunks.fetch_add(1);
          covered.fetch_add(end - begin);
        });
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " work=" + std::to_string(work) +
                     " n=" + std::to_string(n));
        EXPECT_EQ(covered.load(), n);
        EXPECT_EQ(chunks.load(), std::max<int64_t>(1, expected));
        EXPECT_EQ(counts.parallel_fors(), expected >= 2 ? 1u : 0u);
        EXPECT_EQ(counts.chunks(),
                  expected >= 2 ? static_cast<uint64_t>(expected) : 0u);
      }
    }
  }
}

// A ParallelFor issued from inside a chunk (a worker's, or the caller's own)
// runs inline instead of forking again.
TEST(ParallelForRuleTest, NestedCallRunsInline) {
  PoolGuard guard;
  ThreadPool::Global().Resize(4);
  PoolCounts counts;
  std::atomic<int> outer_chunks{0};
  std::atomic<int> inner_calls{0};
  ParallelFor(4, kMinChunkWork, [&](int64_t begin, int64_t end) {
    outer_chunks.fetch_add(1);
    EXPECT_TRUE(ThreadPool::InWorker());
    for (int64_t i = begin; i < end; ++i) {
      ParallelFor(8 * kMinChunkWork, 1, [&](int64_t b2, int64_t e2) {
        EXPECT_EQ(b2, 0);
        EXPECT_EQ(e2, 8 * kMinChunkWork);
        inner_calls.fetch_add(1);
      });
    }
  });
  EXPECT_FALSE(ThreadPool::InWorker());
  EXPECT_EQ(outer_chunks.load(), 4);
  EXPECT_EQ(inner_calls.load(), 4);
  EXPECT_EQ(counts.parallel_fors(), 1u);
  EXPECT_EQ(counts.chunks(), 4u);
}

}  // namespace
}  // namespace odf
