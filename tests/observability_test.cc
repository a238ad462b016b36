#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/var.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace odf {
namespace {

namespace ag = odf::autograd;

// Pins the metrics switch for one test and restores the ambient state
// after, so neither test order nor an ODF_METRICS=1 environment matters.
class ScopedMetricsEnabled {
 public:
  explicit ScopedMetricsEnabled(bool enabled) : was_(MetricsEnabled()) {
    SetMetricsEnabled(enabled);
  }
  ~ScopedMetricsEnabled() { SetMetricsEnabled(was_); }

 private:
  bool was_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(MetricsTest, CounterConcurrentIncrements) {
  ScopedMetricsEnabled on(true);
  Counter& c = MetricsRegistry::Global().GetCounter("test.concurrent");
  c.Reset();
  constexpr int64_t kAdds = 20000;
  ThreadPool::Global().ParallelFor(kAdds, 64, [&](int64_t b0, int64_t b1) {
    for (int64_t i = b0; i < b1; ++i) c.Add(1);
  });
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kAdds));
}

TEST(MetricsTest, HistogramConcurrentRecordsAndStats) {
  ScopedMetricsEnabled on(true);
  Histogram& h = MetricsRegistry::Global().GetHistogram("test.hist");
  h.Reset();
  constexpr int64_t kSamples = 10000;
  ThreadPool::Global().ParallelFor(
      kSamples, 64, [&](int64_t b0, int64_t b1) {
        for (int64_t i = b0; i < b1; ++i) {
          h.Record(static_cast<uint64_t>(i % 1000) + 1);
        }
      });
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kSamples));
  EXPECT_EQ(h.min_nanos(), 1u);
  EXPECT_EQ(h.max_nanos(), 1000u);
  EXPECT_GT(h.sum_nanos(), 0u);
  // Quantiles are bucket estimates clamped to the recorded range.
  EXPECT_GE(h.QuantileNanos(0.99), h.QuantileNanos(0.5));
  EXPECT_LE(h.QuantileNanos(0.99), 1000u);
}

// A metric must tell a 10% regression apart: p50 and p99 of constant and of
// uniformly spread samples land within 10% of the exact order statistics.
TEST(MetricsTest, HistogramQuantilesWithinTenPercent) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Record(140000);  // 140 µs
  EXPECT_NEAR(static_cast<double>(h.QuantileNanos(0.5)), 140000.0, 14000.0);
  EXPECT_NEAR(static_cast<double>(h.QuantileNanos(0.99)), 140000.0, 14000.0);

  h.Reset();
  std::vector<uint64_t> samples;  // 100–300 µs, uniform, ascending
  for (uint64_t i = 0; i < 1000; ++i) samples.push_back(100000 + 200 * i);
  for (uint64_t s : samples) h.Record(s);
  for (double q : {0.5, 0.99}) {
    const double exact = static_cast<double>(
        samples[static_cast<size_t>(q * static_cast<double>(samples.size()))]);
    EXPECT_NEAR(static_cast<double>(h.QuantileNanos(q)), exact, 0.1 * exact)
        << "q=" << q;
  }
}

TEST(MetricsTest, GaugeLastWriteWins) {
  Gauge& g = MetricsRegistry::Global().GetGauge("test.gauge");
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(MetricsTest, RegistryReturnsSameInstance) {
  Counter& a = MetricsRegistry::Global().GetCounter("test.same");
  Counter& b = MetricsRegistry::Global().GetCounter("test.same");
  EXPECT_EQ(&a, &b);
  Histogram& ha = MetricsRegistry::Global().GetHistogram("test.same.h");
  Histogram& hb = MetricsRegistry::Global().GetHistogram("test.same.h");
  EXPECT_EQ(&ha, &hb);
}

TEST(MetricsTest, JsonExportContainsRegisteredMetrics) {
  ScopedMetricsEnabled on(true);
  MetricsRegistry::Global().GetCounter("test.json_counter").Add(3);
  MetricsRegistry::Global().GetGauge("test.json_gauge").Set(1.5);
  Histogram& h = MetricsRegistry::Global().GetHistogram("test.json_hist");
  h.Reset();
  h.Record(500);
  const std::string json = MetricsRegistry::Global().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_hist\""), std::string::npos);

  const std::string path =
      (std::filesystem::temp_directory_path() / "odf_metrics_test.json")
          .string();
  ASSERT_TRUE(MetricsRegistry::Global().WriteJsonFile(path));
  EXPECT_EQ(ReadFile(path), json);
  std::remove(path.c_str());
}

TEST(MetricsTest, DisabledScopedTimerRecordsNothing) {
  ScopedMetricsEnabled off(false);
  Histogram& h = MetricsRegistry::Global().GetHistogram("test.disabled");
  h.Reset();
  { ScopedTimer t(h); }
  EXPECT_EQ(h.count(), 0u);
}

TEST(TracerTest, CaptureProducesForwardBackwardAndPoolSpans) {
  if (TraceEnabled()) GTEST_SKIP() << "ambient ODF_TRACE capture running";
  const std::string path =
      (std::filesystem::temp_directory_path() / "odf_trace_test.json")
          .string();
  Tracer::Global().Start(path);
  ASSERT_TRUE(TraceEnabled());

  // A tiny training-shaped graph: forward ops, a backward pass, pool chunks.
  Rng rng(1);
  ag::Var a(Tensor::RandomNormal(Shape({8, 8}), rng), true);
  ag::Var b(Tensor::RandomNormal(Shape({8, 8}), rng), true);
  ag::Var loss = ag::SumAll(ag::Tanh(ag::MatMul(a, b)));
  loss.Backward();
  ThreadPool::Global().ParallelFor(256, 16, [](int64_t, int64_t) {});
  EXPECT_GT(Tracer::Global().BufferedEvents(), 0u);

  ASSERT_TRUE(Tracer::Global().Stop());
  EXPECT_FALSE(TraceEnabled());

  const std::string json = ReadFile(path);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.rfind("]}"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"fwd/MatMul\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"fwd/Tanh\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"bwd/MatMul\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"autograd/Backward\""), std::string::npos);
  if (ThreadPool::Global().threads() > 1) {
    // Chunk spans only exist on the parallel path (serial runs inline).
    EXPECT_NE(json.find("\"name\": \"pool/chunk\""), std::string::npos);
  }
  EXPECT_NE(json.find("\"cat\": \"kernel\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TracerTest, ConcurrentRecordingIsSafe) {
  if (TraceEnabled()) GTEST_SKIP() << "ambient ODF_TRACE capture running";
  const std::string path =
      (std::filesystem::temp_directory_path() / "odf_trace_mt_test.json")
          .string();
  Tracer::Global().Start(path);
  ThreadPool::Global().ParallelFor(2000, 8, [](int64_t b0, int64_t b1) {
    for (int64_t i = b0; i < b1; ++i) {
      ODF_TRACE_SCOPE("test/", "span", "test");
    }
  });
  // Every chunk body span plus 2000 test spans must have been buffered.
  EXPECT_GE(Tracer::Global().BufferedEvents(), 2000u);
  ASSERT_TRUE(Tracer::Global().Stop());
  const std::string json = ReadFile(path);
  EXPECT_NE(json.find("\"name\": \"test/span\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TracerTest, DisabledRecordsNothing) {
  if (TraceEnabled()) GTEST_SKIP() << "ambient ODF_TRACE capture running";
  const size_t before = Tracer::Global().BufferedEvents();
  for (int i = 0; i < 100; ++i) {
    ODF_TRACE_SCOPE("test/", "noop", "test");
  }
  EXPECT_EQ(Tracer::Global().BufferedEvents(), before);
}

TEST(TracerTest, StopWithoutStartFails) {
  if (TraceEnabled()) GTEST_SKIP() << "ambient ODF_TRACE capture running";
  EXPECT_FALSE(Tracer::Global().Stop());
}

TEST(ObservabilityOverheadTest, DisabledInstrumentationIsCheap) {
  // Smoke check, not a benchmark: with tracing and metrics off, a span +
  // timer pair is a couple of relaxed loads. The bound is deliberately
  // generous (1 µs/iteration) so sanitizer and debug builds pass; a real
  // regression (a lock or clock read on the disabled path) costs well over
  // this once contended.
  if (TraceEnabled()) GTEST_SKIP() << "ambient ODF_TRACE capture running";
  ScopedMetricsEnabled off(false);
  Histogram& h = MetricsRegistry::Global().GetHistogram("test.overhead");
  constexpr int kIters = 200000;
  const uint64_t start = MonotonicNanos();
  for (int i = 0; i < kIters; ++i) {
    ODF_TRACE_SCOPE("test/", "overhead", "test");
    ScopedTimer t(h);
  }
  const uint64_t elapsed = MonotonicNanos() - start;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_LT(elapsed / kIters, 1000u) << "disabled path cost "
                                     << elapsed / kIters << " ns/iter";
}

}  // namespace
}  // namespace odf
