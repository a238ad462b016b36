#include "util/metrics.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "util/env_config.h"

namespace odf {

namespace {

std::atomic<bool> g_metrics_enabled{GetEnvBool("ODF_METRICS", false)};

constexpr int kSubBits = 3;  // log2(Histogram::kSubBuckets)
static_assert(Histogram::kSubBuckets == 1 << kSubBits);

/// Log-linear bucket of a nanosecond duration: values below kSubBuckets map
/// to themselves; above, the octave's top kSubBits bits below the leading
/// one pick the sub-bucket.
int BucketIndex(uint64_t nanos) {
  if (nanos < Histogram::kSubBuckets) return static_cast<int>(nanos);
  const int bit = 63 - __builtin_clzll(nanos);
  const int sub = static_cast<int>(nanos >> (bit - kSubBits)) &
                  (Histogram::kSubBuckets - 1);
  const int index = (bit - kSubBits + 1) * Histogram::kSubBuckets + sub;
  return index < Histogram::kBuckets ? index : Histogram::kBuckets - 1;
}

/// Midpoint of bucket `index` in nanoseconds.
uint64_t BucketMidpoint(int index) {
  if (index < Histogram::kSubBuckets) return static_cast<uint64_t>(index);
  const int shift = index / Histogram::kSubBuckets - 1;
  const uint64_t sub = static_cast<uint64_t>(index % Histogram::kSubBuckets);
  const uint64_t lo = (Histogram::kSubBuckets + sub) << shift;
  return lo + ((uint64_t{1} << shift) >> 1);
}

void AtomicMin(std::atomic<uint64_t>& target, uint64_t v) {
  uint64_t cur = target.load(std::memory_order_relaxed);
  while (v < cur && !target.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>& target, uint64_t v) {
  uint64_t cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

void Histogram::Record(uint64_t nanos) {
  buckets_[BucketIndex(nanos)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(nanos, std::memory_order_relaxed);
  AtomicMin(min_, nanos);
  AtomicMax(max_, nanos);
}

uint64_t Histogram::min_nanos() const {
  const uint64_t m = min_.load(std::memory_order_relaxed);
  return m == UINT64_MAX ? 0 : m;
}

uint64_t Histogram::QuantileNanos(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const uint64_t target = static_cast<uint64_t>(q * static_cast<double>(n));
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += bucket(i);
    if (seen > target) {
      return std::clamp(BucketMidpoint(i), min_nanos(), max_nanos());
    }
  }
  return max_nanos();
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

// std::map keeps metric addresses stable across later registrations, which
// is what lets callers cache `Get*` results in function-local statics.
struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl* impl = new Impl();  // leaked: metrics may tick at exit
  return *impl;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  Impl& m = impl();
  std::lock_guard<std::mutex> lock(m.mu);
  auto& slot = m.counters[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  Impl& m = impl();
  std::lock_guard<std::mutex> lock(m.mu);
  auto& slot = m.gauges[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  Impl& m = impl();
  std::lock_guard<std::mutex> lock(m.mu);
  auto& slot = m.histograms[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string MetricsRegistry::ToJson() const {
  Impl& m = impl();
  std::lock_guard<std::mutex> lock(m.mu);
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : m.counters) {
    out << (first ? "" : ",") << "\n    \"" << name << "\": " << c->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : m.gauges) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", g->value());
    out << (first ? "" : ",") << "\n    \"" << name << "\": " << buf;
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : m.histograms) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"count\": %llu, \"sum_seconds\": %.9f, "
                  "\"min_seconds\": %.9f, \"max_seconds\": %.9f, "
                  "\"p50_seconds\": %.9f, \"p99_seconds\": %.9f}",
                  static_cast<unsigned long long>(h->count()),
                  static_cast<double>(h->sum_nanos()) * 1e-9,
                  static_cast<double>(h->min_nanos()) * 1e-9,
                  static_cast<double>(h->max_nanos()) * 1e-9,
                  static_cast<double>(h->QuantileNanos(0.5)) * 1e-9,
                  static_cast<double>(h->QuantileNanos(0.99)) * 1e-9);
    out << (first ? "" : ",") << "\n    \"" << name << "\": " << buf;
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

bool MetricsRegistry::WriteJsonFile(const std::string& path) const {
  const std::string json = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return (std::fclose(f) == 0) && wrote;
}

}  // namespace odf
