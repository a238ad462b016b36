// Serving-path benchmark (tape-free compiled inference).
//
// Measures three regimes on a trained, checkpoint-round-tripped AF:
//   cold      tape-based Predict vs compiled ForwardPlan::Run, single query
//   batched   end-to-end ForecastService latency/QPS at several concurrency
//             levels (micro-batching worker)
//   cached    ForecastCurrent hits on the interval cache
//
// Ratio claims (plan >= 3x tape, cached p50 >= 100x below cold) are
// computed from exact sorted per-iteration samples — the registry
// histograms are log2-bucketed (<= 2x resolution), so they are exported
// as a snapshot for observability, not used for the ratios.
//
// Writes BENCH_serving.json to the working directory. `--smoke` runs a
// fast subset, writes its JSON to the system temp directory instead (so a
// smoke run never overwrites the committed figures), and exits non-zero if
// the cached p50 exceeds a generous ceiling or the compiled plan is slower
// than the tape (CI smoke).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "nn/serialize.h"
#include "serve/forward_plan.h"
#include "serve/service.h"
#include "util/metrics.h"

namespace odf::bench {
namespace {

uint64_t Percentile(std::vector<uint64_t> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  return samples[static_cast<size_t>(pos + 0.5)];
}

struct Regime {
  std::string name;
  std::vector<uint64_t> nanos;
  double qps = 0.0;
  int64_t concurrency = 1;

  uint64_t p50() const { return Percentile(nanos, 0.50); }
  uint64_t p99() const { return Percentile(nanos, 0.99); }
};

void AppendRegimeJson(std::string* out, const Regime& regime, bool last) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "    {\"name\": \"%s\", \"concurrency\": %lld, "
                "\"samples\": %zu, \"p50_ns\": %llu, \"p99_ns\": %llu, "
                "\"qps\": %.1f}%s\n",
                regime.name.c_str(),
                static_cast<long long>(regime.concurrency),
                regime.nanos.size(),
                static_cast<unsigned long long>(regime.p50()),
                static_cast<unsigned long long>(regime.p99()), regime.qps,
                last ? "" : ",");
  *out += buf;
}

int Run(bool smoke) {
  SetMetricsEnabled(true);
  Scale scale = Scale::FromEnv();
  if (smoke) scale.epochs = std::min(scale.epochs, 2);

  // Small trained world: the serving path targets deployment, where the
  // model is trained offline and loaded from a checkpoint.
  World world = BuildNyc(scale);
  ForecastDataset dataset(&world.series, /*history=*/4, /*horizon=*/2);
  const ForecastDataset::Split split = dataset.ChronologicalSplit(0.7, 0.1);

  AdvancedFrameworkConfig config;
  AdvancedFramework trained(world.spec.graph, world.spec.graph,
                            world.buckets, dataset.horizon(), config);
  TrainForecaster(trained, dataset, split, scale.Train());
  const std::string checkpoint = "bench_serving_checkpoint.bin";
  if (!nn::SaveParameters(trained, checkpoint)) {
    std::fprintf(stderr, "failed to write %s\n", checkpoint.c_str());
    return 1;
  }
  AdvancedFramework model(world.spec.graph, world.spec.graph, world.buckets,
                          dataset.horizon(), config);
  if (!nn::LoadParametersChecked(model, checkpoint).ok()) {
    std::fprintf(stderr, "failed to reload %s\n", checkpoint.c_str());
    return 1;
  }
  serve::ForwardPlan plan =
      serve::PlanCompiler::Compile(model, dataset.history());

  const int cold_iters = smoke ? 20 : 100;
  const int cached_iters = smoke ? 2000 : 20000;
  std::vector<Regime> regimes;

  // Let the core return to steady-state clocks before timing anything: the
  // training phase above runs the CPU flat out for tens of seconds, and on
  // frequency-scaled hosts the first timing loops otherwise measure the
  // thermal tail of training rather than the kernels.
  if (!smoke) std::this_thread::sleep_for(std::chrono::seconds(20));

  // --- cold single-query: tape vs plan -------------------------------
  Batch single = dataset.MakeBatch({0});
  Regime tape;
  tape.name = "cold_tape";
  for (int i = 0; i < cold_iters + 3; ++i) {
    const uint64_t start = MonotonicNanos();
    std::vector<Tensor> predictions = model.Predict(single);
    const uint64_t elapsed = MonotonicNanos() - start;
    if (i >= 3) tape.nanos.push_back(elapsed);  // skip warmup
  }
  Regime compiled;
  compiled.name = "cold_plan";
  for (int i = 0; i < cold_iters + 3; ++i) {
    const uint64_t start = MonotonicNanos();
    plan.Run(single.inputs);
    const uint64_t elapsed = MonotonicNanos() - start;
    if (i >= 3) compiled.nanos.push_back(elapsed);  // skip warmup
  }
  regimes.push_back(tape);
  regimes.push_back(compiled);
  const int64_t num_samples = dataset.NumSamples();

  // --- batched serving at several concurrency levels -----------------
  serve::ForecastService service(
      &dataset, serve::PlanCompiler::Compile(model, dataset.history()),
      serve::ServeConfig{});
  const std::vector<int64_t> levels = {1, 2, 4, 8};
  for (int64_t level : levels) {
    Regime regime;
    regime.name = "batched_c" + std::to_string(level);
    regime.concurrency = level;
    const int per_thread = (smoke ? 40 : 200) / static_cast<int>(level);
    std::vector<std::vector<uint64_t>> lat(static_cast<size_t>(level));
    const uint64_t wall_start = MonotonicNanos();
    std::vector<std::thread> clients;
    for (int64_t t = 0; t < level; ++t) {
      clients.emplace_back([&, t] {
        for (int q = 0; q < per_thread; ++q) {
          const int64_t sample = (t * 13 + q * 5) % num_samples;
          const uint64_t start = MonotonicNanos();
          serve::ForecastResult result = service.Forecast(sample);
          lat[static_cast<size_t>(t)].push_back(MonotonicNanos() - start);
          if (result == nullptr) std::abort();
        }
      });
    }
    for (std::thread& client : clients) client.join();
    const double wall =
        static_cast<double>(MonotonicNanos() - wall_start) * 1e-9;
    for (const std::vector<uint64_t>& thread_lat : lat) {
      regime.nanos.insert(regime.nanos.end(), thread_lat.begin(),
                          thread_lat.end());
    }
    regime.qps = static_cast<double>(regime.nanos.size()) / wall;
    regimes.push_back(regime);
  }

  // --- cached current-interval hits ----------------------------------
  service.SetCurrentInterval(1);
  service.ForecastCurrent();  // warm the cache
  Regime cached;
  cached.name = "cached";
  for (int i = 0; i < cached_iters; ++i) {
    const uint64_t start = MonotonicNanos();
    serve::ForecastResult result = service.ForecastCurrent();
    cached.nanos.push_back(MonotonicNanos() - start);
    if (result == nullptr) std::abort();
  }
  regimes.push_back(cached);

  // --- report ---------------------------------------------------------
  const double speedup = static_cast<double>(tape.p50()) /
                         static_cast<double>(std::max<uint64_t>(
                             compiled.p50(), 1));
  const double cache_ratio = static_cast<double>(compiled.p50()) /
                             static_cast<double>(std::max<uint64_t>(
                                 cached.p50(), 1));
  std::printf("%-12s %10s %10s %10s %8s\n", "regime", "p50_us", "p99_us",
              "qps", "conc");
  for (const Regime& regime : regimes) {
    std::printf("%-12s %10.1f %10.1f %10.1f %8lld\n", regime.name.c_str(),
                static_cast<double>(regime.p50()) * 1e-3,
                static_cast<double>(regime.p99()) * 1e-3, regime.qps,
                static_cast<long long>(regime.concurrency));
  }
  std::printf("plan_speedup_vs_tape_p50: %.2fx\n", speedup);
  std::printf("cold_over_cached_p50:     %.0fx\n", cache_ratio);

  std::string json = "{\n";
  json += "  \"bench\": \"serving\",\n";
  json += "  \"regimes\": [\n";
  for (size_t i = 0; i < regimes.size(); ++i) {
    AppendRegimeJson(&json, regimes[i], i + 1 == regimes.size());
  }
  json += "  ],\n";
  char buf[640];
  std::snprintf(buf, sizeof buf,
                "  \"plan_speedup_vs_tape_p50\": %.2f,\n"
                "  \"cold_over_cached_p50\": %.1f,\n",
                speedup, cache_ratio);
  json += buf;
  json += "  \"metrics\": ";
  json += MetricsRegistry::Global().ToJson();
  json += "\n}\n";
  const std::string path =
      smoke ? (std::filesystem::temp_directory_path() / "BENCH_serving.json")
                  .string()
            : "BENCH_serving.json";
  std::ofstream out(path);
  out << json;
  out.close();
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  std::remove(checkpoint.c_str());

  if (smoke) {
    // Generous ceiling: a cache hit is a mutex + shared_ptr copy and sits
    // in the hundreds of nanoseconds; 50 us still passes on a loaded CI
    // box while catching a broken (recomputing) cache by 2+ orders.
    constexpr uint64_t kCachedP50CeilingNs = 50'000;
    if (cached.p50() > kCachedP50CeilingNs) {
      std::fprintf(stderr,
                   "SMOKE FAIL: cached p50 %llu ns exceeds ceiling %llu ns\n",
                   static_cast<unsigned long long>(cached.p50()),
                   static_cast<unsigned long long>(kCachedP50CeilingNs));
      return 1;
    }
    if (speedup < 1.0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: compiled plan slower than the tape "
                   "(speedup %.2fx)\n",
                   speedup);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace odf::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return odf::bench::Run(smoke);
}
