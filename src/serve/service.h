#ifndef ODF_SERVE_SERVICE_H_
#define ODF_SERVE_SERVICE_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "od/dataset.h"
#include "serve/forward_plan.h"

namespace odf::serve {

/// Serving front-end knobs (docs/serving.md).
struct ServeConfig {
  /// Largest number of distinct samples coalesced into one plan execution.
  int64_t max_batch = 8;
};

/// A ForwardPlan bound to a dataset: forecasts dataset samples by index,
/// factorizing each interval a batch reads once (docs/serving.md "Factor
/// window"). A sample's window is the `history` intervals ending at its
/// anchor, and an interval's factors depend only on the interval and the
/// weights, so windows that share intervals share their factors: within a
/// batch, and across batches for the intervals of the one window it keeps.
/// Not thread-safe: ForecastService's worker owns it.
class ServingPlan {
 public:
  /// Stage F runs on at most `max_batch` intervals at once, and on no more
  /// than the most samples one Run has held, so its arena never outgrows a
  /// whole-forward plan's.
  ServingPlan(const ForecastDataset* dataset, ForwardPlan plan,
              int64_t max_batch);

  /// Forecasts `samples` (repeats allowed): output(j) is
  /// [samples.size(), N, N', K], row i sample i's, bit-identical to the
  /// model's Predict. Takes the factors it holds, runs stage F on the
  /// missing distinct intervals, then stage G on every sample's window.
  /// Counts each distinct interval as a serve.factor_cache_hits or a
  /// serve.factor_cache_misses.
  void Run(std::span<const int64_t> samples);

  /// Drops every factor outside sample `sample`'s window, leaving at most
  /// `history` intervals' factors.
  void KeepWindow(int64_t sample);

  const Tensor& output(int64_t j) const { return plan_.output(j); }
  int64_t horizon() const { return plan_.horizon(); }

 private:
  const ForecastDataset* dataset_;
  ForwardPlan plan_;
  int64_t max_batch_;
  size_t widest_ = 0;  // most samples in one Run, capped at max_batch_
  /// Per interval held: one row of its R factors, then one of its C.
  std::map<int64_t, std::array<std::vector<float>, 2>> factors_;
  std::vector<int64_t> intervals_;  // Run scratch: the batch's distinct
  std::vector<int64_t> missing_;    // intervals, and those lacking factors
  std::vector<Tensor> window_;      // stage-G inputs
};

/// One forecast: `horizon` tensors, each [N, N', K], for a single sample.
/// Shared so concurrent queries for the same sample (and every cache hit)
/// alias one immutable snapshot instead of copying it.
using ForecastResult = std::shared_ptr<const std::vector<Tensor>>;

/// Micro-batching forecast server over one compiled ForwardPlan.
///
/// Queries enqueue a sample index and block on a future; a single worker
/// thread cuts whatever is queued when it wakes (up to `max_batch` distinct
/// samples) into one batched plan execution, then slices the per-sample
/// forecasts back out. Queries that arrive while a batch runs coalesce into
/// the next one; duplicate sample indices in one batch share a batch row and
/// a result snapshot.
///
/// The interval cache additionally pins the forecast of the designated
/// "current" interval. The worker publishes it: the first batch to compute
/// the current interval's sample after a rollover fills the cache, whoever
/// asked for it. From then on `ForecastCurrent` is a lock + shared_ptr copy
/// until `SetCurrentInterval` rolls the interval over.
/// Between batches the worker keeps the factors of the current sample's
/// window (ServingPlan), so a rollover to the next sample factorizes one new
/// interval and reuses `history - 1`.
/// `ForecastCurrentAsync` starts the same forecast without blocking, so a
/// caller can start several services' current forecasts before waiting on
/// any (ShardedService::MergedForecast).
///
/// Instrumentation (util/metrics.h, enabled via ODF_METRICS):
///   counters   serve.requests, serve.batches, serve.cache_hits,
///              serve.cache_misses (mean batch size is requests / batches),
///              serve.factor_cache_hits, serve.factor_cache_misses (per
///              distinct interval a batch reads)
///   gauge      serve.queue_depth (after each batch is cut)
///   histograms serve.request_seconds, serve.cached_request_seconds,
///              serve.batch_forward_seconds, plus the plan's serve.plan.*
///              family.
///
/// The dataset must outlive the service. All public methods are
/// thread-safe.
class ForecastService {
 public:
  ForecastService(const ForecastDataset* dataset, ForwardPlan plan,
                  ServeConfig config = ServeConfig{});
  ~ForecastService();

  ForecastService(const ForecastService&) = delete;
  ForecastService& operator=(const ForecastService&) = delete;

  /// Blocking forecast of dataset sample `sample`.
  ForecastResult Forecast(int64_t sample);

  /// Enqueues a forecast of sample `sample` without blocking.
  std::future<ForecastResult> ForecastAsync(int64_t sample);

  /// Forecast of the current interval's sample, served from the cache when
  /// it is warm. The first call after a rollover falls through to Forecast.
  ForecastResult ForecastCurrent();

  /// ForecastCurrent without blocking: a ready future on a warm cache,
  /// otherwise ForecastAsync of the current interval's sample.
  std::future<ForecastResult> ForecastCurrentAsync();

  /// Rolls the current interval over to `sample`, invalidating the cache
  /// when it actually changes.
  void SetCurrentInterval(int64_t sample);

  int64_t current_interval() const;
  const ServeConfig& config() const { return config_; }
  int64_t horizon() const { return plan_.horizon(); }

 private:
  void WorkerLoop();
  void RunBatch(const std::vector<int64_t>& samples);
  /// The cached forecast on a hit; on a miss null, with the current
  /// interval's sample in `*sample`. Counts the hit or miss.
  ForecastResult LookupCurrent(int64_t* sample);

  const ForecastDataset* dataset_;
  ServeConfig config_;
  ServingPlan plan_;  // the worker's alone

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::deque<int64_t> order_;  // distinct queued samples, arrival order
  std::unordered_map<int64_t, std::vector<std::promise<ForecastResult>>>
      pending_;

  mutable std::mutex cache_mu_;
  int64_t current_ = 0;
  ForecastResult cached_;  // forecast of current_; reset on rollover,
                           // published by RunBatch

  std::thread worker_;
};

}  // namespace odf::serve

#endif  // ODF_SERVE_SERVICE_H_
