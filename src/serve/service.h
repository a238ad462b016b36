#ifndef ODF_SERVE_SERVICE_H_
#define ODF_SERVE_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
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
/// `ForecastCurrentAsync` starts the same forecast without blocking, so a
/// caller can start several services' current forecasts before waiting on
/// any (ShardedService::MergedForecast).
///
/// Instrumentation (util/metrics.h, enabled via ODF_METRICS):
///   counters   serve.requests, serve.batches, serve.cache_hits,
///              serve.cache_misses (mean batch size is requests / batches)
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
  ForwardPlan plan_;
  ServeConfig config_;

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
