#include "serve/service.h"

#include <algorithm>
#include <utility>

#include "util/metrics.h"

namespace odf::serve {

namespace {

struct ServeMetrics {
  Counter& requests =
      MetricsRegistry::Global().GetCounter("serve.requests");
  Counter& batches = MetricsRegistry::Global().GetCounter("serve.batches");
  Counter& cache_hits =
      MetricsRegistry::Global().GetCounter("serve.cache_hits");
  Counter& cache_misses =
      MetricsRegistry::Global().GetCounter("serve.cache_misses");
  Gauge& queue_depth =
      MetricsRegistry::Global().GetGauge("serve.queue_depth");
  Histogram& request_seconds =
      MetricsRegistry::Global().GetHistogram("serve.request_seconds");
  Histogram& cached_request_seconds =
      MetricsRegistry::Global().GetHistogram("serve.cached_request_seconds");
  Histogram& batch_forward_seconds =
      MetricsRegistry::Global().GetHistogram("serve.batch_forward_seconds");
};

ServeMetrics& Metrics() {
  static ServeMetrics m;
  return m;
}

}  // namespace

ServingPlan::ServingPlan(const ForecastDataset* dataset, ForwardPlan plan,
                         int64_t max_batch)
    : dataset_(dataset), plan_(std::move(plan)), max_batch_(max_batch) {
  ODF_CHECK(dataset_ != nullptr);
  ODF_CHECK_EQ(plan_.history(), dataset_->history());
  ODF_CHECK_GE(max_batch_, 1);
  window_.resize(static_cast<size_t>(2 * plan_.history()));
}

void ServingPlan::Run(std::span<const int64_t> samples) {
  static Counter& hits =
      MetricsRegistry::Global().GetCounter("serve.factor_cache_hits");
  static Counter& misses =
      MetricsRegistry::Global().GetCounter("serve.factor_cache_misses");
  const int64_t history = plan_.history();
  // Sample i's window is intervals first(i) .. first(i) + history - 1.
  auto first = [&](int64_t sample) {
    return dataset_->AnchorInterval(sample) - history + 1;
  };

  intervals_.clear();
  for (const int64_t sample : samples) {
    for (int64_t t = 0; t < history; ++t) {
      intervals_.push_back(first(sample) + t);
    }
  }
  std::sort(intervals_.begin(), intervals_.end());
  intervals_.erase(std::unique(intervals_.begin(), intervals_.end()),
                   intervals_.end());
  missing_.clear();
  for (const int64_t t : intervals_) {
    if (!factors_.contains(t)) missing_.push_back(t);
  }
  hits.Add(intervals_.size() - missing_.size());
  misses.Add(missing_.size());

  // Stage F on the missing intervals, as many at a time as the widest batch
  // of windows run so far (at most max_batch_): stage F's arena never
  // outgrows the one a whole-forward plan would have needed.
  widest_ = std::max(widest_, std::min(samples.size(),
                                       static_cast<size_t>(max_batch_)));
  const size_t chunk_size = widest_;
  for (size_t start = 0; start < missing_.size(); start += chunk_size) {
    const std::span<const int64_t> chunk = std::span(missing_).subspan(
        start, std::min(chunk_size, missing_.size() - start));
    plan_.Factorize(dataset_->StackIntervals(chunk));
    for (int side = 0; side < 2; ++side) {
      const Tensor& rows = plan_.factors(side);
      const int64_t row = rows.numel() / static_cast<int64_t>(chunk.size());
      for (size_t i = 0; i < chunk.size(); ++i) {
        const float* src = rows.data() + static_cast<int64_t>(i) * row;
        factors_[chunk[i]][static_cast<size_t>(side)].assign(src, src + row);
      }
    }
  }

  // Stage G on every sample's window of factors.
  const int64_t batch = static_cast<int64_t>(samples.size());
  for (int side = 0; side < 2; ++side) {
    for (int64_t t = 0; t < history; ++t) {
      Tensor& in = window_[static_cast<size_t>(side * history + t)];
      in.Resize(Shape(plan_.factor_shape(side).Dims(batch)));
      const int64_t row = in.numel() / batch;
      for (int64_t i = 0; i < batch; ++i) {
        const std::vector<float>& src =
            factors_.at(first(samples[static_cast<size_t>(i)]) + t)
                [static_cast<size_t>(side)];
        std::copy(src.begin(), src.end(), in.data() + i * row);
      }
    }
  }
  plan_.Forecast(window_);
}

void ServingPlan::KeepWindow(int64_t sample) {
  const int64_t last = dataset_->AnchorInterval(sample);
  factors_.erase(factors_.begin(),
                 factors_.lower_bound(last - plan_.history() + 1));
  factors_.erase(factors_.upper_bound(last), factors_.end());
}

ForecastService::ForecastService(const ForecastDataset* dataset,
                                 ForwardPlan plan, ServeConfig config)
    : dataset_(dataset),
      config_(config),
      plan_(dataset, std::move(plan), config.max_batch) {
  worker_ = std::thread(&ForecastService::WorkerLoop, this);
}

ForecastService::~ForecastService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

std::future<ForecastResult> ForecastService::ForecastAsync(int64_t sample) {
  ODF_CHECK_GE(sample, 0);
  ODF_CHECK_LT(sample, dataset_->NumSamples());
  Metrics().requests.Add(1);
  std::promise<ForecastResult> promise;
  std::future<ForecastResult> future = promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::promise<ForecastResult>>& waiters = pending_[sample];
    if (waiters.empty()) order_.push_back(sample);
    waiters.push_back(std::move(promise));
  }
  cv_.notify_one();
  return future;
}

ForecastResult ForecastService::Forecast(int64_t sample) {
  ScopedTimer timer(Metrics().request_seconds);
  return ForecastAsync(sample).get();
}

ForecastResult ForecastService::LookupCurrent(int64_t* sample) {
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (cached_ != nullptr) {
    Metrics().cache_hits.Add(1);
    return cached_;
  }
  Metrics().cache_misses.Add(1);
  *sample = current_;
  return nullptr;
}

ForecastResult ForecastService::ForecastCurrent() {
  ScopedTimer timer(Metrics().cached_request_seconds);
  int64_t sample;
  if (ForecastResult hit = LookupCurrent(&sample)) return hit;
  return Forecast(sample);  // RunBatch publishes it
}

std::future<ForecastResult> ForecastService::ForecastCurrentAsync() {
  int64_t sample;
  if (ForecastResult hit = LookupCurrent(&sample)) {
    std::promise<ForecastResult> ready;
    ready.set_value(std::move(hit));
    return ready.get_future();
  }
  return ForecastAsync(sample);
}

void ForecastService::SetCurrentInterval(int64_t sample) {
  ODF_CHECK_GE(sample, 0);
  ODF_CHECK_LT(sample, dataset_->NumSamples());
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (sample == current_) return;
  current_ = sample;
  cached_.reset();
}

int64_t ForecastService::current_interval() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return current_;
}

void ForecastService::WorkerLoop() {
  std::vector<int64_t> samples;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !order_.empty(); });
      if (order_.empty()) return;  // stop_ and drained
      samples.clear();
      while (!order_.empty() &&
             static_cast<int64_t>(samples.size()) < config_.max_batch) {
        samples.push_back(order_.front());
        order_.pop_front();
      }
      Metrics().queue_depth.Set(static_cast<double>(order_.size()));
    }
    RunBatch(samples);
  }
}

void ForecastService::RunBatch(const std::vector<int64_t>& samples) {
  {
    ScopedTimer timer(Metrics().batch_forward_seconds);
    plan_.Run(samples);
  }
  Metrics().batches.Add(1);

  const int64_t horizon = plan_.horizon();
  std::vector<ForecastResult> results;
  results.reserve(samples.size());
  for (size_t row = 0; row < samples.size(); ++row) {
    auto forecast = std::make_shared<std::vector<Tensor>>();
    forecast->reserve(static_cast<size_t>(horizon));
    for (int64_t j = 0; j < horizon; ++j) {
      const Tensor& out = plan_.output(j);  // [B, N, N', K]
      std::vector<int64_t> dims(out.shape().dims().begin() + 1,
                                out.shape().dims().end());
      Tensor slice{Shape(dims)};
      const int64_t stride = slice.numel();
      std::copy(out.data() + static_cast<int64_t>(row) * stride,
                out.data() + static_cast<int64_t>(row + 1) * stride,
                slice.data());
      forecast->push_back(std::move(slice));
    }
    results.push_back(std::move(forecast));
  }

  // Publish before fulfilling, so a caller that got the current interval's
  // forecast finds the cache warm. A rollover while the batch ran moved
  // current_ off the stale sample, so a stale result is never published.
  int64_t current;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    current = current_;
    if (cached_ == nullptr) {
      const auto it = std::find(samples.begin(), samples.end(), current_);
      if (it != samples.end()) {
        cached_ = results[static_cast<size_t>(it - samples.begin())];
      }
    }
  }
  // The next rollover's window overlaps the current one in all but one
  // interval.
  plan_.KeepWindow(current);

  // Fulfill outside mu_ so waiters never contend with the queue.
  std::vector<std::vector<std::promise<ForecastResult>>> waiters;
  waiters.reserve(samples.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int64_t sample : samples) {
      auto it = pending_.find(sample);
      ODF_CHECK(it != pending_.end());
      waiters.push_back(std::move(it->second));
      pending_.erase(it);
    }
  }
  for (size_t i = 0; i < waiters.size(); ++i) {
    for (std::promise<ForecastResult>& promise : waiters[i]) {
      promise.set_value(results[i]);
    }
  }
}

}  // namespace odf::serve
