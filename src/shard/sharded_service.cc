#include "shard/sharded_service.h"

#include <future>

#include "serve/forward_plan.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace odf::shard {

ShardedService::ShardedService(ShardedModel* model, serve::ServeConfig config)
    : model_(model) {
  ODF_CHECK(model != nullptr);
  const int64_t history = model->config().history;
  units_.reserve(static_cast<size_t>(model->num_units()));
  for (int64_t i = 0; i < model->num_units(); ++i) {
    units_.push_back(std::make_unique<serve::ForecastService>(
        &model->unit_dataset(i),
        serve::PlanCompiler::Compile(model->unit_model(i), history), config));
  }
}

void ShardedService::SetCurrentInterval(int64_t sample) {
  for (auto& service : units_) service->SetCurrentInterval(sample);
}

std::vector<float> ShardedService::ForecastOd(int64_t origin,
                                              int64_t destination,
                                              int64_t step) {
  static Counter& intra =
      MetricsRegistry::Global().GetCounter("shard.intra_queries");
  static Counter& cross =
      MetricsRegistry::Global().GetCounter("shard.cross_queries");
  static Histogram& route_ns =
      MetricsRegistry::Global().GetHistogram("shard.route_ns");
  ScopedTimer timer(route_ns);

  const ShardPartition& part = model_->partition();
  ODF_CHECK_GE(origin, 0);
  ODF_CHECK_LT(origin, part.num_regions);
  ODF_CHECK_GE(destination, 0);
  ODF_CHECK_LT(destination, part.num_regions);
  ODF_CHECK_GE(step, 0);
  ODF_CHECK_LT(step, model_->config().horizon);
  const UnitCell cell = part.Locate(origin, destination);
  if (MetricsEnabled()) {
    (cell.unit < part.num_shards() ? intra : cross).Add();
  }

  const serve::ForecastResult result =
      units_[static_cast<size_t>(cell.unit)]->ForecastCurrent();
  const Tensor& tensor = (*result)[static_cast<size_t>(step)];
  const int64_t k = tensor.dim(2);
  const float* src =
      tensor.data() + (cell.row * tensor.dim(1) + cell.col) * k;
  return std::vector<float>(src, src + k);
}

Tensor ShardedService::MergedForecast(int64_t step) {
  static Histogram& merge_ns =
      MetricsRegistry::Global().GetHistogram("shard.merge_ns");
  ScopedTimer timer(merge_ns);
  TraceScope span("shard/", "merge", "shard");
  ODF_CHECK_GE(step, 0);
  ODF_CHECK_LT(step, model_->config().horizon);

  // Start every unit's forecast before waiting on any: cold units run their
  // plans at once, each on its own service's worker.
  std::vector<std::future<serve::ForecastResult>> pending;
  pending.reserve(units_.size());
  for (auto& service : units_) {
    pending.push_back(service->ForecastCurrentAsync());
  }
  std::vector<serve::ForecastResult> results;  // keep the tensors alive
  std::vector<const Tensor*> unit_steps;
  results.reserve(units_.size());
  unit_steps.reserve(units_.size());
  for (std::future<serve::ForecastResult>& future : pending) {
    results.push_back(future.get());
    unit_steps.push_back(&(*results.back())[static_cast<size_t>(step)]);
  }
  return model_->partition().MergeUnits(unit_steps);
}

}  // namespace odf::shard
