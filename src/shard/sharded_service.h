#ifndef ODF_SHARD_SHARDED_SERVICE_H_
#define ODF_SHARD_SHARDED_SERVICE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/service.h"
#include "shard/sharded_model.h"

namespace odf::shard {

/// Sharded serving front-end (docs/sharding.md "Serving"): one compiled
/// ForwardPlan + micro-batching ForecastService per unit (every shard,
/// then the boundary model), each with its own worker thread and
/// current-interval cache. Queries route by ShardPartition::Locate — an OD
/// pair inside one shard hits that shard's service, a cross-shard pair hits
/// the boundary service — and full-city snapshots are every service's
/// cached forecast merged by ShardPartition::MergeUnits. A snapshot starts
/// every unit's current forecast before it waits on any, so after a
/// rollover the cold unit plans run at once, each on its own service's
/// worker; no thread is added.
///
/// Plans are compiled at construction from the models' current weights
/// (serve/forward_plan.h): construct after ShardedModel::Train. The model
/// must outlive the service.
///
/// Instrumentation (ODF_METRICS): counters shard.intra_queries /
/// shard.cross_queries, histograms shard.route_ns (per ForecastOd) and
/// shard.merge_ns (per MergedForecast).
class ShardedService {
 public:
  explicit ShardedService(ShardedModel* model,
                          serve::ServeConfig config = serve::ServeConfig{});

  /// Rolls every per-shard service (and the boundary service) over to
  /// window `sample`, invalidating their interval caches together.
  void SetCurrentInterval(int64_t sample);

  /// K-bucket histogram forecast for one OD pair at horizon step `step`,
  /// served from the owning service's current-interval cache. `origin` and
  /// `destination` must be regions and `step` must lie in [0, horizon).
  std::vector<float> ForecastOd(int64_t origin, int64_t destination,
                                int64_t step);

  /// Full-city [N, N, K] forecast at horizon step `step`, merged from all
  /// services' current-interval forecasts, which it starts together.
  /// Byte-identical to ShardedModel::Predict of the same sample (plans
  /// reproduce Predict bit-for-bit). `step` must lie in [0, horizon).
  Tensor MergedForecast(int64_t step);

  int64_t num_shards() const { return model_->num_shards(); }
  serve::ForecastService& shard_service(int64_t p) { return *units_[p]; }
  serve::ForecastService* boundary_service() {
    return model_->has_boundary() ? units_.back().get() : nullptr;
  }

 private:
  ShardedModel* model_;
  /// One service per unit, in ShardPartition's unit order.
  std::vector<std::unique_ptr<serve::ForecastService>> units_;
};

}  // namespace odf::shard

#endif  // ODF_SHARD_SHARDED_SERVICE_H_
