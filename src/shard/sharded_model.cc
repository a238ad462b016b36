#include "shard/sharded_model.h"

#include <utility>

#include "util/check.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace odf::shard {

uint64_t ShardSeed(uint64_t seed, int64_t shard) {
  // splitmix64 over seed ⊕ golden-ratio-spaced shard index: consecutive
  // shards land in unrelated stream positions.
  uint64_t z = seed + 0x9E3779B97F4A7C15ull *
                          (static_cast<uint64_t>(shard) + 2);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

ShardedModelConfig::ShardedModelConfig() {
  boundary_model.num_levels = 1;
  boundary_model.proximity = ProximityParams{4.0, 8.0};
}

ShardedModel::ShardedModel(const RegionGraph& city, const TripSource* trips,
                           const ShardedModelConfig& config)
    : config_(config) {
  ODF_CHECK(trips != nullptr);
  partition_ = PartitionRegions(
      city, city.ProximityMatrix(config.partition_proximity),
      config.num_shards);

  for (int64_t i = 0; i < partition_.num_units(); ++i) {
    const bool boundary = i == partition_.num_shards();
    // The unit's own trips, rewritten to its (row, col) cells: shard-local
    // region ids for a shard, shard ids for the boundary. The boundary's
    // diagonal never observes (intra pairs belong to the shards), which is
    // loss-safe: the masked loss only scores observed cells. The partition
    // is captured by reference: it outlives every unit.
    const ShardPartition& part = partition_;
    TripMapper mapper = [&part, i](const Trip& trip, int32_t* o,
                                   int32_t* d) {
      const UnitCell cell = part.Locate(trip.origin, trip.destination);
      if (cell.unit != i) return false;
      *o = static_cast<int32_t>(cell.row);
      *d = static_cast<int32_t>(cell.col);
      return true;
    };
    AdvancedFrameworkConfig af =
        boundary ? config_.boundary_model : config_.shard_model;
    af.seed = ShardSeed(af.seed, SeedIndex(i));

    auto unit = std::make_unique<Unit>(
        Unit{boundary ? BoundaryGraph(city, partition_)
                      : ShardGraph(city, partition_.members[i]),
             nullptr, nullptr, nullptr});
    const int64_t n = unit->graph.size();
    unit->source = std::make_unique<TripOdSource>(
        trips, config_.spec, n, n, std::move(mapper), config_.stream_cache);
    unit->dataset = std::make_unique<ForecastDataset>(
        unit->source.get(), config_.history, config_.horizon);
    unit->model = std::make_unique<AdvancedFramework>(
        unit->graph, unit->graph, config_.spec.num_buckets(),
        config_.horizon, af);
    units_.push_back(std::move(unit));
  }
}

int64_t ShardedModel::NumSamples() const {
  return units_.front()->dataset->NumSamples();
}

ForecastDataset::Split ShardedModel::TrainSplit() const {
  return units_.front()->dataset->ChronologicalSplit(
      config_.train_fraction, config_.validation_fraction);
}

std::vector<TrainResult> ShardedModel::Train(const TrainConfig& config) {
  const int64_t units = num_units();
  const ForecastDataset::Split split = TrainSplit();
  std::vector<TrainResult> results(static_cast<size_t>(units));

  static Counter& trained =
      MetricsRegistry::Global().GetCounter("shard.units_trained");
  // Each unit trains a whole model: worth a chunk of its own.
  ParallelFor(units, kMinChunkWork, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      TraceScope span("shard/", i < num_shards() ? "train_shard"
                                                 : "train_boundary",
                      "shard");
      Unit& u = *units_[i];
      TrainConfig unit_config = config;
      unit_config.seed = ShardSeed(config.seed, SeedIndex(i));
      if (!config.checkpoint_dir.empty()) {
        unit_config.checkpoint_dir =
            config.checkpoint_dir +
            (i < num_shards() ? "/shard_" + std::to_string(i) : "/boundary");
      }
      results[static_cast<size_t>(i)] =
          TrainForecaster(*u.model, *u.dataset, split, unit_config);
      if (MetricsEnabled()) trained.Add();
    }
  });
  return results;
}

std::vector<Tensor> ShardedModel::Predict(int64_t sample) {
  std::vector<std::vector<Tensor>> unit_preds;  // [1, n_u, n_u, K] per step
  unit_preds.reserve(units_.size());
  for (const auto& u : units_) {
    unit_preds.push_back(u->model->Predict(u->dataset->MakeBatch({sample})));
  }
  std::vector<Tensor> out;
  out.reserve(static_cast<size_t>(config_.horizon));
  std::vector<const Tensor*> step(units_.size());
  for (int64_t h = 0; h < config_.horizon; ++h) {
    for (size_t u = 0; u < units_.size(); ++u) {
      step[u] = &unit_preds[u][static_cast<size_t>(h)];
    }
    out.push_back(partition_.MergeUnits(step));
  }
  return out;
}

}  // namespace odf::shard
