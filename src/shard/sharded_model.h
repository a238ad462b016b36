#ifndef ODF_SHARD_SHARDED_MODEL_H_
#define ODF_SHARD_SHARDED_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/advanced_framework.h"
#include "core/forecaster.h"
#include "core/trainer.h"
#include "od/stream_source.h"
#include "shard/partition.h"

namespace odf::shard {

/// Deterministic per-shard RNG stream: splitmix64-style mix of
/// (seed, shard), so every shard draws from a statistically independent
/// stream while the whole ensemble is pinned by one master seed. Shard -1
/// is reserved for the boundary model.
uint64_t ShardSeed(uint64_t seed, int64_t shard);

/// Configuration of a sharded ensemble (docs/sharding.md).
struct ShardedModelConfig {
  /// Target shard count; clamped to [1, num_regions].
  int64_t num_shards = 4;
  /// Histogram buckets every per-shard tensor uses.
  SpeedHistogramSpec spec = SpeedHistogramSpec::Paper();
  int64_t history = 6;
  int64_t horizon = 1;
  /// Chronological split used by Train (identical across shards: every
  /// shard sees the same intervals, only different regions).
  double train_fraction = 0.7;
  double validation_fraction = 0.1;
  /// Proximity kernel used for the partitioning cut itself.
  ProximityParams partition_proximity{1.0, 2.0};
  /// Hyper-parameters of each shard's AF. `seed` is the ensemble master
  /// seed: shard p initializes from ShardSeed(seed, p).
  AdvancedFrameworkConfig shard_model;
  /// Hyper-parameters of the coarse cross-shard boundary model. Defaults
  /// to a single-level AF with a wider proximity kernel (shard centroids
  /// are further apart than regions).
  AdvancedFrameworkConfig boundary_model;
  /// LRU capacity, in intervals, of each unit's streaming tensor cache
  /// (values below 1 clamp to 1).
  int64_t stream_cache = 16;

  ShardedModelConfig();
};

/// Partitioned forecasting ensemble: one AF per shard over that shard's
/// sub-graph and intra-shard trips, plus (for num_shards > 1) one coarse
/// AF over the shard super-graph fed by cross-shard trips only — every OD
/// pair in the city is owned by exactly one model. All per-unit tensors are
/// built on demand from one shared TripSource through streaming
/// TripOdSources, so peak memory is bounded by the per-unit caches, not by
/// N² × intervals.
///
/// Determinism: unit p's weights depend only on (partition, unit trips,
/// ShardSeed(seed, p)) — training units in parallel on the global pool
/// cannot reorder any unit's arithmetic (nested kernel parallelism runs
/// inline on the worker), so results are byte-identical across ODF_THREADS
/// values (shard_test pins this).
class ShardedModel {
 public:
  /// `trips` must outlive the model, cover region ids [0, city.size()) and
  /// be thread-safe (TripLogReader and VectorTripSource both are).
  ShardedModel(const RegionGraph& city, const TripSource* trips,
               const ShardedModelConfig& config);

  const ShardPartition& partition() const { return partition_; }
  int64_t num_shards() const { return partition_.num_shards(); }
  bool has_boundary() const { return num_units() > num_shards(); }
  /// Trainable units (ShardPartition::num_units): the shards, then the
  /// boundary when has_boundary().
  int64_t num_units() const { return static_cast<int64_t>(units_.size()); }
  const ShardedModelConfig& config() const { return config_; }

  /// Unit `i`'s model and dataset, in ShardPartition's unit order.
  AdvancedFramework& unit_model(int64_t i) { return *units_[i]->model; }
  const ForecastDataset& unit_dataset(int64_t i) const {
    return *units_[i]->dataset;
  }

  AdvancedFramework& shard_model(int64_t p) { return unit_model(p); }
  const ForecastDataset& shard_dataset(int64_t p) const {
    return unit_dataset(p);
  }
  /// Null when num_shards() == 1 (no cross-shard pairs exist).
  AdvancedFramework* boundary_model() {
    return has_boundary() ? &unit_model(num_shards()) : nullptr;
  }
  const ForecastDataset* boundary_dataset() const {
    return has_boundary() ? &unit_dataset(num_shards()) : nullptr;
  }

  /// Windows per unit (identical across units by construction).
  int64_t NumSamples() const;
  /// The split Train uses (identical across units).
  ForecastDataset::Split TrainSplit() const;

  /// Trains every unit, distributed over the global thread pool (one task
  /// per unit; within-unit kernels serialize on the worker). `config.seed`
  /// is the master seed; unit i trains with ShardSeed(seed, i) and, when
  /// checkpointing, its own `<checkpoint_dir>/shard_<i>` (the boundary
  /// unit uses `/boundary`). Returns one TrainResult per unit, shards
  /// first.
  std::vector<TrainResult> Train(const TrainConfig& config);

  /// Full-city forecast of window `sample`: horizon tensors [N, N, K], each
  /// every unit's Predict merged by ShardPartition::MergeUnits (intra-shard
  /// cells from the owning shard's model, cross-shard cells from the
  /// boundary model's (shard_o, shard_d) histogram). Runs the units
  /// sequentially — the serving path (shard/sharded_service.h) is the
  /// concurrent front-end.
  std::vector<Tensor> Predict(int64_t sample);

 private:
  struct Unit {
    RegionGraph graph;
    std::unique_ptr<TripOdSource> source;
    std::unique_ptr<ForecastDataset> dataset;
    std::unique_ptr<AdvancedFramework> model;
  };

  /// ShardSeed's shard index for unit `i`: its shard, or -1 for the
  /// boundary.
  int64_t SeedIndex(int64_t i) const { return i < num_shards() ? i : -1; }

  ShardedModelConfig config_;
  ShardPartition partition_;
  std::vector<std::unique_ptr<Unit>> units_;  // ShardPartition's unit order
};

}  // namespace odf::shard

#endif  // ODF_SHARD_SHARDED_MODEL_H_
