#ifndef ODF_SIM_TRIP_GENERATOR_H_
#define ODF_SIM_TRIP_GENERATOR_H_

#include <vector>

#include "graph/region_graph.h"
#include "od/od_tensor.h"
#include "od/trip.h"
#include "tensor/tensor.h"

namespace odf {

/// Configuration of the synthetic taxi-trip simulator that substitutes the
/// paper's NYC/Chengdu data sets (see DESIGN.md §2). Every statistical
/// property the paper's evaluation depends on has an explicit knob:
///
///  * sparsity          — mean_trips_per_interval + Zipf/gravity demand skew
///  * spatial correlation — a log-speed congestion field with Gaussian
///                          covariance over region centroids
///  * temporal dynamics  — AR(1) field evolution + rush-hour speed profile
///  * stochastic speeds  — per-trip lognormal noise
///  * time-of-day effects — demand and speed profiles; optional night gap
///                          (Chengdu has no data 00:00–06:00, Fig. 8–10)
///  * distance effects   — gravity demand decay, arterial speed-up for
///                          longer trips
struct SimConfig {
  int interval_minutes = 30;
  int num_days = 10;
  /// Mean trips in an average interval (before profile modulation).
  double mean_trips_per_interval = 400.0;
  /// Zipf exponent of region popularity (demand skew -> sparsity).
  double zipf_exponent = 0.8;
  /// Demand gravity decay length in km.
  double gravity_scale_km = 1.5;
  /// Relative demand for intra-region (o == d) trips.
  double intra_demand_factor = 0.5;

  /// Free-flow speed in m/s (~32 km/h).
  double base_speed_ms = 9.0;
  /// Fractional slowdown at rush-hour peaks (8:30, 17:30).
  double rush_hour_dip = 0.45;
  /// Fractional slowdown around midday.
  double midday_dip = 0.15;
  /// Fractional speed-up deep at night.
  double night_boost = 0.25;
  /// Weekend demand multiplier / speed boost.
  double weekend_demand_factor = 0.7;
  double weekend_speed_boost = 0.08;

  /// Congestion-field spatial correlation length (km) and magnitude
  /// (stddev of the per-region log-speed multiplier).
  double spatial_sigma_km = 1.5;
  double field_stddev = 0.18;
  /// AR(1) coefficient of the field across intervals.
  double temporal_corr = 0.85;

  /// Per-trip lognormal speed noise (driving styles, signals).
  double trip_noise_sigma = 0.22;
  /// Longer trips use faster roads: multiplier 1 + v·log1p(dist_km).
  double distance_speedup = 0.08;
  /// Route length for intra-region trips (km).
  double intra_region_km = 0.6;
  /// Lognormal route-detour factor sigma.
  double route_jitter = 0.15;

  /// Optional no-data window [start, end) in hours (Chengdu: [0, 6)).
  int night_gap_start_hour = -1;
  int night_gap_end_hour = -1;

  uint64_t seed = 42;
};

/// Generates synthetic trips over a region graph under SimConfig.
class TripGenerator {
 public:
  TripGenerator(const RegionGraph& graph, const SimConfig& config);

  /// Generates all trips of the configured period, ordered by departure.
  std::vector<Trip> Generate();

  /// Relative travel-speed multiplier at `hour` of day (deterministic part
  /// of the daily profile; exposed for tests/calibration).
  double SpeedProfile(double hour) const;

  /// Relative demand multiplier at `hour` of day.
  double DemandProfile(double hour) const;

  /// True when `hour` falls in the configured no-data window.
  bool InNightGap(double hour) const;

  const TimePartition& time_partition() const { return time_partition_; }

 private:
  /// One AR(1) step of the spatially correlated congestion field.
  void AdvanceField(Rng& rng);

  const RegionGraph& graph_;
  SimConfig config_;
  TimePartition time_partition_;
  /// Cholesky factor of the spatial covariance (n×n).
  Tensor field_chol_;
  /// Current congestion field (n).
  std::vector<double> field_;
  /// Demand weight per OD pair (n*n).
  std::vector<double> demand_weights_;
};

/// A named dataset: region graph + simulator config, mirroring the paper's
/// two cities at configurable scale.
struct DatasetSpec {
  std::string name;
  RegionGraph graph;
  SimConfig config;

  /// The interval grid of the simulated period.
  TimePartition time_partition() const {
    return {config.interval_minutes, config.num_days};
  }
};

/// Manhattan-like city: homogeneous grid regions, data around the clock.
DatasetSpec MakeNycLike(int grid_rows, int grid_cols, int num_days,
                        int interval_minutes, uint64_t seed = 1001);

/// Chengdu-like city: irregular heterogeneous regions, stronger dynamics,
/// no data between 00:00 and 06:00.
DatasetSpec MakeChengduLike(int num_regions, int num_days,
                            int interval_minutes, uint64_t seed = 2002);

/// Simulates `spec`'s trips and bins them into OD tensors with the paper's
/// speed histogram: the clean series the paper benches and the robustness
/// sweeps train and score on.
OdTensorSeries SimulateOdSeries(const DatasetSpec& spec);

}  // namespace odf

#endif  // ODF_SIM_TRIP_GENERATOR_H_
