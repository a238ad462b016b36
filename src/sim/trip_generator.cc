#include "sim/trip_generator.h"

#include <algorithm>
#include <cmath>

#include "tensor/linalg.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace odf {

namespace {

/// Smooth bump centred at `center` with width `width` (hours), wrapping
/// around midnight.
double DailyBump(double hour, double center, double width) {
  double delta = std::fabs(hour - center);
  delta = std::min(delta, 24.0 - delta);
  return std::exp(-(delta * delta) / (2.0 * width * width));
}

}  // namespace

TripGenerator::TripGenerator(const RegionGraph& graph,
                             const SimConfig& config)
    : graph_(graph),
      config_(config),
      time_partition_(config.interval_minutes, config.num_days) {
  ODF_CHECK_GT(config_.mean_trips_per_interval, 0.0);
  ODF_CHECK_GT(config_.base_speed_ms, 0.0);
  ODF_CHECK_GE(config_.temporal_corr, 0.0);
  ODF_CHECK_LT(config_.temporal_corr, 1.0);

  const int64_t n = graph_.size();
  // Spatial covariance K_ij = exp(-d² / (2σ²)) + jitter·I, Cholesky-factored
  // so that L·ε has the desired spatial correlation.
  Tensor cov(Shape({n, n}));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const double d = graph_.DistanceKm(i, j);
      cov.At2(i, j) = static_cast<float>(std::exp(
          -d * d / (2.0 * config_.spatial_sigma_km * config_.spatial_sigma_km)));
    }
    cov.At2(i, i) += 1e-3f;
  }
  field_chol_ = CholeskyFactor(cov);
  field_.assign(static_cast<size_t>(n), 0.0);

  // Demand: Zipf-skewed region popularity × gravity decay with distance.
  Rng rng(config_.seed ^ 0xABCDEF12345ull);
  std::vector<double> popularity = Rng::ZipfWeights(
      static_cast<size_t>(n), config_.zipf_exponent);
  // Shuffle popularity ranks over regions so hotspots are spatially spread.
  for (size_t i = popularity.size(); i > 1; --i) {
    std::swap(popularity[i - 1],
              popularity[static_cast<size_t>(rng.UniformInt(i))]);
  }
  demand_weights_.assign(static_cast<size_t>(n * n), 0.0);
  for (int64_t o = 0; o < n; ++o) {
    for (int64_t d = 0; d < n; ++d) {
      const double gravity =
          std::exp(-graph_.DistanceKm(o, d) / config_.gravity_scale_km);
      double w = popularity[static_cast<size_t>(o)] *
                 popularity[static_cast<size_t>(d)] * gravity;
      if (o == d) w *= config_.intra_demand_factor;
      demand_weights_[static_cast<size_t>(o * n + d)] = w;
    }
  }
}

double TripGenerator::SpeedProfile(double hour) const {
  double profile = 1.0;
  profile -= config_.rush_hour_dip * DailyBump(hour, 8.5, 1.5);
  profile -= config_.rush_hour_dip * DailyBump(hour, 17.5, 1.8);
  profile -= config_.midday_dip * DailyBump(hour, 13.0, 2.5);
  profile += config_.night_boost * DailyBump(hour, 3.0, 2.5);
  return std::max(profile, 0.2);
}

double TripGenerator::DemandProfile(double hour) const {
  // Morning/evening commute peaks plus a broad daytime plateau; almost no
  // demand deep at night (mirrors the paper's Fig. 8 data-share bars).
  double profile = 0.05;
  profile += 0.9 * DailyBump(hour, 8.5, 1.6);
  profile += 1.0 * DailyBump(hour, 18.0, 2.2);
  profile += 0.55 * DailyBump(hour, 13.0, 3.0);
  profile += 0.25 * DailyBump(hour, 22.0, 1.5);
  return profile;
}

bool TripGenerator::InNightGap(double hour) const {
  if (config_.night_gap_start_hour < 0) return false;
  return hour >= config_.night_gap_start_hour &&
         hour < config_.night_gap_end_hour;
}

void TripGenerator::AdvanceField(Rng& rng) {
  const int64_t n = graph_.size();
  Tensor eps(Shape({n, 1}));
  for (int64_t i = 0; i < n; ++i) {
    eps.At2(i, 0) = static_cast<float>(rng.Gaussian());
  }
  Tensor correlated = MatMul(field_chol_, eps);
  const double rho = config_.temporal_corr;
  const double innovation_scale = std::sqrt(1.0 - rho * rho);
  for (int64_t i = 0; i < n; ++i) {
    field_[static_cast<size_t>(i)] =
        rho * field_[static_cast<size_t>(i)] +
        innovation_scale * correlated.At2(i, 0);
  }
}

std::vector<Trip> TripGenerator::Generate() {
  Rng rng(config_.seed);
  const int64_t n = graph_.size();
  const int64_t num_intervals = time_partition_.NumIntervals();
  const int64_t interval_s = config_.interval_minutes * 60;

  std::vector<Trip> trips;
  trips.reserve(static_cast<size_t>(
      config_.mean_trips_per_interval * static_cast<double>(num_intervals)));

  // Reset field state so Generate() is deterministic per generator.
  std::fill(field_.begin(), field_.end(), 0.0);
  // Burn in the AR(1) field to its stationary distribution.
  for (int i = 0; i < 20; ++i) AdvanceField(rng);

  for (int64_t t = 0; t < num_intervals; ++t) {
    AdvanceField(rng);
    const double hour = time_partition_.HourOfDay(t);
    if (InNightGap(hour)) continue;
    const bool weekend = time_partition_.IsWeekend(t);

    double lambda = config_.mean_trips_per_interval * DemandProfile(hour);
    if (weekend) lambda *= config_.weekend_demand_factor;
    const int num_trips = rng.Poisson(lambda);

    const double speed_profile =
        SpeedProfile(hour) * (weekend ? 1.0 + config_.weekend_speed_boost : 1.0);

    for (int trip_idx = 0; trip_idx < num_trips; ++trip_idx) {
      const size_t pair = rng.Categorical(demand_weights_);
      const int64_t o = static_cast<int64_t>(pair) / n;
      const int64_t d = static_cast<int64_t>(pair) % n;

      const double straight_km = graph_.DistanceKm(o, d);
      const double route_km =
          std::max(straight_km, config_.intra_region_km) *
          rng.LogNormal(0.0, config_.route_jitter);

      // Deterministic speed structure × stochastic per-trip noise.
      const double field_mult = std::exp(
          config_.field_stddev * 0.5 *
          (field_[static_cast<size_t>(o)] + field_[static_cast<size_t>(d)]));
      const double arterial =
          1.0 + config_.distance_speedup * std::log1p(route_km);
      double speed_ms = config_.base_speed_ms * speed_profile * field_mult *
                        arterial *
                        rng.LogNormal(0.0, config_.trip_noise_sigma);
      speed_ms = std::clamp(speed_ms, 0.5, 30.0);

      Trip trip;
      trip.origin = static_cast<int32_t>(o);
      trip.destination = static_cast<int32_t>(d);
      trip.departure_s =
          t * interval_s + static_cast<int64_t>(rng.UniformInt(
                               static_cast<uint64_t>(interval_s)));
      trip.distance_m = route_km * 1000.0;
      trip.duration_s = trip.distance_m / speed_ms;
      trips.push_back(trip);
    }
  }
  std::sort(trips.begin(), trips.end(),
            [](const Trip& a, const Trip& b) {
              return a.departure_s < b.departure_s;
            });
  return trips;
}

DatasetSpec MakeNycLike(int grid_rows, int grid_cols, int num_days,
                        int interval_minutes, uint64_t seed) {
  SimConfig config;
  config.interval_minutes = interval_minutes;
  config.num_days = num_days;
  config.seed = seed;
  // Homogeneous Manhattan-like grid: moderate noise, dense demand relative
  // to the number of OD pairs.
  const int num_regions = grid_rows * grid_cols;
  config.mean_trips_per_interval = 14.0 * num_regions * num_regions / 16.0;
  config.field_stddev = 0.15;
  config.trip_noise_sigma = 0.20;
  return DatasetSpec{
      "NYC-like",
      RegionGraph::Grid(grid_rows, grid_cols, /*cell_km=*/0.8),
      config,
  };
}

DatasetSpec MakeChengduLike(int num_regions, int num_days,
                            int interval_minutes, uint64_t seed) {
  SimConfig config;
  config.interval_minutes = interval_minutes;
  config.num_days = num_days;
  config.seed = seed;
  // Larger, heterogeneous city: more complex traffic (paper observation 4:
  // CD is harder to forecast than NYC), no data 00:00–06:00.
  config.mean_trips_per_interval = 10.0 * num_regions * num_regions / 16.0;
  config.field_stddev = 0.26;
  config.trip_noise_sigma = 0.30;
  config.spatial_sigma_km = 1.2;
  config.temporal_corr = 0.75;
  config.night_gap_start_hour = 0;
  config.night_gap_end_hour = 6;
  return DatasetSpec{
      "CD-like",
      RegionGraph::IrregularCity(num_regions, /*width_km=*/7.0,
                                 /*height_km=*/6.0, seed ^ 0x5EED),
      config,
  };
}

OdTensorSeries SimulateOdSeries(const DatasetSpec& spec) {
  TripGenerator generator(spec.graph, spec.config);
  return BuildOdTensorSeries(generator.Generate(), generator.time_partition(),
                             spec.graph.size(), spec.graph.size(),
                             SpeedHistogramSpec::Paper());
}

}  // namespace odf
