#include "sim/trip_generator.h"

#include <cmath>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "od/od_tensor.h"
#include "sim/scenario.h"
#include "util/thread_pool.h"

#include "pool_guard.h"

namespace odf {
namespace {

SimConfig SmallConfig() {
  SimConfig config;
  config.interval_minutes = 60;
  config.num_days = 2;
  config.mean_trips_per_interval = 60;
  config.seed = 99;
  return config;
}

TEST(TripGeneratorTest, Deterministic) {
  RegionGraph graph = RegionGraph::Grid(3, 3, 1.0);
  TripGenerator gen1(graph, SmallConfig());
  TripGenerator gen2(graph, SmallConfig());
  auto trips1 = gen1.Generate();
  auto trips2 = gen2.Generate();
  ASSERT_EQ(trips1.size(), trips2.size());
  for (size_t i = 0; i < trips1.size(); ++i) {
    EXPECT_EQ(trips1[i].origin, trips2[i].origin);
    EXPECT_EQ(trips1[i].departure_s, trips2[i].departure_s);
    EXPECT_DOUBLE_EQ(trips1[i].distance_m, trips2[i].distance_m);
  }
  EXPECT_GT(trips1.size(), 100u);
}

TEST(TripGeneratorTest, TripsAreValid) {
  RegionGraph graph = RegionGraph::Grid(3, 3, 1.0);
  TripGenerator gen(graph, SmallConfig());
  const auto trips = gen.Generate();
  const int64_t horizon_s = 2 * 24 * 3600;
  int64_t prev_departure = 0;
  for (const Trip& trip : trips) {
    EXPECT_GE(trip.origin, 0);
    EXPECT_LT(trip.origin, 9);
    EXPECT_GE(trip.destination, 0);
    EXPECT_LT(trip.destination, 9);
    EXPECT_GE(trip.departure_s, prev_departure);  // sorted
    EXPECT_LT(trip.departure_s, horizon_s);
    EXPECT_GT(trip.distance_m, 0.0);
    EXPECT_GT(trip.duration_s, 0.0);
    const double speed = trip.SpeedMs();
    EXPECT_GE(speed, 0.5);
    EXPECT_LE(speed, 30.0);
    prev_departure = trip.departure_s;
  }
}

TEST(TripGeneratorTest, SpeedProfileHasRushHourDips) {
  RegionGraph graph = RegionGraph::Grid(2, 2, 1.0);
  TripGenerator gen(graph, SmallConfig());
  // Rush hours slower than free flow at night.
  EXPECT_LT(gen.SpeedProfile(8.5), gen.SpeedProfile(3.0));
  EXPECT_LT(gen.SpeedProfile(17.5), gen.SpeedProfile(3.0));
  // Midday between the two.
  EXPECT_LT(gen.SpeedProfile(8.5), gen.SpeedProfile(11.0));
}

TEST(TripGeneratorTest, DemandProfilePeaksAtCommute) {
  RegionGraph graph = RegionGraph::Grid(2, 2, 1.0);
  TripGenerator gen(graph, SmallConfig());
  EXPECT_GT(gen.DemandProfile(8.5), gen.DemandProfile(4.0));
  EXPECT_GT(gen.DemandProfile(18.0), gen.DemandProfile(4.0));
}

TEST(TripGeneratorTest, NightGapProducesNoTrips) {
  RegionGraph graph = RegionGraph::Grid(3, 3, 1.0);
  SimConfig config = SmallConfig();
  config.night_gap_start_hour = 0;
  config.night_gap_end_hour = 6;
  TripGenerator gen(graph, config);
  EXPECT_TRUE(gen.InNightGap(3.0));
  EXPECT_FALSE(gen.InNightGap(6.0));
  for (const Trip& trip : gen.Generate()) {
    const double hour =
        static_cast<double>(trip.departure_s % 86400) / 3600.0;
    EXPECT_GE(hour, 6.0);
  }
}

TEST(TripGeneratorTest, RushHourTripsAreSlower) {
  RegionGraph graph = RegionGraph::Grid(3, 3, 1.0);
  SimConfig config = SmallConfig();
  config.num_days = 6;
  config.mean_trips_per_interval = 120;
  TripGenerator gen(graph, config);
  double rush_speed_sum = 0;
  int rush_count = 0;
  double night_speed_sum = 0;
  int night_count = 0;
  for (const Trip& trip : gen.Generate()) {
    const double hour =
        static_cast<double>(trip.departure_s % 86400) / 3600.0;
    if (hour >= 7.5 && hour < 9.5) {
      rush_speed_sum += trip.SpeedMs();
      ++rush_count;
    } else if (hour >= 2.0 && hour < 5.0) {
      night_speed_sum += trip.SpeedMs();
      ++night_count;
    }
  }
  ASSERT_GT(rush_count, 50);
  ASSERT_GT(night_count, 10);
  EXPECT_LT(rush_speed_sum / rush_count, night_speed_sum / night_count);
}

TEST(TripGeneratorTest, DemandIsSpatiallySkewedSparse) {
  RegionGraph graph = RegionGraph::Grid(4, 4, 1.0);
  SimConfig config = SmallConfig();
  config.num_days = 3;
  TripGenerator gen(graph, config);
  const auto trips = gen.Generate();
  TimePartition tp(config.interval_minutes, config.num_days);
  OdTensorSeries series = BuildOdTensorSeries(
      trips, tp, 16, 16, SpeedHistogramSpec::Paper());
  SparsityStats stats = ComputeSparsity(series);
  // Matrices must actually be sparse per interval (the core challenge).
  double mean_original = 0;
  for (double v : stats.original) mean_original += v;
  mean_original /= static_cast<double>(stats.original.size());
  EXPECT_LT(mean_original, 0.8);
  EXPECT_GT(mean_original, 0.01);
}

TEST(TripGeneratorTest, NeighbouringRegionsCorrelated) {
  // The congestion field must induce positive correlation between the mean
  // observed speeds of adjacent regions over time (what AF exploits).
  RegionGraph graph = RegionGraph::Grid(3, 3, 1.0);
  SimConfig config = SmallConfig();
  config.num_days = 6;
  config.mean_trips_per_interval = 200;
  config.field_stddev = 0.5;       // strong field for a clear signal
  config.trip_noise_sigma = 0.05;  // low per-trip noise
  TripGenerator gen(graph, config);
  TimePartition tp(config.interval_minutes, config.num_days);

  // Mean outgoing speed per origin region per interval.
  const int64_t intervals = tp.NumIntervals();
  std::vector<std::vector<double>> speed(9,
                                         std::vector<double>(intervals, 0));
  std::vector<std::vector<int>> count(9, std::vector<int>(intervals, 0));
  for (const Trip& trip : gen.Generate()) {
    const int64_t t = tp.IntervalOf(trip.departure_s);
    speed[trip.origin][t] += trip.SpeedMs();
    ++count[trip.origin][t];
  }
  auto series_of = [&](int region) {
    std::vector<double> out;
    for (int64_t t = 0; t < intervals; ++t) {
      if (count[region][t] > 0) {
        out.push_back(speed[region][t] / count[region][t]);
      } else {
        out.push_back(-1);
      }
    }
    return out;
  };
  auto correlation = [&](int a, int b) {
    auto sa = series_of(a);
    auto sb = series_of(b);
    double ma = 0;
    double mb = 0;
    int n = 0;
    for (size_t t = 0; t < sa.size(); ++t) {
      if (sa[t] < 0 || sb[t] < 0) continue;
      ma += sa[t];
      mb += sb[t];
      ++n;
    }
    if (n < 10) return 0.0;
    ma /= n;
    mb /= n;
    double cov = 0;
    double va = 0;
    double vb = 0;
    for (size_t t = 0; t < sa.size(); ++t) {
      if (sa[t] < 0 || sb[t] < 0) continue;
      cov += (sa[t] - ma) * (sb[t] - mb);
      va += (sa[t] - ma) * (sa[t] - ma);
      vb += (sb[t] - mb) * (sb[t] - mb);
    }
    return cov / std::sqrt(va * vb + 1e-12);
  };
  // Adjacent regions 4 (center) and 1/3/5/7 correlate positively.
  EXPECT_GT(correlation(4, 1), 0.2);
  EXPECT_GT(correlation(4, 3), 0.2);
}

// ---------------------------------------------------------------------
// Golden-seed determinism (ISSUE 7): the trip stream — raw and under
// every scenario injector — must be byte-identical across repeated runs
// with the same seed and across thread counts. Byte-level means byte-level:
// every field of every trip, not just counts or sums.
// ---------------------------------------------------------------------

/// Packs every trip field into one byte string (field-wise, so struct
/// padding can never alias as a difference).
std::string TripBytes(const std::vector<Trip>& trips) {
  std::string bytes;
  bytes.reserve(trips.size() * 32);
  auto append = [&bytes](const void* p, size_t n) {
    bytes.append(static_cast<const char*>(p), n);
  };
  for (const Trip& trip : trips) {
    append(&trip.origin, sizeof trip.origin);
    append(&trip.destination, sizeof trip.destination);
    append(&trip.departure_s, sizeof trip.departure_s);
    append(&trip.distance_m, sizeof trip.distance_m);
    append(&trip.duration_s, sizeof trip.duration_s);
  }
  return bytes;
}

TEST(GoldenSeedTest, TripGeneratorByteIdenticalAcrossRunsAndThreadCounts) {
  PoolGuard guard;
  RegionGraph graph = RegionGraph::Grid(3, 3, 1.0);
  std::string golden;
  for (int trial = 0; trial < 4; ++trial) {
    // Alternate thread counts between trials: the congestion-field MatMul
    // runs on the pool and must not leak the pool size into the stream.
    ThreadPool::Global().Resize(trial % 2 == 0 ? 1 : 4);
    TripGenerator gen(graph, SmallConfig());
    const std::string bytes = TripBytes(gen.Generate());
    if (trial == 0) {
      golden = bytes;
      ASSERT_FALSE(golden.empty());
    } else {
      ASSERT_EQ(bytes.size(), golden.size()) << "trial " << trial;
      EXPECT_TRUE(bytes == golden)
          << "trip stream diverged at trial " << trial;
    }
  }
}

TEST(GoldenSeedTest, EveryInjectorByteIdenticalAcrossRunsAndThreadCounts) {
  PoolGuard guard;
  RegionGraph graph = RegionGraph::Grid(3, 3, 1.0);
  SimConfig config = SmallConfig();
  config.mean_trips_per_interval = 120;
  TimePartition tp(config.interval_minutes, config.num_days);
  ScenarioWindow window{tp.NumIntervals() / 2, tp.NumIntervals()};
  // The standard suite covers every injector type plus a composition.
  const std::vector<Scenario> suite =
      StandardScenarioSuite(graph, window, /*seed=*/0xC0FFEE);
  ASSERT_GE(suite.size(), 5u);

  std::vector<std::string> golden(suite.size());
  for (int trial = 0; trial < 4; ++trial) {
    ThreadPool::Global().Resize(trial % 2 == 0 ? 1 : 4);
    TripGenerator gen(graph, config);
    const std::vector<Trip> base = gen.Generate();
    for (size_t s = 0; s < suite.size(); ++s) {
      const std::string bytes =
          TripBytes(suite[s].ApplyToTrips(base, graph, tp));
      if (trial == 0) {
        golden[s] = bytes;
        ASSERT_FALSE(golden[s].empty()) << suite[s].name();
      } else {
        EXPECT_TRUE(bytes == golden[s])
            << suite[s].name() << " diverged at trial " << trial;
      }
    }
  }
}

TEST(GoldenSeedTest, DropoutMaskingDeterministicAcrossThreadCounts) {
  PoolGuard guard;
  RegionGraph graph = RegionGraph::Grid(3, 3, 1.0);
  SimConfig config = SmallConfig();
  TimePartition tp(config.interval_minutes, config.num_days);
  Scenario scenario("dropout", 11);
  SensorDropoutConfig dropout;
  dropout.regions = {0, 4};
  dropout.window = {8, 40};
  scenario.AddSensorDropout(dropout);

  std::string golden;
  for (int trial = 0; trial < 2; ++trial) {
    ThreadPool::Global().Resize(trial == 0 ? 1 : 4);
    TripGenerator gen(graph, config);
    OdTensorSeries truth = BuildOdTensorSeries(
        gen.Generate(), tp, 9, 9, SpeedHistogramSpec::Paper());
    OdTensorSeries observed = scenario.MaskObservations(truth, tp);
    std::string bytes;
    for (const OdTensor& tensor : observed.tensors) {
      bytes.append(reinterpret_cast<const char*>(tensor.values().data()),
                   static_cast<size_t>(tensor.values().numel()) *
                       sizeof(float));
      bytes.append(reinterpret_cast<const char*>(tensor.mask().data()),
                   static_cast<size_t>(tensor.mask().numel()) *
                       sizeof(float));
    }
    if (trial == 0) {
      golden = bytes;
    } else {
      EXPECT_TRUE(bytes == golden);
    }
  }
}

TEST(DatasetSpecTest, PresetsMatchPaperStructure) {
  DatasetSpec nyc = MakeNycLike(4, 4, 5, 30);
  EXPECT_EQ(nyc.graph.size(), 16);
  EXPECT_LT(nyc.config.night_gap_start_hour, 0);

  DatasetSpec cd = MakeChengduLike(18, 5, 30);
  EXPECT_EQ(cd.graph.size(), 18);
  EXPECT_EQ(cd.config.night_gap_start_hour, 0);
  EXPECT_EQ(cd.config.night_gap_end_hour, 6);
  // CD is configured to be harder (more noise) than NYC, per the paper.
  EXPECT_GT(cd.config.trip_noise_sigma, nyc.config.trip_noise_sigma);
  EXPECT_GT(cd.config.field_stddev, nyc.config.field_stddev);
}

}  // namespace
}  // namespace odf
