// Property tests for the stress-scenario injectors (sim/scenario.h) and an
// end-to-end run of the scenario×model robustness harness
// (eval/scenario_eval.h) — ISSUE 7 / ROADMAP item 4.
//
// The injector contracts under test:
//   * road closures never emit trips over removed edges (drop mode), and
//     rerouted corridor trips detour — longer, slower, same endpoints;
//   * demand surges conserve total demand mass (per-interval trip counts);
//   * sensor dropout masks observations but never ground truth;
//   * injectors commute exactly where docs/scenarios.md says they do;
//   * the time-varying graph view zeroes exactly the closed edges.

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/graphops_eval.h"
#include "eval/scenario_eval.h"
#include "od/od_tensor.h"
#include "pool_guard.h"
#include "sim/scenario.h"
#include "sim/trip_generator.h"
#include "util/binary_io.h"
#include "util/thread_pool.h"

namespace odf {
namespace {

SimConfig SmallConfig(uint64_t seed = 99) {
  SimConfig config;
  config.interval_minutes = 60;
  config.num_days = 2;
  config.mean_trips_per_interval = 150;
  config.seed = seed;
  return config;
}

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

struct TestWorld {
  RegionGraph graph = RegionGraph::Grid(3, 3, 1.0);
  SimConfig config = SmallConfig();
  TimePartition tp{config.interval_minutes, config.num_days};
  std::vector<Trip> trips;

  TestWorld() {
    TripGenerator gen(graph, config);
    trips = gen.Generate();
  }
};

std::vector<int64_t> PerIntervalCounts(const std::vector<Trip>& trips,
                                       const TimePartition& tp) {
  std::vector<int64_t> counts(static_cast<size_t>(tp.NumIntervals()), 0);
  for (const Trip& trip : trips) {
    ++counts[static_cast<size_t>(tp.IntervalOf(trip.departure_s))];
  }
  return counts;
}

// ---------------------------------------------------------------------
// Road closures.
// ---------------------------------------------------------------------

TEST(RoadClosureTest, DropModeNeverEmitsTripsOverRemovedEdges) {
  TestWorld world;
  ScenarioWindow window{10, 30};
  RoadClosureConfig config;
  config.closed_regions = {4};          // blockade downtown
  config.closed_edges = {{1, 2}};       // and one corridor
  config.window = window;
  config.reroute = false;               // drop mode: nothing gets through
  Scenario scenario("closure_drop", 5);
  scenario.AddRoadClosure(config);

  const std::vector<Trip> stressed =
      scenario.ApplyToTrips(world.trips, world.graph, world.tp);
  ASSERT_LT(stressed.size(), world.trips.size());
  int64_t in_window_before = 0;
  for (const Trip& trip : world.trips) {
    if (window.Contains(world.tp.IntervalOf(trip.departure_s))) {
      ++in_window_before;
    }
  }
  ASSERT_GT(in_window_before, 0);
  for (const Trip& trip : stressed) {
    const int64_t t = world.tp.IntervalOf(trip.departure_s);
    if (!window.Contains(t)) continue;
    EXPECT_NE(trip.origin, 4);
    EXPECT_NE(trip.destination, 4);
    const bool over_corridor =
        (trip.origin == 1 && trip.destination == 2) ||
        (trip.origin == 2 && trip.destination == 1);
    EXPECT_FALSE(over_corridor)
        << "trip over removed edge (1,2) at interval " << t;
  }
  // Outside the window the stream is untouched, byte for byte.
  auto outside = [&](const std::vector<Trip>& trips) {
    std::vector<Trip> kept;
    for (const Trip& trip : trips) {
      if (!window.Contains(world.tp.IntervalOf(trip.departure_s))) {
        kept.push_back(trip);
      }
    }
    return kept;
  };
  EXPECT_EQ(TripBytes(outside(stressed)), TripBytes(outside(world.trips)));
}

TEST(RoadClosureTest, RerouteDetoursCorridorTripsSameEndpoints) {
  TestWorld world;
  ScenarioWindow window{0, world.tp.NumIntervals()};
  RoadClosureConfig config;
  config.closed_edges = {{3, 4}};
  config.window = window;
  config.reroute = true;
  config.detour_factor = 1.7;
  config.detour_speed_factor = 0.8;
  Scenario scenario("closure_detour", 5);
  scenario.AddRoadClosure(config);

  const std::vector<Trip> stressed =
      scenario.ApplyToTrips(world.trips, world.graph, world.tp);
  // Reroute drops nothing (no blockaded regions configured).
  ASSERT_EQ(stressed.size(), world.trips.size());
  int64_t detoured = 0;
  for (size_t i = 0; i < stressed.size(); ++i) {
    const Trip& before = world.trips[i];
    const Trip& after = stressed[i];
    EXPECT_EQ(before.origin, after.origin);
    EXPECT_EQ(before.destination, after.destination);
    EXPECT_EQ(before.departure_s, after.departure_s);
    const bool corridor = (before.origin == 3 && before.destination == 4) ||
                          (before.origin == 4 && before.destination == 3);
    if (corridor) {
      ++detoured;
      EXPECT_NEAR(after.distance_m, before.distance_m * 1.7, 1e-9);
      EXPECT_LT(after.SpeedMs(), before.SpeedMs() + 1e-12);
    } else {
      EXPECT_DOUBLE_EQ(after.distance_m, before.distance_m);
      EXPECT_DOUBLE_EQ(after.duration_s, before.duration_s);
    }
  }
  EXPECT_GT(detoured, 0);
}

TEST(RoadClosureTest, TimeVaryingGraphZeroesExactlyClosedEdges) {
  TestWorld world;
  RoadClosureConfig config;
  config.closed_regions = {0};
  config.closed_edges = {{4, 5}};
  config.window = {10, 20};
  Scenario scenario("closure", 5);
  scenario.AddRoadClosure(config);

  const ProximityParams params{1.0, 2.0};
  const Tensor base = world.graph.ProximityMatrix(params);
  const Tensor open = scenario.ProximityMatrixAt(world.graph, params, 5);
  const Tensor closed = scenario.ProximityMatrixAt(world.graph, params, 15);
  ASSERT_EQ(open.shape(), base.shape());
  // Outside the window: untouched.
  EXPECT_EQ(std::memcmp(open.data(), base.data(),
                        static_cast<size_t>(base.numel()) * sizeof(float)),
            0);
  for (int64_t i = 0; i < world.graph.size(); ++i) {
    for (int64_t j = 0; j < world.graph.size(); ++j) {
      const bool removed = (i == 0 || j == 0) ||
                           (i == 4 && j == 5) || (i == 5 && j == 4);
      EXPECT_EQ(scenario.EdgeClosed(i, j, 15), removed) << i << "," << j;
      if (removed && i != j) {  // ProximityMatrixAt zeroes off-diagonal only
        EXPECT_EQ(closed.At2(i, j), 0.0f) << i << "," << j;
      } else {
        EXPECT_EQ(closed.At2(i, j), base.At2(i, j)) << i << "," << j;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Demand surges.
// ---------------------------------------------------------------------

TEST(DemandSurgeTest, ConservesTotalDemandMassPerInterval) {
  TestWorld world;
  ScenarioWindow window{8, 32};
  DemandSurgeConfig config;
  config.target_region = 8;
  config.window = window;
  config.peak_redirect_fraction = 0.8;
  Scenario scenario("surge", 5);
  scenario.AddDemandSurge(config);

  const std::vector<Trip> stressed =
      scenario.ApplyToTrips(world.trips, world.graph, world.tp);
  // Mass conservation: redistribution only — identical counts everywhere.
  ASSERT_EQ(stressed.size(), world.trips.size());
  EXPECT_EQ(PerIntervalCounts(stressed, world.tp),
            PerIntervalCounts(world.trips, world.tp));

  // The surge visibly concentrates demand on the target inside the window.
  auto target_share = [&](const std::vector<Trip>& trips) {
    int64_t touching = 0;
    int64_t total = 0;
    for (const Trip& trip : trips) {
      if (!window.Contains(world.tp.IntervalOf(trip.departure_s))) continue;
      ++total;
      if (trip.origin == 8 || trip.destination == 8) ++touching;
    }
    return static_cast<double>(touching) / static_cast<double>(total);
  };
  EXPECT_GT(target_share(stressed), target_share(world.trips) + 0.1);

  // Outside the window: untouched, byte for byte.
  auto outside = [&](const std::vector<Trip>& trips) {
    std::vector<Trip> kept;
    for (const Trip& trip : trips) {
      if (!window.Contains(world.tp.IntervalOf(trip.departure_s))) {
        kept.push_back(trip);
      }
    }
    return kept;
  };
  EXPECT_EQ(TripBytes(outside(stressed)), TripBytes(outside(world.trips)));
}

TEST(DemandSurgeTest, IntensityIsConcertShaped) {
  DemandSurgeConfig config;
  config.target_region = 0;
  config.window = {0, 10};
  DemandSurgeInjector surge(config);
  EXPECT_EQ(surge.Intensity(-1), 0.0);
  EXPECT_EQ(surge.Intensity(10), 0.0);
  // Ramps up to the mid-window peak, then back down.
  EXPECT_LT(surge.Intensity(0), surge.Intensity(2));
  EXPECT_LT(surge.Intensity(2), surge.Intensity(5));
  EXPECT_GT(surge.Intensity(5), surge.Intensity(8));
  EXPECT_GT(surge.Intensity(5), 0.9);
}

// ---------------------------------------------------------------------
// Weather slowdowns.
// ---------------------------------------------------------------------

TEST(WeatherSlowdownTest, SlowsInWindowTripsOnly) {
  TestWorld world;
  ScenarioWindow window{12, 36};
  WeatherSlowdownConfig config;
  config.window = window;
  config.speed_factor = 0.6;
  Scenario scenario("weather", 5);
  scenario.AddWeatherSlowdown(config);

  const std::vector<Trip> stressed =
      scenario.ApplyToTrips(world.trips, world.graph, world.tp);
  ASSERT_EQ(stressed.size(), world.trips.size());  // lossless by default
  int64_t slowed = 0;
  for (size_t i = 0; i < stressed.size(); ++i) {
    const Trip& before = world.trips[i];
    const Trip& after = stressed[i];
    EXPECT_DOUBLE_EQ(after.distance_m, before.distance_m);
    if (window.Contains(world.tp.IntervalOf(before.departure_s))) {
      EXPECT_LE(after.SpeedMs(), before.SpeedMs() + 1e-12);
      EXPECT_GE(after.SpeedMs(), 0.5 - 1e-12);  // physical clamp holds
      if (after.duration_s > before.duration_s) ++slowed;
    } else {
      EXPECT_DOUBLE_EQ(after.duration_s, before.duration_s);
    }
  }
  EXPECT_GT(slowed, 0);
}

TEST(WeatherSlowdownTest, RampBuildsAndClears) {
  WeatherSlowdownConfig config;
  config.window = {10, 20};
  config.ramp_intervals = 3.0;
  WeatherSlowdownInjector weather(config);
  EXPECT_EQ(weather.Intensity(9), 0.0);
  EXPECT_LT(weather.Intensity(10), 1.0);
  EXPECT_LT(weather.Intensity(10), weather.Intensity(11));
  EXPECT_EQ(weather.Intensity(14), 1.0);
  EXPECT_GT(weather.Intensity(17), weather.Intensity(19));
  EXPECT_EQ(weather.Intensity(20), 0.0);
}

// ---------------------------------------------------------------------
// Sensor dropout.
// ---------------------------------------------------------------------

TEST(SensorDropoutTest, MasksObservationsButNotGroundTruth) {
  TestWorld world;
  ScenarioWindow window{6, 30};
  SensorDropoutConfig config;
  config.regions = {2, 4};
  config.window = window;
  Scenario scenario("dropout", 5);
  scenario.AddSensorDropout(config);

  OdTensorSeries truth = BuildOdTensorSeries(
      world.trips, world.tp, 9, 9, SpeedHistogramSpec::Paper());
  // Keep a reference copy to prove truth is untouched.
  const OdTensorSeries reference = truth;
  const OdTensorSeries observed =
      scenario.MaskObservations(truth, world.tp);

  int64_t masked_cells = 0;
  for (int64_t t = 0; t < truth.NumIntervals(); ++t) {
    const OdTensor& truth_t = truth.at(t);
    const OdTensor& ref_t = reference.at(t);
    const OdTensor& obs_t = observed.at(t);
    // Ground truth persists bit-for-bit.
    ASSERT_EQ(std::memcmp(truth_t.values().data(), ref_t.values().data(),
                          static_cast<size_t>(truth_t.values().numel()) *
                              sizeof(float)),
              0);
    for (int64_t o = 0; o < 9; ++o) {
      for (int64_t d = 0; d < 9; ++d) {
        const bool dark = window.Contains(t) &&
                          (o == 2 || o == 4 || d == 2 || d == 4);
        if (dark) {
          EXPECT_FALSE(obs_t.IsObserved(o, d));
          if (truth_t.IsObserved(o, d)) ++masked_cells;
        } else {
          EXPECT_EQ(obs_t.IsObserved(o, d), truth_t.IsObserved(o, d));
          if (truth_t.IsObserved(o, d)) {
            for (int64_t k = 0; k < truth_t.num_buckets(); ++k) {
              EXPECT_EQ(obs_t.values().At3(o, d, k),
                        truth_t.values().At3(o, d, k));
            }
          }
        }
      }
    }
  }
  EXPECT_GT(masked_cells, 0) << "the dropout never bit";
}

// ---------------------------------------------------------------------
// Composition / commutation (docs/scenarios.md).
// ---------------------------------------------------------------------

TEST(ScenarioCompositionTest, RngFreeInjectorsCommuteByteLevel) {
  // Documented commuting pair: a drop-mode closure (no randomness, removal
  // only) and a lossless weather slowdown (no randomness, duration only).
  TestWorld world;
  RoadClosureConfig closure;
  closure.closed_regions = {4};
  closure.window = {5, 40};
  closure.reroute = false;
  WeatherSlowdownConfig weather;
  weather.window = {10, 30};
  weather.speed_factor = 0.7;

  Scenario ab("closure_then_weather", 5);
  ab.AddRoadClosure(closure);
  ab.AddWeatherSlowdown(weather);
  Scenario ba("weather_then_closure", 5);
  ba.AddWeatherSlowdown(weather);
  ba.AddRoadClosure(closure);

  EXPECT_EQ(TripBytes(ab.ApplyToTrips(world.trips, world.graph, world.tp)),
            TripBytes(ba.ApplyToTrips(world.trips, world.graph, world.tp)));
}

TEST(ScenarioCompositionTest, DropoutCommutesWithTripLevelInjectors) {
  // Sensor dropout acts on observations only, so against any trip-level
  // injector the application order is immaterial end to end.
  TestWorld world;
  WeatherSlowdownConfig weather;
  weather.window = {10, 30};
  weather.speed_factor = 0.6;
  SensorDropoutConfig dropout;
  dropout.regions = {1};
  dropout.window = {10, 30};

  Scenario ab("weather_then_dropout", 5);
  ab.AddWeatherSlowdown(weather);
  ab.AddSensorDropout(dropout);
  Scenario ba("dropout_then_weather", 5);
  ba.AddSensorDropout(dropout);
  ba.AddWeatherSlowdown(weather);

  DatasetSpec spec{"test", world.graph, world.config};
  const ScenarioWorld first =
      BuildScenarioWorld(spec, ab, SpeedHistogramSpec::Paper());
  const ScenarioWorld second =
      BuildScenarioWorld(spec, ba, SpeedHistogramSpec::Paper());
  ASSERT_EQ(TripBytes(first.trips), TripBytes(second.trips));
  ASSERT_EQ(first.observed.NumIntervals(), second.observed.NumIntervals());
  for (int64_t t = 0; t < first.observed.NumIntervals(); ++t) {
    const OdTensor& a = first.observed.at(t);
    const OdTensor& b = second.observed.at(t);
    EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                          static_cast<size_t>(a.values().numel()) *
                              sizeof(float)),
              0)
        << "interval " << t;
    EXPECT_EQ(std::memcmp(a.mask().data(), b.mask().data(),
                          static_cast<size_t>(a.mask().numel()) *
                              sizeof(float)),
              0)
        << "interval " << t;
  }
}

TEST(ScenarioCompositionTest, InjectorsGetIndependentRngStreams) {
  // Prepending an rng-free injector must not shift the draws the surge
  // makes: each injector's stream is seeded by (scenario seed, index)...
  TestWorld world;
  DemandSurgeConfig surge;
  surge.target_region = 8;
  surge.window = {8, 32};
  surge.peak_redirect_fraction = 0.8;

  Scenario alone("surge", 5);
  alone.AddDemandSurge(surge);
  const std::vector<Trip> only_surge =
      alone.ApplyToTrips(world.trips, world.graph, world.tp);

  // ...so the same surge at the same index reproduces byte-identically,
  Scenario again("surge_again", 5);
  again.AddDemandSurge(surge);
  EXPECT_EQ(TripBytes(again.ApplyToTrips(world.trips, world.graph, world.tp)),
            TripBytes(only_surge));

  // and a different scenario seed gives a different (but valid) stream.
  Scenario reseeded("surge_reseeded", 6);
  reseeded.AddDemandSurge(surge);
  const std::vector<Trip> other =
      reseeded.ApplyToTrips(world.trips, world.graph, world.tp);
  ASSERT_EQ(other.size(), only_surge.size());
  EXPECT_NE(TripBytes(other), TripBytes(only_surge));
}

// ---------------------------------------------------------------------
// Standard suite.
// ---------------------------------------------------------------------

TEST(StandardScenarioSuiteTest, CoversEveryInjectorFamily) {
  RegionGraph graph = RegionGraph::Grid(3, 3, 1.0);
  const std::vector<Scenario> suite =
      StandardScenarioSuite(graph, ScenarioWindow{10, 40});
  ASSERT_GE(suite.size(), 5u);
  EXPECT_EQ(suite.front().name(), "clean");
  EXPECT_TRUE(suite.front().injectors().empty());
  std::vector<std::string> names;
  for (const Scenario& scenario : suite) names.push_back(scenario.name());
  for (const char* expected :
       {"road_closure", "demand_surge", "weather_slowdown", "sensor_dropout",
        "storm_dropout"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

// ---------------------------------------------------------------------
// End-to-end harness (eval/scenario_eval.h).
// ---------------------------------------------------------------------

TEST(ScenarioEvalTest, TinyGridSweepEmitsCompleteFiniteSchemaValidJson) {
  DatasetSpec spec = MakeNycLike(3, 3, /*num_days=*/3,
                                 /*interval_minutes=*/60, /*seed=*/1007);

  const int64_t num_intervals = 3 * 24;
  std::vector<Scenario> scenarios;
  scenarios.emplace_back("clean");
  {
    Scenario weather("weather_slowdown");
    WeatherSlowdownConfig config;
    config.window = {num_intervals - num_intervals / 5, num_intervals};
    config.speed_factor = 0.45;  // strong storm: unambiguous degradation
    weather.AddWeatherSlowdown(config);
    scenarios.push_back(std::move(weather));
  }
  {
    Scenario dropout("sensor_dropout");
    SensorDropoutConfig config;
    config.regions = {4};
    config.window = {num_intervals - num_intervals / 5, num_intervals};
    dropout.AddSensorDropout(config);
    scenarios.push_back(std::move(dropout));
  }

  eval::ScenarioEvalConfig config;
  config.models = {"AF", "NH"};
  config.train.epochs = 2;
  config.train.batch_size = 8;

  const eval::ScenarioEvalResult result =
      eval::RunScenarioSweep(spec, scenarios, config);

  // Complete: every scenario×model cell present, in order, with data.
  ASSERT_EQ(result.scenarios.size(), 3u);
  ASSERT_EQ(result.models.size(), 2u);
  ASSERT_EQ(result.scores.size(), 6u);
  for (size_t s = 0; s < result.scenarios.size(); ++s) {
    for (size_t m = 0; m < result.models.size(); ++m) {
      const eval::ScenarioScore& score = result.scores[s * 2 + m];
      EXPECT_EQ(score.scenario, result.scenarios[s]);
      EXPECT_EQ(score.model, result.models[m]);
      EXPECT_GT(score.pairs, 0);
      for (int k = 0; k < kNumMetrics; ++k) {
        EXPECT_TRUE(std::isfinite(score.values[k]))
            << score.scenario << "/" << score.model;
        EXPECT_GE(score.values[k], 0.0);
      }
    }
  }

  // Sanity direction check on the stub model (NH ignores its inputs, so
  // only the shifted ground truth moves its score): a strong storm must
  // not make the static forecast look better.
  auto cell = [&](const std::string& scenario,
                  const std::string& model) -> const eval::ScenarioScore& {
    for (const eval::ScenarioScore& score : result.scores) {
      if (score.scenario == scenario && score.model == model) return score;
    }
    ODF_CHECK(false) << scenario << "/" << model << " missing";
    return result.scores[0];
  };
  for (int k = 0; k < kNumMetrics; ++k) {
    EXPECT_GE(cell("weather_slowdown", "NH").values[k],
              cell("clean", "NH").values[k])
        << MetricName(static_cast<Metric>(k));
  }
  // Sensor dropout starves inputs, never the truth — for the input-blind
  // stub the score is exactly the clean one.
  for (int k = 0; k < kNumMetrics; ++k) {
    EXPECT_DOUBLE_EQ(cell("sensor_dropout", "NH").values[k],
                     cell("clean", "NH").values[k]);
  }

  // Schema-valid, deterministic JSON: all keys present, no NaN/Inf
  // spellings, balanced braces/brackets, rerender is byte-identical.
  const std::string json = eval::ScenarioBenchJson(result);
  for (const char* key :
       {"\"bench\": \"scenario_robustness\"", "\"dataset\"", "\"regions\"",
        "\"seed\"", "\"history\"", "\"horizon\"", "\"test_windows\"",
        "\"models\"", "\"scenarios\"", "\"name\": \"clean\"",
        "\"name\": \"weather_slowdown\"", "\"name\": \"sensor_dropout\"",
        "\"model\": \"AF\"", "\"model\": \"NH\"", "\"kl\"", "\"js\"",
        "\"emd\"", "\"pairs\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  for (const char* poison : {"nan", "inf", "NaN", "Inf"}) {
    EXPECT_EQ(json.find(poison), std::string::npos) << poison;
  }
  int depth = 0;
  int square = 0;
  for (char c : json) {
    depth += (c == '{') - (c == '}');
    square += (c == '[') - (c == ']');
    ASSERT_GE(depth, 0);
    ASSERT_GE(square, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(square, 0);
  EXPECT_EQ(eval::ScenarioBenchJson(result), json);

  // And the atomic file writer the drivers use round-trips the same bytes.
  const std::string path = ::testing::TempDir() + "/bench_scenarios.json";
  ASSERT_TRUE(WriteFileAtomic(path, json.data(), json.size()));
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string reread(json.size() + 64, '\0');
  const size_t read = std::fread(reread.data(), 1, reread.size(), file);
  std::fclose(file);
  reread.resize(read);
  EXPECT_EQ(reread, json);
}

// The graph-operator sweep on the world its CI smoke run uses: the same
// bytes at every pool size, and its Chebyshev row is the scenario sweep's
// AF on `clean` (same seed offset, same clean split, same scoring loop).
TEST(GraphOpsEvalTest, SmokeSweepIsThreadInvariantAndMatchesScenarioAf) {
  const uint64_t seed = 7;
  const DatasetSpec spec = MakeNycLike(3, 3, /*num_days=*/4,
                                       /*interval_minutes=*/60, 1000 + seed);
  const int64_t num_intervals = 4 * 24;
  const ScenarioWindow window{num_intervals - num_intervals / 5,
                              num_intervals};
  const std::vector<Scenario> suite =
      StandardScenarioSuite(spec.graph, window, seed);
  const Scenario* closure = nullptr;
  for (const Scenario& scenario : suite) {
    if (scenario.name() == "road_closure") closure = &scenario;
  }
  ASSERT_NE(closure, nullptr);

  eval::GraphOpsEvalConfig config;
  config.modes = {"cheb", "diffusion"};
  config.train.seed = seed;
  config.train.epochs = 2;
  config.train.batch_size = 16;
  config.train.patience = 4;

  PoolGuard guard;
  eval::GraphOpsEvalResult result;
  std::vector<std::string> json;
  for (const int threads : {1, 4}) {
    ThreadPool::Global().Resize(threads);
    result = eval::RunGraphOpsSweep(spec, *closure, config);
    json.push_back(eval::GraphOpsBenchJson(result));
  }
  EXPECT_EQ(json[0], json[1]);

  eval::ScenarioEvalConfig scenario_config;
  scenario_config.models = {"AF"};
  scenario_config.train = config.train;
  std::vector<Scenario> clean;
  clean.emplace_back("clean");
  const eval::ScenarioEvalResult scenario_result =
      eval::RunScenarioSweep(spec, clean, scenario_config);
  ASSERT_EQ(scenario_result.scores.size(), 1u);
  const eval::ScenarioScore& af = scenario_result.scores[0];
  const eval::GraphOpScore& cheb = result.clean[0];
  ASSERT_EQ(cheb.mode, "cheb");
  EXPECT_EQ(cheb.pairs, af.pairs);
  for (int k = 0; k < kNumMetrics; ++k) {
    EXPECT_EQ(cheb.values[k], af.values[k])
        << MetricName(static_cast<Metric>(k));
  }
}

}  // namespace
}  // namespace odf
