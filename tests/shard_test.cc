// Shard subsystem tests (docs/sharding.md): the partition is a
// deterministic disjoint cover (byte-identical across runs and thread
// counts — shard membership determines model weights, so this is
// load-bearing), and the Graclus coarsener it builds on is itself
// deterministic. One end-to-end table (MatchesPredictOnEveryConfiguration)
// holds training determinism, Predict against a test-side reference, and
// the serving merge and routing against Predict, over cities, shard counts,
// trip backends and thread counts; a second case rolls over and merges
// while other threads read. The library's config defaults (model,
// shard, serve, stream cache, graph path) hold whatever the environment
// says. Tests that resize the pool restore it with PoolGuard, so the rest
// run at the size the binary started with (ODF_THREADS).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/coarsen.h"
#include "graph/laplacian.h"
#include "od/stream_source.h"
#include "od/trip_log.h"
#include "pool_guard.h"
#include "serve/service.h"
#include "shard/partition.h"
#include "shard/sharded_model.h"
#include "shard/sharded_service.h"
#include "tensor/csr.h"
#include "util/thread_pool.h"

namespace odf {
namespace {

using shard::BoundaryGraph;
using shard::PartitionRegions;
using shard::ShardedModel;
using shard::ShardedModelConfig;
using shard::ShardedService;
using shard::ShardGraph;
using shard::ShardPartition;
using shard::ShardSeed;

bool TensorBitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Deterministic trips over a `rows`×`cols` grid: every interval gets a mix
/// of short intra-neighbourhood and long cross-city trips, so both shard
/// and boundary models observe data.
std::vector<Trip> GridTrips(int rows, int cols, const TimePartition& tp,
                            int per_interval, uint64_t seed) {
  const int64_t n = static_cast<int64_t>(rows) * cols;
  std::vector<Trip> trips;
  uint64_t state = seed;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int64_t t = 0; t < tp.NumIntervals(); ++t) {
    const int64_t base_s =
        t * static_cast<int64_t>(tp.interval_minutes()) * 60;
    for (int i = 0; i < per_interval; ++i) {
      Trip trip;
      trip.origin = static_cast<int32_t>(next() % n);
      trip.destination = static_cast<int32_t>(next() % n);
      trip.departure_s =
          base_s + static_cast<int64_t>(next() %
                                        (tp.interval_minutes() * 60));
      trip.distance_m = 400.0 + static_cast<double>(next() % 6000);
      trip.duration_s = 60.0 + static_cast<double>(next() % 500);
      trips.push_back(trip);
    }
  }
  return trips;
}

ShardedModelConfig TinyConfig(int64_t num_shards, int64_t history = 2,
                              int64_t buckets = 4) {
  ShardedModelConfig config;
  config.num_shards = num_shards;
  config.spec = SpeedHistogramSpec(buckets, 4.0);
  config.history = history;
  config.horizon = 2;
  config.shard_model.cheb_order = 2;
  config.shard_model.conv_filters = 2;
  config.shard_model.num_levels = 1;
  config.shard_model.gcgru_hidden = 2;
  config.boundary_model.cheb_order = 2;
  config.boundary_model.conv_filters = 2;
  config.boundary_model.gcgru_hidden = 2;
  config.stream_cache = 4;
  return config;
}

TrainConfig TinyTrain() {
  TrainConfig config;
  config.epochs = 2;
  config.batch_size = 4;
  config.patience = 10;
  config.seed = 11;
  return config;
}

// ---------------------------------------------------------------------
// Coarsener determinism (satellite: shard membership depends on it).
// ---------------------------------------------------------------------

TEST(CoarsenDeterminismTest, ByteIdenticalAcrossRunsAndThreadCounts) {
  const RegionGraph graph = RegionGraph::Grid(6, 6, 1.0);
  const Tensor w = graph.ProximityMatrix(ProximityParams{1.0, 2.0});

  const CoarseningLevel first = CoarsenOnce(w);
  {
    PoolGuard guard;
    for (int run = 0; run < 3; ++run) {
      ThreadPool::Global().Resize(run % 2 == 0 ? 1 : 4);
      const CoarseningLevel again = CoarsenOnce(w);
      ASSERT_EQ(again.clusters, first.clusters);
      ASSERT_TRUE(TensorBitEqual(again.coarse_w, first.coarse_w));
    }
  }

  // The full hierarchy too.
  const auto h1 = BuildCoarseningHierarchy(w, 3);
  const auto h2 = BuildCoarseningHierarchy(w, 3);
  ASSERT_EQ(h1.size(), h2.size());
  for (size_t l = 0; l < h1.size(); ++l) {
    EXPECT_EQ(h1[l].clusters, h2[l].clusters);
    EXPECT_TRUE(TensorBitEqual(h1[l].coarse_w, h2[l].coarse_w));
  }
}

// ---------------------------------------------------------------------
// Partition properties.
// ---------------------------------------------------------------------

TEST(PartitionTest, DisjointCoverWithCanonicalOrder) {
  const RegionGraph graph = RegionGraph::Grid(8, 8, 1.0);
  const Tensor w = graph.ProximityMatrix(ProximityParams{1.0, 2.0});
  const ShardPartition partition = PartitionRegions(graph, w, 4);

  EXPECT_EQ(partition.num_regions, 64);
  ASSERT_GE(partition.num_shards(), 2);
  ASSERT_LE(partition.num_shards(), 4);

  std::vector<int> seen(64, 0);
  int64_t previous_first = -1;
  for (int64_t p = 0; p < partition.num_shards(); ++p) {
    const auto& members = partition.members[p];
    ASSERT_FALSE(members.empty());
    // Ascending members, shards ordered by smallest member.
    for (size_t i = 1; i < members.size(); ++i) {
      EXPECT_LT(members[i - 1], members[i]);
    }
    EXPECT_GT(members.front(), previous_first);
    previous_first = members.front();
    for (int64_t r : members) {
      seen[static_cast<size_t>(r)] += 1;
      EXPECT_EQ(partition.shard_of[static_cast<size_t>(r)], p);
    }
  }
  for (int r = 0; r < 64; ++r) EXPECT_EQ(seen[static_cast<size_t>(r)], 1);

  // local_of inverts members.
  for (int64_t r = 0; r < 64; ++r) {
    const auto p = static_cast<size_t>(partition.shard_of[r]);
    const auto l = static_cast<size_t>(partition.local_of[r]);
    EXPECT_EQ(partition.members[p][l], r);
  }
}

TEST(PartitionTest, RoughlyBalanced) {
  const RegionGraph graph = RegionGraph::Grid(8, 8, 1.0);
  const Tensor w = graph.ProximityMatrix(ProximityParams{1.0, 2.0});
  const ShardPartition partition = PartitionRegions(graph, w, 4);
  ASSERT_EQ(partition.num_shards(), 4);
  for (const auto& members : partition.members) {
    // Perfect balance is 16; coarsening granularity can skew it, but no
    // shard should be degenerate or dominant.
    EXPECT_GE(static_cast<int64_t>(members.size()), 4);
    EXPECT_LE(static_cast<int64_t>(members.size()), 32);
  }
}

TEST(PartitionTest, EdgeCases) {
  const RegionGraph graph = RegionGraph::Grid(3, 3, 1.0);
  const Tensor w = graph.ProximityMatrix(ProximityParams{1.0, 2.0});

  // P = 1: one shard with everything.
  ShardPartition one = PartitionRegions(graph, w, 1);
  ASSERT_EQ(one.num_shards(), 1);
  EXPECT_EQ(one.members[0].size(), 9u);

  // P > n clamps to n: 9 singleton shards.
  ShardPartition many = PartitionRegions(graph, w, 100);
  EXPECT_EQ(many.num_shards(), 9);
  for (const auto& members : many.members) EXPECT_EQ(members.size(), 1u);

  // Edgeless proximity (alpha below the grid pitch) still covers.
  const Tensor disconnected =
      graph.ProximityMatrix(ProximityParams{1.0, 0.5});
  ShardPartition sparse = PartitionRegions(graph, disconnected, 3);
  int64_t total = 0;
  for (const auto& members : sparse.members) {
    total += static_cast<int64_t>(members.size());
  }
  EXPECT_EQ(total, 9);
}

TEST(PartitionTest, SpatiallyCoherentShards) {
  // With a neighbour-only proximity kernel, coarsening merges neighbours,
  // so every shard's bounding box should be far smaller than the city's.
  const RegionGraph graph = RegionGraph::Grid(8, 8, 1.0);
  const Tensor w = graph.ProximityMatrix(ProximityParams{1.0, 1.5});
  const ShardPartition partition = PartitionRegions(graph, w, 4);
  for (const auto& members : partition.members) {
    double max_pair_km = 0.0;
    for (size_t a = 0; a < members.size(); ++a) {
      for (size_t b = a + 1; b < members.size(); ++b) {
        max_pair_km =
            std::max(max_pair_km, graph.DistanceKm(members[a], members[b]));
      }
    }
    // City diameter is ~9.9 km; coherent shards stay well under it.
    EXPECT_LT(max_pair_km, 8.0);
  }
}

TEST(PartitionTest, ByteIdenticalAcrossRunsAndThreadCounts) {
  PoolGuard guard;
  const RegionGraph graph = RegionGraph::Grid(8, 8, 1.0);
  const Tensor w = graph.ProximityMatrix(ProximityParams{1.0, 2.0});
  const ShardPartition first = PartitionRegions(graph, w, 4);
  for (int run = 0; run < 3; ++run) {
    ThreadPool::Global().Resize(run % 2 == 0 ? 4 : 1);
    const ShardPartition again = PartitionRegions(graph, w, 4);
    ASSERT_EQ(again.members, first.members);
    ASSERT_EQ(again.shard_of, first.shard_of);
    ASSERT_EQ(again.local_of, first.local_of);
  }
}

TEST(PartitionTest, ShardAndBoundaryGraphsPreserveGeometry) {
  const RegionGraph graph = RegionGraph::Grid(4, 4, 1.0);
  const Tensor w = graph.ProximityMatrix(ProximityParams{1.0, 2.0});
  const ShardPartition partition = PartitionRegions(graph, w, 2);

  const RegionGraph sub = ShardGraph(graph, partition.members[0]);
  ASSERT_EQ(sub.size(),
            static_cast<int64_t>(partition.members[0].size()));
  for (size_t i = 0; i < partition.members[0].size(); ++i) {
    EXPECT_EQ(sub.region(static_cast<int64_t>(i)).centroid_x_km,
              graph.region(partition.members[0][i]).centroid_x_km);
  }

  const RegionGraph coarse = BoundaryGraph(graph, partition);
  EXPECT_EQ(coarse.size(), partition.num_shards());
}

// MergeUnits against a per-cell copy of the cell Locate names, with no
// model: every unit cell holds a distinct value, so a cell taken from the
// wrong unit, row or column (or a run copied one cell long or short)
// cannot match. Cities with one shard (no boundary unit), several shards
// and a 3×5 grid whose shards cut its rows short; unit tensors with and
// without the leading batch-1 axis.
TEST(PartitionTest, MergeUnitsCopiesTheCellLocateNames) {
  struct City {
    int rows, cols;
    int64_t shards;
  };
  for (const City city : {City{16, 16, 1}, City{16, 16, 2}, City{16, 16, 4},
                          City{3, 5, 4}}) {
    const RegionGraph graph = RegionGraph::Grid(city.rows, city.cols, 1.0);
    const ShardPartition partition = PartitionRegions(
        graph, graph.ProximityMatrix(ProximityParams{1.0, 2.0}), city.shards);
    const int64_t n = partition.num_regions;
    for (const int64_t k : {1, 4, 7}) {
      for (const bool batch_axis : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << city.rows << "x" << city.cols << " P=" << city.shards
                     << " k=" << k << " batch_axis=" << batch_axis);
        std::vector<Tensor> units;
        std::vector<int64_t> unit_size;
        float next = 0.0f;
        for (int64_t u = 0; u < partition.num_units(); ++u) {
          const int64_t n_u =
              u < partition.num_shards()
                  ? static_cast<int64_t>(partition.members[u].size())
                  : partition.num_shards();
          unit_size.push_back(n_u);
          units.emplace_back(batch_axis ? Shape({1, n_u, n_u, k})
                                        : Shape({n_u, n_u, k}));
          for (int64_t i = 0; i < units.back().numel(); ++i) {
            units.back().data()[i] = next++;
          }
        }
        std::vector<const Tensor*> ptrs;
        for (const Tensor& t : units) ptrs.push_back(&t);

        const Tensor merged = partition.MergeUnits(ptrs);
        ASSERT_EQ(merged.shape(), Shape({n, n, k}));
        for (int64_t o = 0; o < n; ++o) {
          for (int64_t d = 0; d < n; ++d) {
            const shard::UnitCell at = partition.Locate(o, d);
            const float* want =
                units[static_cast<size_t>(at.unit)].data() +
                (at.row * unit_size[static_cast<size_t>(at.unit)] + at.col) *
                    k;
            ASSERT_EQ(std::memcmp(merged.data() + (o * n + d) * k, want,
                                  static_cast<size_t>(k) * sizeof(float)),
                      0)
                << "origin " << o << " destination " << d;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Seeds.
// ---------------------------------------------------------------------

TEST(ShardSeedTest, DistinctPerShardAndPerMaster) {
  std::vector<uint64_t> seeds;
  for (int64_t p = -1; p < 16; ++p) seeds.push_back(ShardSeed(7, p));
  for (size_t a = 0; a < seeds.size(); ++a) {
    for (size_t b = a + 1; b < seeds.size(); ++b) {
      EXPECT_NE(seeds[a], seeds[b]);
    }
  }
  EXPECT_NE(ShardSeed(7, 0), ShardSeed(8, 0));
}

// ---------------------------------------------------------------------
// Configuration comes from code: stray ODF_* variables change nothing.
// ---------------------------------------------------------------------

TEST(ConfigDefaultsTest, LibraryDefaultsIgnoreEnvironment) {
  const char* const vars[][2] = {{"ODF_GRAPH_OP", "banana"},
                                 {"ODF_SPARSE_GRAPH", "0"},
                                 {"ODF_SHARDS", "2"},
                                 {"ODF_STREAM_CACHE", "3"},
                                 {"ODF_SERVE_MAX_BATCH", "3"}};
  for (const auto& var : vars) ::setenv(var[0], var[1], 1);

  EXPECT_EQ(AdvancedFrameworkConfig().graph_op, nn::GraphOpKind::kChebyshev);
  const ShardedModelConfig sharded;
  EXPECT_EQ(sharded.num_shards, 4);
  EXPECT_EQ(sharded.stream_cache, 16);
  EXPECT_EQ(sharded.shard_model.graph_op, nn::GraphOpKind::kChebyshev);
  EXPECT_EQ(serve::ServeConfig().max_batch, 8);

  const std::vector<Trip> trips;
  const VectorTripSource source(&trips, TimePartition(360, 1));
  EXPECT_EQ(TripOdSource(&source, SpeedHistogramSpec(4, 4.0), 2, 2)
                .cache_capacity(),
            16);

  // A 16-node ring: L̂ has 48 of 256 entries set, under the threshold.
  Tensor ring(Shape({16, 16}));
  for (int64_t i = 0; i < 16; ++i) {
    ring.At2(i, (i + 1) % 16) = 1.0f;
    ring.At2((i + 1) % 16, i) = 1.0f;
  }
  const auto op = GraphOperator::Make(ScaledLaplacian(Laplacian(ring)));
  ASSERT_LE(op->density(), GraphOperator::kSparseDensityThreshold);
  EXPECT_TRUE(op->use_sparse());

  for (const auto& var : vars) ::unsetenv(var[0]);
}

// ---------------------------------------------------------------------
// End-to-end: training, Predict, routing and merging on one table.
// ---------------------------------------------------------------------

/// A `rows`×`cols` grid city (1 km cells) with GridTrips over 8 six-hour
/// intervals, held in memory.
struct GridWorld {
  GridWorld(int rows, int cols)
      : trips(GridTrips(rows, cols, tp, /*per_interval=*/48, /*seed=*/99)),
        memory(&trips, tp),
        city(RegionGraph::Grid(rows, cols, 1.0)) {}
  GridWorld(const GridWorld&) = delete;  // `memory` points at `trips`
  GridWorld& operator=(const GridWorld&) = delete;

  TimePartition tp{360, 2};  // 8 intervals
  std::vector<Trip> trips;
  VectorTripSource memory;
  RegionGraph city;
};

/// The city forecast of `sample`, one tensor per horizon step, built cell by
/// cell from each unit's own Predict with the partition's `members`,
/// `shard_of` and `local_of` alone — independent of ShardPartition::Locate
/// and MergeUnits, which Predict and the service share.
std::vector<Tensor> ReferencePredict(ShardedModel& model, int64_t sample) {
  const ShardPartition& part = model.partition();
  const int64_t n = part.num_regions;
  const int64_t ps = part.num_shards();
  const int64_t k = model.config().spec.num_buckets();
  std::vector<std::vector<Tensor>> shard_preds;  // [1, n_p, n_p, K] per step
  for (int64_t p = 0; p < ps; ++p) {
    shard_preds.push_back(model.shard_model(p).Predict(
        model.shard_dataset(p).MakeBatch({sample})));
  }
  std::vector<Tensor> boundary_preds;  // [1, P, P, K] per step
  if (model.has_boundary()) {
    boundary_preds = model.boundary_model()->Predict(
        model.boundary_dataset()->MakeBatch({sample}));
  }

  std::vector<Tensor> out;
  for (int64_t h = 0; h < model.config().horizon; ++h) {
    const auto step = static_cast<size_t>(h);
    Tensor city(Shape({n, n, k}));
    for (int64_t o = 0; o < n; ++o) {
      for (int64_t d = 0; d < n; ++d) {
        const int64_t so = part.shard_of[static_cast<size_t>(o)];
        const int64_t sd = part.shard_of[static_cast<size_t>(d)];
        const float* cell = nullptr;
        if (so == sd) {
          const auto& members = part.members[static_cast<size_t>(so)];
          const auto np = static_cast<int64_t>(members.size());
          const int64_t lo = part.local_of[static_cast<size_t>(o)];
          const int64_t ld = part.local_of[static_cast<size_t>(d)];
          cell = shard_preds[static_cast<size_t>(so)][step].data() +
                 (lo * np + ld) * k;
        } else {
          cell = boundary_preds[step].data() + (so * ps + sd) * k;
        }
        std::copy(cell, cell + k, city.data() + (o * n + d) * k);
      }
    }
    out.push_back(std::move(city));
  }
  return out;
}

// One table drives the sharded ensemble end to end. A 4×4 city and an
// uneven 3×5 one (15 regions; history 1 and K = 2, the fewest buckets
// SpeedHistogramSpec accepts) run at P ∈ {1, 2, 4} with horizon 2. Each
// (city, P) trains on the in-memory trips and on an on-disk ODTL log of the
// same trips, each at 1 and 4 pool threads, and every one of those runs
// must:
//   - have one unit per shard plus a boundary unit exactly when P > 1;
//   - train to the same per-unit train and validation losses, and Predict
//     the same bytes, as the in-memory 1-thread run;
//   - Predict what the units' own Predict give, cell by cell
//     (ReferencePredict);
//   - serve MergedForecast(step) byte-identical to Predict at every step
//     (compiled plans reproduce Predict bit for bit), over history + 2
//     consecutive rollovers, whose units reuse the factors of their last
//     window, and one jump to the last sample;
//   - answer ForecastOd(o, d, step) with the merged cell for every pair,
//     intra- and cross-shard alike.
TEST(ShardedEndToEndTest, MatchesPredictOnEveryConfiguration) {
  PoolGuard guard;
  struct City {
    const char* name;
    int rows;
    int cols;
    int64_t history;
    int64_t buckets;
  };
  const City cities[] = {{"grid4x4", 4, 4, 2, 4},
                         {"grid3x5_h1_k2", 3, 5, 1, 2}};
  for (const City& c : cities) {
    SCOPED_TRACE(c.name);
    const GridWorld world(c.rows, c.cols);
    const std::string path =
        ::testing::TempDir() + "/shard_e2e_" + c.name + ".odtl";
    ASSERT_TRUE(WriteTripLog(world.trips, world.tp, world.city.size(), path));
    TripLogReader log;
    ASSERT_EQ(log.Open(path), TripLogStatus::kOk);
    ASSERT_EQ(log.VerifyPayload(), TripLogStatus::kOk);
    const std::pair<const char*, const TripSource*> backends[] = {
        {"memory", &world.memory}, {"odtl", &log}};

    for (const int64_t shards : {1, 2, 4}) {
      const ShardedModelConfig config =
          TinyConfig(shards, c.history, c.buckets);
      const int64_t n = world.city.size();
      const int64_t k = c.buckets;
      std::vector<TrainResult> first_results;
      std::vector<std::vector<Tensor>> first_predictions;  // per sample
      for (const auto& [backend, trips] : backends) {
        for (const int threads : {1, 4}) {
          SCOPED_TRACE(testing::Message() << "P=" << shards << " " << backend
                                          << " threads=" << threads);
          ThreadPool::Global().Resize(threads);
          ShardedModel model(world.city, trips, config);
          ASSERT_EQ(model.num_shards(), shards);
          EXPECT_EQ(model.has_boundary(), shards > 1);
          EXPECT_EQ(model.num_units(), shards + (shards > 1 ? 1 : 0));
          EXPECT_EQ(model.boundary_model() != nullptr, shards > 1);

          const std::vector<TrainResult> results = model.Train(TinyTrain());
          ASSERT_EQ(static_cast<int64_t>(results.size()), model.num_units());
          if (first_results.empty()) first_results = results;
          for (size_t u = 0; u < results.size(); ++u) {
            EXPECT_EQ(results[u].train_losses, first_results[u].train_losses)
                << "unit " << u;
            EXPECT_EQ(results[u].validation_losses,
                      first_results[u].validation_losses)
                << "unit " << u;
          }

          ShardedService service(&model);
          EXPECT_EQ(service.boundary_service() != nullptr, shards > 1);
          // Consecutive rollovers (each unit then factorizes one new
          // interval and reuses the rest of its window), then a jump.
          std::vector<int64_t> samples;
          for (int64_t s = 0; s < c.history + 2; ++s) samples.push_back(s);
          samples.push_back(model.NumSamples() - 1);
          const bool first_run = first_predictions.empty();
          for (size_t si = 0; si < samples.size(); ++si) {
            const int64_t sample = samples[si];
            SCOPED_TRACE(testing::Message() << "sample " << sample);
            const std::vector<Tensor> direct = model.Predict(sample);
            ASSERT_EQ(static_cast<int64_t>(direct.size()), config.horizon);
            if (first_run) first_predictions.push_back(direct);
            const std::vector<Tensor> reference =
                ReferencePredict(model, sample);

            service.SetCurrentInterval(sample);
            int intra = 0;
            int cross = 0;
            for (int64_t step = 0; step < config.horizon; ++step) {
              SCOPED_TRACE(testing::Message() << "step " << step);
              const auto h = static_cast<size_t>(step);
              ASSERT_EQ(direct[h].shape(), Shape({n, n, k}));
              EXPECT_TRUE(TensorBitEqual(direct[h], first_predictions[si][h]));
              EXPECT_TRUE(TensorBitEqual(direct[h], reference[h]));
              const Tensor merged = service.MergedForecast(step);
              EXPECT_TRUE(TensorBitEqual(merged, direct[h]));

              for (int64_t o = 0; o < n; ++o) {
                for (int64_t d = 0; d < n; ++d) {
                  const std::vector<float> hist =
                      service.ForecastOd(o, d, step);
                  ASSERT_EQ(hist.size(), static_cast<size_t>(k));
                  ASSERT_EQ(std::memcmp(hist.data(),
                                        merged.data() + (o * n + d) * k,
                                        hist.size() * sizeof(float)),
                            0)
                      << "pair (" << o << "," << d << ")";
                  (model.partition().SameShard(o, d) ? intra : cross) += 1;
                }
              }
            }
            EXPECT_GT(intra, 0);
            EXPECT_EQ(cross > 0, shards > 1);
          }
        }
      }
    }
  }
}

// One thread rolls the interval over and takes merged snapshots while two
// others read ForecastOd. Each snapshot starts every unit's cold plan at
// once; the reads meet caches mid-rollover and start cold forecasts of
// their own. Every snapshot must equal Predict byte for byte, and every
// read the same cell of some sample's Predict. Run at ODF_THREADS=4 under
// TSan, this puts concurrent unit plans under the race detector.
TEST(ShardedEndToEndTest, ConcurrentRolloverMatchesPredict) {
  const GridWorld world(4, 4);
  ShardedModel model(world.city, &world.memory, TinyConfig(4));
  model.Train(TinyTrain());
  ShardedService service(&model);
  const int64_t n = world.city.size();
  const int64_t k = model.config().spec.num_buckets();
  const int64_t horizon = model.config().horizon;
  std::vector<std::vector<Tensor>> predictions;  // per sample
  for (int64_t s = 0; s < model.NumSamples(); ++s) {
    predictions.push_back(model.Predict(s));
  }

  std::atomic<bool> done{false};
  std::atomic<int> bad_reads{0};
  const auto reader = [&](int64_t cell) {
    do {
      cell = (cell * 7 + 3) % (n * n * horizon);
      const int64_t step = cell / (n * n);
      const int64_t pair = cell % (n * n);
      const std::vector<float> hist =
          service.ForecastOd(pair / n, pair % n, step);
      const bool known = std::any_of(
          predictions.begin(), predictions.end(),
          [&](const std::vector<Tensor>& p) {
            return std::memcmp(hist.data(),
                               p[static_cast<size_t>(step)].data() + pair * k,
                               hist.size() * sizeof(float)) == 0;
          });
      if (!known) bad_reads.fetch_add(1);
    } while (!done.load());
  };
  std::thread first_reader(reader, 1);
  std::thread second_reader(reader, 2);
  for (int round = 0; round < 3; ++round) {
    for (int64_t s = 0; s < model.NumSamples(); ++s) {
      service.SetCurrentInterval(s);
      for (int64_t step = 0; step < horizon; ++step) {
        EXPECT_TRUE(TensorBitEqual(service.MergedForecast(step),
                                   predictions[static_cast<size_t>(s)]
                                              [static_cast<size_t>(step)]))
            << "round " << round << " sample " << s << " step " << step;
      }
    }
  }
  done.store(true);
  first_reader.join();
  second_reader.join();
  EXPECT_EQ(bad_reads.load(), 0);
}

// A client `step` outside [0, horizon) is rejected before any forecast is
// read, on the per-pair and the merged path alike.
TEST(ShardedEndToEndTest, StepOutsideHorizonIsRejected) {
  // The service runs worker threads: re-execute the binary per death test.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const GridWorld world(4, 4);
  ShardedModel model(world.city, &world.memory, TinyConfig(4));
  ShardedService service(&model);
  service.SetCurrentInterval(1);
  const int64_t horizon = model.config().horizon;
  for (const int64_t step : {int64_t{-1}, horizon}) {
    SCOPED_TRACE("step " + std::to_string(step));
    EXPECT_DEATH(service.ForecastOd(0, 1, step), "CHECK\\(step");
    EXPECT_DEATH(service.MergedForecast(step), "CHECK\\(step");
  }
}

}  // namespace
}  // namespace odf
