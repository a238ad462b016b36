// Tests for the tape-free compiled inference path and the micro-batching
// serving front-end (docs/serving.md).
//
// The central contract: ForwardPlan::Run reproduces the tape-based
// Predict bit-for-bit — same kernels, same order, same operands — on a
// really trained, checkpoint-round-tripped model, at any thread count,
// for the paper AF, every ablation variant, and BF with and without
// attention. On top of that: the fused recovery kernel matches the
// composed reference and stays finite and normalized on edge inputs,
// independently built models share memoized graph operators, the interval
// cache invalidates exactly on rollover, and the service survives
// concurrent hammering (run under TSan in CI).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "core/advanced_framework.h"
#include "core/basic_framework.h"
#include "core/recovery.h"
#include "core/trainer.h"
#include "graph/laplacian.h"
#include "nn/serialize.h"
#include "serve/forward_plan.h"
#include "serve/service.h"
#include "sim/scenario.h"
#include "sim/trip_generator.h"
#include "tensor/fast_math.h"
#include "tensor/tensor_ops.h"
#include "util/thread_pool.h"

#include "pool_guard.h"

namespace odf {
namespace {

namespace ag = odf::autograd;

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Small deterministic world shared by the serving tests.
struct TestWorld {
  DatasetSpec spec;
  OdTensorSeries series;
  ForecastDataset dataset;
  ForecastDataset::Split split;

  /// A `rows` × `cols` grid city (`cols` 0 = square).
  static TestWorld Make(int64_t history = 3, int64_t horizon = 2,
                        int rows = 3, int cols = 0) {
    DatasetSpec spec = MakeNycLike(rows, cols > 0 ? cols : rows,
                                   /*num_days=*/4, /*interval_minutes=*/60);
    spec.config.mean_trips_per_interval = 120;
    TripGenerator gen(spec.graph, spec.config);
    OdTensorSeries series = BuildOdTensorSeries(
        gen.Generate(),
        TimePartition(spec.config.interval_minutes, spec.config.num_days),
        spec.graph.size(), spec.graph.size(), SpeedHistogramSpec::Paper());
    return TestWorld(std::move(spec), std::move(series), history, horizon);
  }

  TestWorld(DatasetSpec s, OdTensorSeries ser, int64_t history,
            int64_t horizon)
      : spec(std::move(s)),
        series(std::move(ser)),
        dataset(&series, history, horizon),
        split(dataset.ChronologicalSplit(0.7, 0.1)) {}
};

// Runs `model`'s tape forward and the compiled plan on the same batch and
// asserts bit-identical predictions at every horizon step.
template <typename Model>
void ExpectPlanMatchesTape(Model& model, serve::ForwardPlan& plan,
                           const Batch& batch) {
  const std::vector<Tensor> tape = model.Predict(batch);
  plan.Run(batch.inputs);
  ASSERT_EQ(static_cast<int64_t>(tape.size()), plan.horizon());
  for (size_t j = 0; j < tape.size(); ++j) {
    EXPECT_TRUE(BitIdentical(tape[j], plan.output(static_cast<int64_t>(j))))
        << "horizon step " << j << " diverged from the tape";
  }
}

// Runs `plan` on samples `ids` as one batch, then on each sample alone, and
// asserts that every row of the batched run equals that sample's batch-1
// run bit for bit: the plan's flattened products must not depend on how
// many samples share a batch.
void ExpectBatchRowsMatchSingles(serve::ForwardPlan& plan,
                                 const ForecastDataset& dataset,
                                 const std::vector<int64_t>& ids) {
  plan.Run(dataset.MakeBatch(ids).inputs);
  std::vector<Tensor> batched;
  for (int64_t j = 0; j < plan.horizon(); ++j) {
    batched.push_back(plan.output(j));
  }
  for (size_t row = 0; row < ids.size(); ++row) {
    plan.Run(dataset.MakeBatch({ids[row]}).inputs);
    for (int64_t j = 0; j < plan.horizon(); ++j) {
      const Tensor& single = plan.output(j);
      const float* got = batched[static_cast<size_t>(j)].data() +
                         static_cast<int64_t>(row) * single.numel();
      EXPECT_EQ(std::memcmp(got, single.data(),
                            static_cast<size_t>(single.numel()) *
                                sizeof(float)),
                0)
          << "sample " << ids[row] << " horizon step " << j
          << " differs between batch " << ids.size() << " and batch 1";
    }
  }
}

// ---------------------------------------------------------------------
// Fused recovery kernel (satellite: one batched softmax_K(R⊗C) kernel).
// ---------------------------------------------------------------------

TEST(FusedRecoverTest, MatchesComposedReference) {
  Rng rng(7);
  const Tensor r = Tensor::RandomNormal(Shape({2, 3, 2, 5}), rng, 0.0f, 0.7f);
  const Tensor c = Tensor::RandomNormal(Shape({2, 2, 4, 5}), rng, 0.0f, 0.7f);
  for (float tau : {1.0f, 0.5f, 1.7f}) {
    const ag::Var temperature = ag::Var::Constant(Tensor::Scalar(tau));
    const Tensor fused =
        ag::FusedRecover(ag::Var::Constant(r), ag::Var::Constant(c),
                         temperature)
            .value();
    const Tensor composed =
        ag::SoftmaxLastDim(
            ag::Mul(FactorProduct(ag::Var::Constant(r), ag::Var::Constant(c)),
                    temperature))
            .value();
    ASSERT_EQ(fused.shape(), composed.shape());
    for (int64_t i = 0; i < fused.numel(); ++i) {
      ASSERT_NEAR(fused[i], composed[i], 1e-6f)
          << "tau=" << tau << " element " << i;
    }
  }
}

TEST(FusedRecoverTest, GradCheckIncludingTemperature) {
  Rng rng(13);
  std::vector<ag::Var> inputs = {
      ag::Var(Tensor::RandomNormal(Shape({1, 2, 2, 3}), rng, 0.0f, 0.5f),
              true),
      ag::Var(Tensor::RandomNormal(Shape({1, 2, 2, 3}), rng, 0.0f, 0.5f),
              true),
      ag::Var(Tensor::Scalar(1.3f), true)};
  auto fn = [](const std::vector<ag::Var>& in) {
    return ag::SumAll(ag::Square(ag::FusedRecover(in[0], in[1], in[2])));
  };
  auto result = ag::GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << result.max_abs_error;
}

// softmax_K(τ·R⊗C) one (b, o, d) cell at a time, in float, with the per-
// element operations FusedRecover documents: acc += r·c over beta in
// ascending order, times τ, the max over k, FastExp(q − max), the total
// over k in ascending order, 1 / total, and one multiply.
Tensor PerCellRecoverReference(const Tensor& r, const Tensor& c, float tau) {
  const int64_t b = r.dim(0), n = r.dim(1), beta = r.dim(2), k = r.dim(3);
  const int64_t m = c.dim(2);
  Tensor out(Shape({b, n, m, k}));
  std::vector<float> q(static_cast<size_t>(k));
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t o = 0; o < n; ++o) {
      for (int64_t d = 0; d < m; ++d) {
        for (int64_t j = 0; j < k; ++j) {
          float acc = 0.0f;
          for (int64_t be = 0; be < beta; ++be) {
            acc += r[((bi * n + o) * beta + be) * k + j] *
                   c[((bi * beta + be) * m + d) * k + j];
          }
          q[static_cast<size_t>(j)] = acc * tau;
        }
        float max_v = q[0];
        for (int64_t j = 1; j < k; ++j) {
          max_v = std::max(max_v, q[static_cast<size_t>(j)]);
        }
        float total = 0.0f;
        for (float& v : q) total += (v = FastExp(v - max_v));
        const float inv = 1.0f / total;
        float* cell = out.data() + ((bi * n + o) * m + d) * k;
        for (int64_t j = 0; j < k; ++j) {
          cell[j] = q[static_cast<size_t>(j)] * inv;
        }
      }
    }
  }
  return out;
}

// Small signed integers times `scale`, a fixed non-random pattern.
void FillPattern(Tensor* t, float scale, int shift) {
  for (int64_t i = 0; i < t->numel(); ++i) {
    t->data()[i] =
        scale *
        static_cast<float>(static_cast<int>((i * 13 + shift) % 23) - 11);
  }
}

// The kernel the compiled plan calls, on edge inputs: FusedRecoverInto over
// a preallocated buffer and the tape's allocating FusedRecover must both
// equal the per-cell float reference bit for bit, stay within float
// rounding of a double-accumulated naive softmax_K(τ·R⊗C), and keep every
// row finite and normalized.
TEST(FusedRecoverTest, RawKernelEdgeInputs) {
  struct Case {
    const char* name;
    int64_t b, n, m, beta, k;
    float r_scale, c_scale, tau;
    int r_shift, c_shift;
    double tol;  // against the naive reference
  };
  const Case cases[] = {
      {"general", 2, 3, 4, 2, 5, 0.11f, 0.07f, 1.3f, 3, 9, 2e-6},
      // All-zero factors -> all-zero logits -> exactly uniform rows.
      {"zero-mass", 1, 2, 3, 2, 7, 0.0f, 0.0f, 1.0f, 0, 0, 1e-6},
      // Softmax over one bucket is exactly 1 at any logit magnitude.
      {"single-bucket", 1, 2, 2, 3, 1, 5.0f, 5.0f, 2.0f, 1, 4, 0.0},
      // |logit| up to ~2e4: raw exp overflows, max-subtraction must not.
      {"large-logits", 1, 2, 2, 1, 4, 9.0f, 9.0f, 2.0f, 2, 5, 2e-6},
      {"b2-n3-m4", 2, 3, 4, 2, 5, 0.4f, 0.3f, 1.1f, 7, 2, 2e-6},
      {"b1-n2-m2-k1", 1, 2, 2, 3, 1, 0.4f, 0.3f, 1.1f, 7, 2, 0.0},
      {"b1-n16-m16", 1, 16, 16, 4, 7, 0.4f, 0.3f, 1.1f, 7, 2, 2e-6},
  };
  for (const Case& cs : cases) {
    SCOPED_TRACE(cs.name);
    const int64_t b = cs.b, n = cs.n, m = cs.m, beta = cs.beta, k = cs.k;
    Tensor r(Shape({b, n, beta, k}));
    Tensor c(Shape({b, beta, m, k}));
    FillPattern(&r, cs.r_scale, cs.r_shift);
    FillPattern(&c, cs.c_scale, cs.c_shift);
    const Tensor want = PerCellRecoverReference(r, c, cs.tau);
    Tensor got(Shape({b, n, m, k}));
    FusedRecoverInto(r, c, cs.tau, &got);
    ASSERT_TRUE(BitIdentical(got, want));
    ASSERT_TRUE(BitIdentical(FusedRecover(r, c, cs.tau), want));

    std::vector<double> logits(static_cast<size_t>(k));
    for (int64_t cell = 0; cell < b * n * m; ++cell) {
      const int64_t bi = cell / (n * m);
      const int64_t o = cell / m % n;
      const int64_t d = cell % m;
      for (int64_t j = 0; j < k; ++j) {
        double acc = 0.0;
        for (int64_t be = 0; be < beta; ++be) {
          acc += static_cast<double>(r[((bi * n + o) * beta + be) * k + j]) *
                 c[((bi * beta + be) * m + d) * k + j];
        }
        logits[static_cast<size_t>(j)] = cs.tau * acc;
      }
      const double mx = *std::max_element(logits.begin(), logits.end());
      double total = 0.0;
      for (double& v : logits) total += (v = std::exp(v - mx));
      double sum = 0.0;
      for (int64_t j = 0; j < k; ++j) {
        const float v = got[cell * k + j];
        ASSERT_TRUE(std::isfinite(v)) << "cell " << cell << " bucket " << j;
        ASSERT_NEAR(v, logits[static_cast<size_t>(j)] / total, cs.tol)
            << "cell " << cell << " bucket " << j;
        sum += v;
      }
      ASSERT_NEAR(sum, 1.0, 1e-5) << "cell " << cell;
    }
  }
}

// The register-blocked kernel against the per-cell reference across the
// shapes its blocks depend on: k at the compile-time depths (4, 7) and the
// runtime one (1, 16, 17); m of one cell, a row shorter than one 16-cell
// block (5, 15), one block (16), a block plus one cell (17), two blocks
// plus one (33) and four blocks (64); beta from one term to the shard
// model's 32; and 3 or 64 origin rows, at pool sizes 1 and 4, so the row
// range splits across threads where the work allows.
TEST(FusedRecoverTest, MatchesPerCellReferenceOnShapeGrid) {
  PoolGuard guard;
  for (const int threads : {1, 4}) {
    ThreadPool::Global().Resize(threads);
    PoolCounts counts;
    for (const int64_t k : {1, 4, 7, 16, 17}) {
      for (const int64_t m : {1, 5, 15, 16, 17, 33, 64}) {
        for (const int64_t beta : {1, 3, 32}) {
          for (const int64_t b : {1, 2}) {
            for (const int64_t n : {3, 64}) {
              SCOPED_TRACE(::testing::Message()
                           << "threads=" << threads << " k=" << k
                           << " m=" << m << " beta=" << beta << " b=" << b
                           << " n=" << n);
              Tensor r(Shape({b, n, beta, k}));
              Tensor c(Shape({b, beta, m, k}));
              FillPattern(&r, 0.13f, 5);
              FillPattern(&c, 0.09f, 8);
              Tensor got(Shape({b, n, m, k}));
              FusedRecoverInto(r, c, 1.7f, &got);
              ASSERT_TRUE(
                  BitIdentical(got, PerCellRecoverReference(r, c, 1.7f)));
            }
          }
        }
      }
    }
    if (threads > 1) {
      EXPECT_GT(counts.parallel_fors(), 0u);
    }
  }
}

// ---------------------------------------------------------------------
// Plan vs tape bit-identity.
// ---------------------------------------------------------------------

TEST(ForwardPlanTest, MatchesTrainedCheckpointedAfAtEveryThreadCount) {
  PoolGuard guard;
  TestWorld world = TestWorld::Make();
  AdvancedFrameworkConfig config;
  AdvancedFramework model(world.spec.graph, world.spec.graph, 7,
                          /*horizon=*/2, config);

  TrainConfig train;
  train.epochs = 2;
  train.batch_size = 8;
  train.learning_rate = 5e-3f;
  TrainForecaster(model, world.dataset, world.split, train);

  const std::string path =
      ::testing::TempDir() + "/serving_af_checkpoint.bin";
  ASSERT_TRUE(nn::SaveParameters(model, path));

  // Serve from a freshly constructed model that loaded the checkpoint —
  // the production flow the plan is built for.
  AdvancedFramework served(world.spec.graph, world.spec.graph, 7, 2, config);
  ASSERT_TRUE(nn::LoadParametersChecked(served, path).ok());

  serve::ForwardPlan plan =
      serve::PlanCompiler::Compile(served, world.dataset.history());
  EXPECT_GT(plan.num_instructions(), 0);

  for (int threads : {1, 4}) {
    ThreadPool::Global().Resize(threads);
    Batch batch = world.dataset.MakeBatch({0, 3, 5});
    ExpectPlanMatchesTape(served, plan, batch);
    // A second run through the (batch-stable) arena must stay identical.
    ExpectPlanMatchesTape(served, plan, batch);
    // And a different batch size forces an arena reallocation.
    Batch single = world.dataset.MakeBatch({4});
    ExpectPlanMatchesTape(served, plan, single);
  }
}

// One table drives plan-vs-tape parity: every AF operator family, each
// ablation, a two-layer CNRNN, dense and CSR graph paths, BF with and
// without attention, and the edge shapes: a one-step history, a one-region
// city and a non-square city. Every row runs at batch 1, 3 and 8 on 1 and 4
// pool threads, so each arena reallocation is covered too, and each row's
// batch-8 run must equal its eight batch-1 runs.
TEST(ForwardPlanTest, MatchesTapeOnEveryConfiguration) {
  PoolGuard guard;
  TestWorld world = TestWorld::Make();
  // L̂ density picks each graph operator's kernel (tensor/csr.h). The 3×3
  // city is dense at every pooling level even with only adjacent regions
  // linked; a 7×7 city linked that way stays under the threshold at both.
  TestWorld sparse_city = TestWorld::Make(3, 2, /*rows=*/7);
  TestWorld one_step = TestWorld::Make(/*history=*/1);
  // One region: every pooling level keeps its single node and λ_max is
  // degenerate (graph/laplacian.h logs a warning and falls back).
  TestWorld one_region = TestWorld::Make(3, 2, /*rows=*/1);
  TestWorld wide = TestWorld::Make(3, 2, /*rows=*/5, /*cols=*/3);
  std::vector<Tensor> counts;
  for (int64_t t = 0; t < world.series.NumIntervals(); ++t) {
    counts.push_back(world.series.at(t).counts());
  }
  struct Row {
    const char* name;
    std::function<void(AdvancedFrameworkConfig&)> edit;
    int use_sparse = -1;  // every plan graph operator's path; -1 = either
    bool bf = false;
    bool attention = false;
    const TestWorld* city = nullptr;  // null = the 3×3 world
  };
  using C = AdvancedFrameworkConfig;
  const Row rows[] = {
      {"cheb", [](C& c) { c.graph_op = nn::GraphOpKind::kChebyshev; }},
      {"cheb_corr",
       [&](C& c) {
         c.graph_op = nn::GraphOpKind::kChebyshev;
         c.origin_demand_correlation =
             DemandCorrelationGraph(counts, true, 0.3f);
         c.destination_demand_correlation =
             DemandCorrelationGraph(counts, false, 0.3f);
       }},
      {"diffusion", [](C& c) { c.graph_op = nn::GraphOpKind::kDiffusion; }},
      {"adaptive",
       [](C& c) {
         c.graph_op = nn::GraphOpKind::kAdaptive;
         c.adaptive_embed_dim = 4;
       }},
      {"fc_factorization", [](C& c) { c.use_graph_factorization = false; }},
      {"gru_forecasting", [](C& c) { c.use_gcgru = false; }},
      {"max_pooling", [](C& c) { c.pool_kind = nn::PoolKind::kMax; }},
      {"id_ordered_pooling", [](C& c) { c.use_cluster_pooling = false; }},
      {"bf_style_af",
       [](C& c) {
         c.use_graph_factorization = false;
         c.use_gcgru = false;
       }},
      {"gcgru_layers_2", [](C& c) { c.gcgru_layers = 2; }},
      // Every region pair linked: L̂ is fully dense.
      {"dense_graph", [](C& c) { c.proximity = ProximityParams{1.0, 4.0}; },
       /*use_sparse=*/0},
      // Adjacent regions only (0.8 km cells).
      {"csr_graph", [](C& c) { c.proximity = ProximityParams{1.0, 0.9}; },
       /*use_sparse=*/1},
      {"bf", nullptr, -1, /*bf=*/true},
      {"bf_attention", nullptr, -1, /*bf=*/true, /*attention=*/true},
      {"history_1", nullptr, -1, false, false, &one_step},
      {"bf_history_1", nullptr, -1, /*bf=*/true, false, &one_step},
      {"one_region", nullptr, -1, false, false, &one_region},
      {"bf_one_region", nullptr, -1, /*bf=*/true, false, &one_region},
      {"grid_5x3", nullptr, -1, false, false, &wide},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    const TestWorld& city = row.city != nullptr ? *row.city
                            : row.use_sparse == 1 ? sparse_city
                                                  : world;
    const int64_t regions = city.spec.graph.size();
    std::unique_ptr<FactorizedForecaster> model;
    if (row.bf) {
      BasicFrameworkConfig config;
      config.rank = 3;
      config.use_attention = row.attention;
      model = std::make_unique<BasicFramework>(regions, regions, 7, 2, config);
    } else {
      AdvancedFrameworkConfig config;
      if (row.edit) row.edit(config);
      model = std::make_unique<AdvancedFramework>(
          city.spec.graph, city.spec.graph, 7, 2, config);
    }
    serve::ForwardPlan plan =
        serve::PlanCompiler::Compile(*model, city.dataset.history());
    if (row.use_sparse >= 0) {
      ASSERT_FALSE(plan.graph_operators().empty());
      for (const auto& op : plan.graph_operators()) {
        EXPECT_EQ(op->use_sparse(), row.use_sparse == 1)
            << op->nodes() << " nodes, density " << op->density();
      }
    }
    for (const std::vector<int64_t>& ids :
         {std::vector<int64_t>{4}, {0, 3, 5}, {1, 2, 6, 7, 9, 11, 13, 17}}) {
      const Batch batch = city.dataset.MakeBatch(ids);
      for (int threads : {1, 4}) {
        SCOPED_TRACE(testing::Message() << "batch=" << ids.size()
                                        << " threads=" << threads);
        ThreadPool::Global().Resize(threads);
        ExpectPlanMatchesTape(*model, plan, batch);
      }
    }
    ExpectBatchRowsMatchSingles(plan, city.dataset,
                                {1, 2, 6, 7, 9, 11, 13, 17});
  }
}

// A plan owns everything it reads: graph operators, pooling cluster tables
// and parameter snapshots. Destroying the model it was compiled from must
// not change a single output bit.
TEST(ForwardPlanTest, OutlivesItsModel) {
  TestWorld world = TestWorld::Make();
  const Batch batch = world.dataset.MakeBatch({0, 3, 5});
  auto model = std::make_unique<AdvancedFramework>(
      world.spec.graph, world.spec.graph, 7, 2, AdvancedFrameworkConfig{});
  serve::ForwardPlan plan =
      serve::PlanCompiler::Compile(*model, world.dataset.history());
  const std::vector<Tensor> tape = model->Predict(batch);
  model.reset();
  plan.Run(batch.inputs);
  ASSERT_EQ(static_cast<int64_t>(tape.size()), plan.horizon());
  for (size_t j = 0; j < tape.size(); ++j) {
    EXPECT_TRUE(BitIdentical(tape[j], plan.output(static_cast<int64_t>(j))))
        << "horizon step " << j;
  }
}

// Each stage's arena is allocated at the largest batch it has run and
// re-viewed for smaller ones: Runs at batch 8, 3, 8 and 1 all equal the tape,
// and after the first Run at 8 no arena buffer moves or grows.
TEST(ForwardPlanTest, ArenaGrowsOnlyAndReviewsPrefixes) {
  TestWorld world = TestWorld::Make();
  AdvancedFramework model(world.spec.graph, world.spec.graph, 7, 2,
                          AdvancedFrameworkConfig{});
  serve::ForwardPlan plan =
      serve::PlanCompiler::Compile(model, world.dataset.history());
  const std::vector<int64_t> eight = {1, 2, 6, 7, 9, 11, 13, 17};
  ExpectPlanMatchesTape(model, plan, world.dataset.MakeBatch(eight));
  const int64_t bytes = plan.arena_bytes();
  EXPECT_GT(bytes, 0);
  auto buffers = [&] {
    std::vector<const float*> data;
    for (int side = 0; side < 2; ++side) {
      data.push_back(plan.factors(side).data());
    }
    for (int64_t j = 0; j < plan.horizon(); ++j) {
      data.push_back(plan.output(j).data());
    }
    return data;
  };
  const std::vector<const float*> at_eight = buffers();
  for (const std::vector<int64_t>& ids :
       {std::vector<int64_t>{0, 3, 5}, eight, {4}}) {
    SCOPED_TRACE(testing::Message() << "batch " << ids.size());
    ExpectPlanMatchesTape(model, plan, world.dataset.MakeBatch(ids));
    EXPECT_EQ(plan.arena_bytes(), bytes);
    EXPECT_EQ(buffers(), at_eight);
  }
}

// With metrics on, one Run times each OpKind it executes once
// (serve.plan.op.<kind>_seconds), and the per-kind totals add up to no
// more than the Run's own time. With metrics off it records nothing.
TEST(ForwardPlanTest, ProfilesEveryOpKindItRuns) {
  TestWorld world = TestWorld::Make();
  AdvancedFramework model(world.spec.graph, world.spec.graph, 7, 2,
                          AdvancedFrameworkConfig{});
  serve::ForwardPlan plan =
      serve::PlanCompiler::Compile(model, world.dataset.history());
  const Batch batch = world.dataset.MakeBatch({0, 3});
  MetricsRegistry& registry = MetricsRegistry::Global();
  Histogram& run = registry.GetHistogram("serve.plan.run_seconds");
  std::vector<Histogram*> kinds;
  for (int k = 0; k < serve::kNumOpKinds; ++k) {
    kinds.push_back(&registry.GetHistogram(
        std::string("serve.plan.op.") +
        serve::OpKindName(static_cast<serve::OpKind>(k)) + "_seconds"));
    kinds.back()->Reset();
  }
  run.Reset();

  const bool metrics_were_on = MetricsEnabled();
  SetMetricsEnabled(false);
  plan.Run(batch.inputs);
  EXPECT_EQ(run.count(), 0u);
  for (const Histogram* h : kinds) EXPECT_EQ(h->count(), 0u);
  SetMetricsEnabled(true);
  plan.Run(batch.inputs);
  SetMetricsEnabled(metrics_were_on);

  ASSERT_EQ(run.count(), 1u);
  // Kinds every AF plan runs: its inputs, the factorization stage's bases,
  // pooling and GEMMs, and the recovery.
  for (serve::OpKind kind :
       {serve::OpKind::kLoadInput, serve::OpKind::kChebBasis,
        serve::OpKind::kGraphPool, serve::OpKind::kBatchMatMul,
        serve::OpKind::kRecover}) {
    SCOPED_TRACE(serve::OpKindName(kind));
    EXPECT_EQ(kinds[static_cast<size_t>(kind)]->count(), 1u);
  }
  uint64_t total = 0;
  for (int k = 0; k < serve::kNumOpKinds; ++k) {
    SCOPED_TRACE(serve::OpKindName(static_cast<serve::OpKind>(k)));
    EXPECT_LE(kinds[static_cast<size_t>(k)]->count(), 1u);
    total += kinds[static_cast<size_t>(k)]->sum_nanos();
  }
  EXPECT_GT(total, 0u);
  EXPECT_LE(total, run.sum_nanos());
}

// ---------------------------------------------------------------------
// Memoized graph operators (satellite: λ_max / L̂ caching).
// ---------------------------------------------------------------------

TEST(ForwardPlanTest, IndependentlyBuiltModelsShareGraphOperators) {
  TestWorld world = TestWorld::Make();
  ClearScaledLaplacianOperatorCache();
  AdvancedFrameworkConfig config;
  AdvancedFramework first(world.spec.graph, world.spec.graph, 7, 2, config);
  const uint64_t misses_after_first = ScaledLaplacianOperatorCacheMisses();
  const uint64_t hits_before = ScaledLaplacianOperatorCacheHits();
  // The checkpoint-reload flow: same graphs, fresh model object.
  AdvancedFramework second(world.spec.graph, world.spec.graph, 7, 2, config);
  EXPECT_EQ(ScaledLaplacianOperatorCacheMisses(), misses_after_first)
      << "rebuilding the model must not re-run the power iteration";
  EXPECT_GT(ScaledLaplacianOperatorCacheHits(), hits_before);

  serve::ForwardPlan plan_first =
      serve::PlanCompiler::Compile(first, world.dataset.history());
  serve::ForwardPlan plan_second =
      serve::PlanCompiler::Compile(second, world.dataset.history());
  ASSERT_FALSE(plan_first.graph_operators().empty());
  ASSERT_EQ(plan_first.graph_operators().size(),
            plan_second.graph_operators().size());
  for (size_t i = 0; i < plan_first.graph_operators().size(); ++i) {
    EXPECT_EQ(plan_first.graph_operators()[i].get(),
              plan_second.graph_operators()[i].get())
        << "operator " << i << " was duplicated instead of shared";
  }
  // Within one model, all cells on one graph share a single operator:
  // r-side and c-side each contribute exactly one.
  EXPECT_LE(plan_first.graph_operators().size(), 2u);
}

// ---------------------------------------------------------------------
// Serving front-end.
// ---------------------------------------------------------------------

std::unique_ptr<serve::ForecastService> MakeService(
    const TestWorld& world, const AdvancedFramework& model,
    serve::ServeConfig config) {
  return std::make_unique<serve::ForecastService>(
      &world.dataset,
      serve::PlanCompiler::Compile(model, world.dataset.history()), config);
}

// Asserts that `result`, one sample's served forecast, equals that sample's
// tape forecast `tape` (batch 1) bit for bit at every horizon step.
void ExpectResultMatchesTape(const serve::ForecastResult& result,
                             const std::vector<Tensor>& tape) {
  ASSERT_EQ(result->size(), tape.size());
  for (size_t j = 0; j < tape.size(); ++j) {
    ASSERT_EQ((*result)[j].numel(), tape[j].numel());
    EXPECT_EQ(std::memcmp((*result)[j].data(), tape[j].data(),
                          static_cast<size_t>(tape[j].numel()) *
                              sizeof(float)),
              0)
        << "horizon step " << j;
  }
}

// The distinct intervals of `samples`' windows that are not in `held`.
std::vector<int64_t> MissingIntervals(const ForecastDataset& dataset,
                                      const std::vector<int64_t>& samples,
                                      const std::vector<int64_t>& held) {
  std::vector<int64_t> missing;
  for (int64_t sample : samples) {
    const int64_t last = dataset.AnchorInterval(sample);
    for (int64_t t = last - dataset.history() + 1; t <= last; ++t) {
      if (std::find(held.begin(), held.end(), t) == held.end() &&
          std::find(missing.begin(), missing.end(), t) == missing.end()) {
        missing.push_back(t);
      }
    }
  }
  return missing;
}

// Serving factorizes each interval once. One table over AF (Chebyshev and
// diffusion), BF and a one-step history, each row:
//   - rolls a service's current sample forward one step at a time: every
//     forecast equals the tape, the first rollover factorizes the whole
//     window, and each later one misses exactly its one new interval, hits
//     the other history - 1, and runs stage F once, at batch 1;
//   - runs one batch of max_batch consecutive samples, and a random batch
//     holding a duplicate, cold and then warm: every row equals the tape,
//     and a batch's misses are exactly its distinct intervals outside the
//     kept window.
TEST(ServingPlanTest, FactorizesEachIntervalOnce) {
  TestWorld world = TestWorld::Make();
  TestWorld one_step = TestWorld::Make(/*history=*/1);
  struct Row {
    const char* name;
    nn::GraphOpKind graph_op = nn::GraphOpKind::kChebyshev;
    bool bf = false;
    const TestWorld* city = nullptr;  // null = the 3×3 world, history 3
  };
  const Row rows[] = {
      {"af_cheb"},
      {"af_diffusion", nn::GraphOpKind::kDiffusion},
      {"bf", nn::GraphOpKind::kChebyshev, /*bf=*/true},
      {"af_history_1", nn::GraphOpKind::kChebyshev, false, &one_step},
  };
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& hits = registry.GetCounter("serve.factor_cache_hits");
  Counter& misses = registry.GetCounter("serve.factor_cache_misses");
  Histogram& factorize = registry.GetHistogram("serve.plan.factorize_seconds");
  const bool metrics_were_on = MetricsEnabled();
  SetMetricsEnabled(true);
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    const TestWorld& city = row.city != nullptr ? *row.city : world;
    const ForecastDataset& dataset = city.dataset;
    const int64_t history = dataset.history();
    const int64_t regions = city.spec.graph.size();
    std::unique_ptr<FactorizedForecaster> model;
    if (row.bf) {
      model = std::make_unique<BasicFramework>(regions, regions, 7, 2,
                                               BasicFrameworkConfig{});
    } else {
      AdvancedFrameworkConfig config;
      config.graph_op = row.graph_op;
      model = std::make_unique<AdvancedFramework>(
          city.spec.graph, city.spec.graph, 7, 2, config);
    }
    auto tape = [&](const std::vector<int64_t>& samples) {
      return model->Predict(dataset.MakeBatch(samples));
    };

    // Consecutive rollovers through the service.
    {
      serve::ForecastService service(
          &dataset, serve::PlanCompiler::Compile(*model, history));
      for (int64_t sample = 3; sample < history + 6; ++sample) {
        SCOPED_TRACE(testing::Message() << "rollover to sample " << sample);
        const uint64_t hits0 = hits.value();
        const uint64_t misses0 = misses.value();
        const uint64_t runs0 = factorize.count();
        service.SetCurrentInterval(sample);
        ExpectResultMatchesTape(service.ForecastCurrent(), tape({sample}));
        const bool cold = sample == 3;
        EXPECT_EQ(misses.value() - misses0,
                  static_cast<uint64_t>(cold ? history : 1));
        EXPECT_EQ(hits.value() - hits0,
                  static_cast<uint64_t>(cold ? 0 : history - 1));
        // Stage F runs one interval at a time here: no batch has held more
        // than one sample.
        EXPECT_EQ(factorize.count() - runs0,
                  static_cast<uint64_t>(cold ? history : 1));
      }
    }

    // Batches of samples, cold and then warm.
    const int64_t max_batch = serve::ServeConfig{}.max_batch;
    std::vector<int64_t> consecutive;
    for (int64_t i = 0; i < max_batch; ++i) consecutive.push_back(20 + i);
    const std::vector<int64_t> duplicate = {41, 7, 30, 7, 12};
    for (const std::vector<int64_t>& samples : {consecutive, duplicate}) {
      SCOPED_TRACE(testing::Message() << "batch of " << samples.size());
      const std::vector<Tensor> want = tape(samples);
      serve::ServingPlan served(
          &dataset, serve::PlanCompiler::Compile(*model, history), max_batch);
      // Warm, it holds the window of the batch's second sample.
      const int64_t kept = samples[1];
      std::vector<int64_t> window;
      for (int64_t t = kept; t < kept + history; ++t) window.push_back(t);
      for (const bool warm : {false, true}) {
        SCOPED_TRACE(warm ? "warm" : "cold");
        const uint64_t hits0 = hits.value();
        const uint64_t misses0 = misses.value();
        served.Run(samples);
        const uint64_t distinct =
            MissingIntervals(dataset, samples, {}).size();
        const uint64_t missed =
            MissingIntervals(dataset, samples,
                             warm ? window : std::vector<int64_t>{})
                .size();
        EXPECT_EQ(misses.value() - misses0, missed);
        EXPECT_EQ(hits.value() - hits0, distinct - missed);
        for (size_t j = 0; j < want.size(); ++j) {
          EXPECT_TRUE(BitIdentical(want[j],
                                   served.output(static_cast<int64_t>(j))))
              << "horizon step " << j;
        }
        served.KeepWindow(kept);
      }
    }
  }
  SetMetricsEnabled(metrics_were_on);
}

TEST(ForecastServiceTest, SingleQueryMatchesTapePredict) {
  TestWorld world = TestWorld::Make();
  AdvancedFrameworkConfig config;
  AdvancedFramework model(world.spec.graph, world.spec.graph, 7, 2, config);
  auto service = MakeService(world, model, serve::ServeConfig{});
  for (int64_t sample : {int64_t{0}, int64_t{4}}) {
    const serve::ForecastResult result = service->Forecast(sample);
    Batch batch = world.dataset.MakeBatch({sample});
    const std::vector<Tensor> tape = model.Predict(batch);
    ASSERT_EQ(result->size(), tape.size());
    for (size_t j = 0; j < tape.size(); ++j) {
      // The service slices row 0 out of a B=1 forward: identical bits,
      // one leading axis shorter.
      ASSERT_EQ((*result)[j].numel(), tape[j].numel());
      EXPECT_EQ(std::memcmp((*result)[j].data(), tape[j].data(),
                            static_cast<size_t>(tape[j].numel()) *
                                sizeof(float)),
                0)
          << "sample " << sample << " horizon " << j;
    }
  }
}

TEST(ForecastServiceTest, IntervalCacheHitsUntilRollover) {
  TestWorld world = TestWorld::Make();
  AdvancedFrameworkConfig config;
  AdvancedFramework model(world.spec.graph, world.spec.graph, 7, 2, config);
  auto service = MakeService(world, model, serve::ServeConfig{});

  Counter& hits = MetricsRegistry::Global().GetCounter("serve.cache_hits");
  Counter& misses =
      MetricsRegistry::Global().GetCounter("serve.cache_misses");
  const uint64_t hits0 = hits.value();
  const uint64_t misses0 = misses.value();

  service->SetCurrentInterval(2);
  const serve::ForecastResult first = service->ForecastCurrent();
  EXPECT_EQ(misses.value(), misses0 + 1);
  const serve::ForecastResult again = service->ForecastCurrent();
  EXPECT_EQ(hits.value(), hits0 + 1);
  // A cache hit returns the identical snapshot, not a recompute.
  EXPECT_EQ(first.get(), again.get());

  // Setting the same interval again must NOT invalidate.
  service->SetCurrentInterval(2);
  EXPECT_EQ(service->ForecastCurrent().get(), first.get());

  // Rollover invalidates: next query recomputes for the new interval.
  service->SetCurrentInterval(3);
  const serve::ForecastResult rolled = service->ForecastCurrent();
  EXPECT_EQ(misses.value(), misses0 + 2);
  EXPECT_NE(rolled.get(), first.get());
  const serve::ForecastResult direct = service->Forecast(3);
  ASSERT_EQ(rolled->size(), direct->size());
  for (size_t j = 0; j < rolled->size(); ++j) {
    EXPECT_TRUE(BitIdentical((*rolled)[j], (*direct)[j]));
  }

  // Rolling back recomputes rather than resurrecting the dropped snapshot,
  // and the recompute reproduces the first one bit for bit.
  service->SetCurrentInterval(2);
  const serve::ForecastResult back = service->ForecastCurrent();
  EXPECT_EQ(misses.value(), misses0 + 3);
  EXPECT_NE(back.get(), first.get());
  ASSERT_EQ(back->size(), first->size());
  for (size_t j = 0; j < back->size(); ++j) {
    EXPECT_TRUE(BitIdentical((*back)[j], (*first)[j])) << "step " << j;
  }
}

// The worker publishes the current interval's forecast whoever asked for
// it: a plain Forecast of the current sample on a cold cache warms it, a
// forecast of any other sample never does, and ForecastCurrentAsync on a
// warm cache hands back the cached snapshot without running a batch.
TEST(ForecastServiceTest, WorkerPublishesTheCurrentInterval) {
  TestWorld world = TestWorld::Make();
  AdvancedFrameworkConfig config;
  AdvancedFramework model(world.spec.graph, world.spec.graph, 7, 2, config);
  auto service = MakeService(world, model, serve::ServeConfig{});

  Counter& hits = MetricsRegistry::Global().GetCounter("serve.cache_hits");
  Counter& misses =
      MetricsRegistry::Global().GetCounter("serve.cache_misses");
  Counter& batches = MetricsRegistry::Global().GetCounter("serve.batches");

  service->SetCurrentInterval(2);
  const serve::ForecastResult other = service->Forecast(3);
  const uint64_t misses0 = misses.value();
  const serve::ForecastResult current = service->ForecastCurrent();
  EXPECT_EQ(misses.value(), misses0 + 1);  // Forecast(3) left it cold
  EXPECT_NE(current.get(), other.get());

  service->SetCurrentInterval(4);
  const serve::ForecastResult direct = service->Forecast(4);
  const uint64_t hits1 = hits.value();
  const uint64_t misses1 = misses.value();
  EXPECT_EQ(service->ForecastCurrent().get(), direct.get());
  EXPECT_EQ(hits.value(), hits1 + 1);
  EXPECT_EQ(misses.value(), misses1);

  const uint64_t batches1 = batches.value();
  std::future<serve::ForecastResult> ready = service->ForecastCurrentAsync();
  ASSERT_EQ(ready.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(ready.get().get(), direct.get());
  EXPECT_EQ(hits.value(), hits1 + 2);
  EXPECT_EQ(batches.value(), batches1);

  // Cold, it runs the current sample's forecast and publishes that.
  service->SetCurrentInterval(5);
  const serve::ForecastResult started = service->ForecastCurrentAsync().get();
  EXPECT_EQ(service->ForecastCurrent().get(), started.get());
  const serve::ForecastResult want = service->Forecast(5);
  for (size_t j = 0; j < want->size(); ++j) {
    EXPECT_TRUE(BitIdentical((*started)[j], (*want)[j])) << "step " << j;
  }
}

TEST(ForecastServiceTest, ConcurrentClientsHammerOneWorker) {
  TestWorld world = TestWorld::Make();
  AdvancedFrameworkConfig config;
  AdvancedFramework model(world.spec.graph, world.spec.graph, 7, 2, config);
  serve::ServeConfig serve_config;
  // Below the 8 concurrent clients, so queued queries must split across
  // batches as well as coalesce.
  serve_config.max_batch = 4;
  auto service = MakeService(world, model, serve_config);

  const int64_t num_samples = world.dataset.NumSamples();
  // Reference forecasts computed on the tape, one sample at a time.
  std::vector<std::vector<Tensor>> expected;
  for (int64_t i = 0; i < num_samples; ++i) {
    expected.push_back(model.Predict(world.dataset.MakeBatch({i})));
  }

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 12;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int q = 0; q < kRequestsPerThread; ++q) {
        const int64_t sample = (t * 7 + q * 3) % num_samples;
        const serve::ForecastResult result = service->Forecast(sample);
        const std::vector<Tensor>& want = expected[static_cast<size_t>(sample)];
        if (result->size() != want.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t j = 0; j < want.size(); ++j) {
          const Tensor& got = (*result)[j];
          if (got.numel() != want[j].numel() ||
              std::memcmp(got.data(), want[j].data(),
                          static_cast<size_t>(got.numel()) * sizeof(float)) !=
                  0) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  // Interleave cache traffic with the hammer to exercise both locks.
  std::thread roller([&] {
    for (int i = 0; i < 20; ++i) {
      service->SetCurrentInterval(i % num_samples);
      service->ForecastCurrent();
    }
  });
  for (std::thread& client : clients) client.join();
  roller.join();
  EXPECT_EQ(mismatches.load(), 0);

  Counter& batches = MetricsRegistry::Global().GetCounter("serve.batches");
  EXPECT_GT(batches.value(), 0u);
}

// ---------------------------------------------------------------------
// Serving under stress (docs/scenarios.md): the service keeps answering
// when a sensor-dropout scenario darkens whole regions of its input feed.
// ---------------------------------------------------------------------

TEST(ForecastServiceTest, ServesFiniteForecastsUnderSensorDropout) {
  TestWorld world = TestWorld::Make();

  // Darken two regions for the whole series — every query below reads at
  // least one fully masked observation window.
  Scenario scenario("serving_dropout", 5);
  SensorDropoutConfig dropout;
  dropout.regions = {0, 4};
  dropout.window = {0, world.series.NumIntervals()};
  scenario.AddSensorDropout(dropout);
  const TimePartition time_partition(world.spec.config.interval_minutes,
                                     world.spec.config.num_days);
  OdTensorSeries observed =
      scenario.MaskObservations(world.series, time_partition);
  ForecastDataset degraded(&observed, world.dataset.history(),
                           world.dataset.horizon());
  ASSERT_EQ(degraded.NumSamples(), world.dataset.NumSamples());

  AdvancedFrameworkConfig config;
  AdvancedFramework model(world.spec.graph, world.spec.graph, 7, 2, config);
  serve::ForecastService service(
      &degraded, serve::PlanCompiler::Compile(model, degraded.history()));

  auto expect_finite_histograms = [](const serve::ForecastResult& result) {
    ASSERT_NE(result, nullptr);
    for (const Tensor& step : *result) {
      const int64_t buckets = step.shape().dim(-1);
      const int64_t rows = step.numel() / buckets;
      for (int64_t row = 0; row < rows; ++row) {
        double sum = 0.0;
        for (int64_t k = 0; k < buckets; ++k) {
          const float v = step[row * buckets + k];
          ASSERT_TRUE(std::isfinite(v));
          ASSERT_GE(v, 0.0f);
          sum += v;
        }
        ASSERT_NEAR(sum, 1.0, 1e-4) << "row " << row << " denormalized";
      }
    }
  };

  // Direct queries across the series answer without NaNs or aborts.
  for (int64_t sample : {int64_t{0}, int64_t{7},
                         degraded.NumSamples() - 1}) {
    expect_finite_histograms(service.Forecast(sample));
  }

  // Cache rollover still invalidates mid-scenario.
  Counter& misses =
      MetricsRegistry::Global().GetCounter("serve.cache_misses");
  const uint64_t misses0 = misses.value();
  service.SetCurrentInterval(5);
  const serve::ForecastResult before = service.ForecastCurrent();
  expect_finite_histograms(before);
  EXPECT_EQ(service.ForecastCurrent().get(), before.get());  // cache hit
  service.SetCurrentInterval(6);
  const serve::ForecastResult after = service.ForecastCurrent();
  expect_finite_histograms(after);
  EXPECT_NE(after.get(), before.get());
  EXPECT_EQ(misses.value(), misses0 + 2);

  // The darkened feed really changed what gets served: same sample, same
  // plan, different bits than the clean-feed service.
  serve::ForecastService clean(
      &world.dataset,
      serve::PlanCompiler::Compile(model, world.dataset.history()));
  const serve::ForecastResult masked_result = service.Forecast(7);
  const serve::ForecastResult clean_result = clean.Forecast(7);
  bool diverged = false;
  for (size_t j = 0; j < masked_result->size(); ++j) {
    if (!BitIdentical((*masked_result)[j], (*clean_result)[j])) {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged)
      << "sensor dropout did not reach the serving inputs";
}

}  // namespace
}  // namespace odf
