#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "autograd/gradcheck.h"
#include "core/advanced_framework.h"
#include "core/basic_framework.h"
#include "core/loss_util.h"
#include "core/recovery.h"
#include "core/trainer.h"
#include "graph/region_graph.h"
#include "sim/trip_generator.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace odf {
namespace {

namespace ag = odf::autograd;

TEST(RecoveryTest, FactorProductMatchesManual) {
  Rng rng(1);
  const int64_t b = 2;
  const int64_t n = 3;
  const int64_t beta = 2;
  const int64_t m = 4;
  const int64_t k = 5;
  Tensor r = Tensor::RandomNormal(Shape({b, n, beta, k}), rng);
  Tensor c = Tensor::RandomNormal(Shape({b, beta, m, k}), rng);
  Tensor prod = FactorProduct(ag::Var::Constant(r), ag::Var::Constant(c))
                    .value();
  ASSERT_EQ(prod.shape(), Shape({b, n, m, k}));
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t o = 0; o < n; ++o) {
      for (int64_t d = 0; d < m; ++d) {
        for (int64_t bk = 0; bk < k; ++bk) {
          float expected = 0;
          for (int64_t f = 0; f < beta; ++f) {
            expected += r.At({bi, o, f, bk}) * c.At({bi, f, d, bk});
          }
          EXPECT_NEAR(prod.At({bi, o, d, bk}), expected, 1e-4f);
        }
      }
    }
  }
}

TEST(RecoveryTest, RecoveredCellsAreDistributions) {
  Rng rng(2);
  Tensor r = Tensor::RandomNormal(Shape({2, 3, 2, 4}), rng);
  Tensor c = Tensor::RandomNormal(Shape({2, 2, 3, 4}), rng);
  Tensor rec =
      RecoverFullTensor(ag::Var::Constant(r), ag::Var::Constant(c)).value();
  for (int64_t i = 0; i < rec.numel() / 4; ++i) {
    float total = 0;
    for (int64_t bk = 0; bk < 4; ++bk) {
      const float v = rec[i * 4 + bk];
      EXPECT_GT(v, 0.0f);
      total += v;
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(RecoveryTest, GradCheckThroughRecovery) {
  Rng rng(3);
  std::vector<ag::Var> inputs = {
      ag::Var(Tensor::RandomNormal(Shape({1, 2, 2, 3}), rng, 0.0f, 0.5f),
              true),
      ag::Var(Tensor::RandomNormal(Shape({1, 2, 2, 3}), rng, 0.0f, 0.5f),
              true)};
  auto fn = [](const std::vector<ag::Var>& in) {
    return ag::SumAll(ag::Square(RecoverFullTensor(in[0], in[1])));
  };
  auto result = ag::GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << result.max_abs_error;
}

TEST(LossUtilTest, MaskCellCount) {
  Tensor mask(Shape({2, 2}));
  EXPECT_FLOAT_EQ(MaskCellCount(mask), 1.0f);  // empty -> clamp to 1
  mask.At2(0, 1) = 1.0f;
  mask.At2(1, 0) = 1.0f;
  EXPECT_FLOAT_EQ(MaskCellCount(mask), 2.0f);
}

// Builds a small deterministic dataset for framework tests.
struct TestWorld {
  DatasetSpec spec;
  OdTensorSeries series;
  ForecastDataset dataset;
  ForecastDataset::Split split;

  static TestWorld Make(int64_t history = 3, int64_t horizon = 2) {
    DatasetSpec spec = MakeNycLike(3, 3, /*num_days=*/4,
                                   /*interval_minutes=*/60);
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

TrainConfig FastTrain() {
  TrainConfig config;
  config.epochs = 4;
  config.batch_size = 8;
  config.learning_rate = 5e-3f;
  config.patience = 10;
  return config;
}

TEST(BasicFrameworkTest, PredictShapesAndDistributions) {
  TestWorld world = TestWorld::Make();
  BasicFrameworkConfig config;
  config.rank = 3;
  BasicFramework model(9, 9, 7, /*horizon=*/2, config);
  Batch batch = world.dataset.MakeBatch({0, 1, 2});
  auto predictions = model.Predict(batch);
  ASSERT_EQ(predictions.size(), 2u);
  EXPECT_EQ(predictions[0].shape(), Shape({3, 9, 9, 7}));
  for (int64_t i = 0; i < predictions[0].numel() / 7; ++i) {
    float total = 0;
    for (int64_t bk = 0; bk < 7; ++bk) total += predictions[0][i * 7 + bk];
    EXPECT_NEAR(total, 1.0f, 1e-4f);
  }
}

TEST(BasicFrameworkTest, TrainingReducesLoss) {
  TestWorld world = TestWorld::Make();
  BasicFrameworkConfig config;
  config.rank = 3;
  BasicFramework model(9, 9, 7, 2, config);
  TrainResult result = TrainForecaster(model, world.dataset, world.split,
                                       FastTrain());
  ASSERT_GE(result.train_losses.size(), 2u);
  EXPECT_LT(result.train_losses.back(), result.train_losses.front());
  EXPECT_GE(result.best_epoch, 0);
}

TEST(BasicFrameworkTest, DescribeAndParamCount) {
  BasicFrameworkConfig config;
  config.rank = 3;
  config.encode_dim = 8;
  config.gru_hidden = 16;
  BasicFramework model(9, 9, 7, 1, config);
  EXPECT_GT(model.NumParameters(), 0);
  EXPECT_NE(model.Describe().find("GRU_16"), std::string::npos);
  EXPECT_EQ(model.name(), "BF");
}

TEST(AdvancedFrameworkTest, RankFromPoolingHierarchy) {
  TestWorld world = TestWorld::Make();
  AdvancedFrameworkConfig config;
  config.num_levels = 2;
  AdvancedFramework model(world.spec.graph, world.spec.graph, 7, 1, config);
  // 9 nodes -> ceil(9/2)=5 -> ceil(5/2)=3.
  EXPECT_EQ(model.rank(), 3);
  EXPECT_EQ(model.name(), "AF");
  EXPECT_NE(model.Describe().find("CNRNN"), std::string::npos);
}

TEST(AdvancedFrameworkTest, PredictShapesAndDistributions) {
  TestWorld world = TestWorld::Make();
  AdvancedFrameworkConfig config;
  AdvancedFramework model(world.spec.graph, world.spec.graph, 7, 2, config);
  Batch batch = world.dataset.MakeBatch({0, 5});
  auto predictions = model.Predict(batch);
  ASSERT_EQ(predictions.size(), 2u);
  EXPECT_EQ(predictions[0].shape(), Shape({2, 9, 9, 7}));
  for (int64_t i = 0; i < predictions[1].numel() / 7; ++i) {
    float total = 0;
    for (int64_t bk = 0; bk < 7; ++bk) total += predictions[1][i * 7 + bk];
    EXPECT_NEAR(total, 1.0f, 1e-4f);
  }
}

TEST(AdvancedFrameworkTest, TrainingReducesLoss) {
  TestWorld world = TestWorld::Make();
  AdvancedFrameworkConfig config;
  AdvancedFramework model(world.spec.graph, world.spec.graph, 7, 2, config);
  TrainResult result = TrainForecaster(model, world.dataset, world.split,
                                       FastTrain());
  EXPECT_LT(result.train_losses.back(), result.train_losses.front());
}

TEST(AdvancedFrameworkTest, AblationVariantsConstructAndPredict) {
  TestWorld world = TestWorld::Make(/*history=*/3, /*horizon=*/1);
  for (int variant = 0; variant < 4; ++variant) {
    AdvancedFrameworkConfig config;
    config.use_graph_factorization = variant != 0;
    config.use_cluster_pooling = variant != 1;
    config.use_gcgru = variant != 2;
    config.use_dirichlet_regularizer = variant != 3;
    AdvancedFramework model(world.spec.graph, world.spec.graph, 7, 1,
                            config);
    Batch batch = world.dataset.MakeBatch({0});
    auto predictions = model.Predict(batch);
    ASSERT_EQ(predictions.size(), 1u);
    EXPECT_EQ(predictions[0].shape(), Shape({1, 9, 9, 7}));
    Rng rng(1);
    const float loss = model.Loss(batch, /*train=*/false, rng)
                           .value()
                           .Item();
    EXPECT_TRUE(std::isfinite(loss));
  }
}

TEST(AdvancedFrameworkTest, UsesFewerWeightsThanFcStyleBf) {
  // Paper Table I: AF has the fewest weight parameters.
  TestWorld world = TestWorld::Make();
  AdvancedFrameworkConfig af_config;
  AdvancedFramework af(world.spec.graph, world.spec.graph, 7, 1, af_config);
  BasicFrameworkConfig bf_config;
  BasicFramework bf(9, 9, 7, 1, bf_config);
  EXPECT_LT(af.NumParameters(), bf.NumParameters());
}

TEST(AdvancedFrameworkTest, ProximityParamsChangeModel) {
  TestWorld world = TestWorld::Make();
  AdvancedFrameworkConfig narrow;
  narrow.proximity = {.sigma = 0.4, .alpha = 1.0};
  AdvancedFrameworkConfig wide;
  wide.proximity = {.sigma = 3.0, .alpha = 5.0};
  AdvancedFramework model_narrow(world.spec.graph, world.spec.graph, 7, 1,
                                 narrow);
  AdvancedFramework model_wide(world.spec.graph, world.spec.graph, 7, 1,
                               wide);
  Batch batch = world.dataset.MakeBatch({0});
  // Different proximity graphs produce different (finite) predictions.
  auto p1 = model_narrow.Predict(batch);
  auto p2 = model_wide.Predict(batch);
  EXPECT_FALSE(AllClose(p1[0], p2[0], 1e-6f));
}

TEST(TrainerTest, EarlyStoppingTriggers) {
  TestWorld world = TestWorld::Make();
  BasicFrameworkConfig config;
  BasicFramework model(9, 9, 7, 2, config);
  TrainConfig train = FastTrain();
  train.epochs = 50;
  train.patience = 1;
  train.learning_rate = 0.5f;  // absurd LR: validation degrades quickly
  TrainResult result = TrainForecaster(model, world.dataset, world.split,
                                       train);
  EXPECT_LT(result.epochs_run, 50);
}

TEST(TrainerTest, BestWeightsRestored) {
  TestWorld world = TestWorld::Make();
  BasicFrameworkConfig config;
  BasicFramework model(9, 9, 7, 2, config);
  TrainConfig train = FastTrain();
  train.epochs = 6;
  TrainResult result = TrainForecaster(model, world.dataset, world.split,
                                       train);
  // After restoration, the validation loss equals the best seen. The
  // reference weights each batch's mean loss by its sample count, matching
  // EvaluateLoss when the final batch is ragged.
  Rng rng(0);
  double total = 0;
  for (size_t start = 0; start < world.split.validation.size();
       start += 8) {
    const size_t end =
        std::min(world.split.validation.size(), start + 8);
    std::vector<int64_t> idx(world.split.validation.begin() + start,
                             world.split.validation.begin() + end);
    Batch batch = world.dataset.MakeBatch(idx);
    total += model.Loss(batch, false, rng).value().Item() *
             static_cast<double>(end - start);
  }
  EXPECT_NEAR(total / world.split.validation.size(),
              result.best_validation_loss, 1e-4);
}

TEST(TrainerTest, ConfigDrivenTelemetryAndTrace) {
  if (TraceEnabled()) {
    GTEST_SKIP() << "ambient ODF_TRACE capture owns the tracer";
  }
  TestWorld world = TestWorld::Make();
  BasicFrameworkConfig config;
  BasicFramework model(9, 9, 7, 2, config);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "odf_trainer_obs").string();
  std::filesystem::remove_all(dir);
  TrainConfig train = FastTrain();
  train.epochs = 2;
  train.telemetry_path = dir + "/telemetry.jsonl";
  const std::string trace_path = dir + "/train_trace.json";
  Tracer::Global().Start(trace_path);
  TrainForecaster(model, world.dataset, world.split, train);
  ASSERT_TRUE(Tracer::Global().Stop());

  std::ifstream telemetry(train.telemetry_path);
  ASSERT_TRUE(telemetry.good());
  std::string line;
  int lines = 0;
  while (std::getline(telemetry, line)) {
    EXPECT_NE(line.find("\"epoch\":" + std::to_string(lines)),
              std::string::npos);
    EXPECT_NE(line.find("\"train_loss\":"), std::string::npos);
    EXPECT_NE(line.find("\"val_loss\":"), std::string::npos);
    EXPECT_NE(line.find("\"grad_norm\":"), std::string::npos);
    EXPECT_NE(line.find("\"epoch_seconds\":"), std::string::npos);
    EXPECT_NE(line.find("\"checkpoint_seconds\":"), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 2);

  std::ifstream trace(trace_path, std::ios::binary);
  ASSERT_TRUE(trace.good());
  std::ostringstream buffer;
  buffer << trace.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"train/epoch\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"train/batch\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"train/evaluate\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"fwd/"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"bwd/"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// Metrics switched on in code (not through ODF_METRICS) must also turn on
// the default telemetry file next to the checkpoints.
TEST(TrainerTest, SetMetricsEnabledTurnsOnDefaultTelemetry) {
  TestWorld world = TestWorld::Make();
  BasicFramework model(9, 9, 7, 2, BasicFrameworkConfig{});
  const std::string dir =
      (std::filesystem::temp_directory_path() / "odf_trainer_metrics_on")
          .string();
  std::filesystem::remove_all(dir);
  TrainConfig train = FastTrain();
  train.epochs = 2;
  train.checkpoint_dir = dir;
  const bool was_enabled = MetricsEnabled();
  SetMetricsEnabled(true);
  TrainForecaster(model, world.dataset, world.split, train);
  SetMetricsEnabled(was_enabled);

  std::ifstream telemetry(dir + "/telemetry.jsonl");
  ASSERT_TRUE(telemetry.good()) << "no default telemetry.jsonl";
  std::string line;
  int lines = 0;
  while (std::getline(telemetry, line)) {
    EXPECT_NE(line.find("\"epoch\":" + std::to_string(lines)),
              std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 2);
  std::filesystem::remove_all(dir);
}

// Deterministic stub whose per-batch loss is the exact mean of a fixed
// per-sample value, so EvaluateLoss's weighting is testable in closed form
// (real models normalize by observed-cell count, not per sample).
class StubLossModel : public NeuralForecaster {
 public:
  StubLossModel() : NeuralForecaster(1, 1, 1, 1) {}
  std::string name() const override { return "stub"; }
  std::string Describe() const override { return "stub"; }
  std::vector<ag::Var> Forecast(const Batch&, bool, Rng&) const override {
    return {};
  }
  ag::Var Loss(const Batch& batch, bool /*train*/, Rng& /*rng*/) override {
    double total = 0;
    for (int64_t anchor : batch.anchor_intervals) total += PerSample(anchor);
    Tensor out(Shape({1}));
    out.data()[0] = static_cast<float>(
        total / static_cast<double>(batch.anchor_intervals.size()));
    return ag::Var::Constant(out);
  }
  static double PerSample(int64_t anchor) {
    return 0.25 + 0.5 * std::sin(static_cast<double>(anchor) * 0.7);
  }
};

TEST(TrainerTest, EvaluateLossWeighsRaggedFinalBatch) {
  TestWorld world = TestWorld::Make();
  StubLossModel model;
  // 13 samples in batches of 8 -> a full batch and a ragged batch of 5. An
  // unweighted mean of batch means would over-count the short batch; the
  // weighted mean must equal both a batch_size=1 sweep and the exact
  // per-sample mean.
  std::vector<int64_t> samples;
  for (int64_t i = 0; i < 13; ++i) samples.push_back(i);
  const float batched =
      EvaluateLoss(model, world.dataset, samples, /*batch_size=*/8,
                   /*seed=*/3);
  const float reference =
      EvaluateLoss(model, world.dataset, samples, /*batch_size=*/1,
                   /*seed=*/3);
  double exact = 0;
  for (int64_t i : samples) {
    const Batch one = world.dataset.MakeBatch({i});
    exact += StubLossModel::PerSample(one.anchor_intervals.at(0));
  }
  exact /= static_cast<double>(samples.size());
  EXPECT_NEAR(batched, reference, 1e-6f);
  EXPECT_NEAR(batched, static_cast<float>(exact), 1e-6f);
}

}  // namespace
}  // namespace odf
