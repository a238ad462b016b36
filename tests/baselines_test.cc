#include <cmath>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "baselines/fc_gru.h"
#include "baselines/gp.h"
#include "baselines/multitask.h"
#include "baselines/naive_histogram.h"
#include "baselines/var.h"
#include "core/advanced_framework.h"
#include "core/basic_framework.h"
#include "core/experiment.h"
#include "core/trainer.h"
#include "graph/region_graph.h"

namespace odf {
namespace {

// A controlled series: pair (0,1) alternates between two histograms; pair
// (1,0) is constant; pair (1,1) never observed.
OdTensorSeries AlternatingSeries(int64_t intervals) {
  OdTensorSeries series;
  for (int64_t t = 0; t < intervals; ++t) {
    OdTensor tensor(2, 2, 3);
    if (t % 2 == 0) {
      tensor.SetHistogram(0, 1, {1.0f, 0.0f, 0.0f}, 2.0f);
    } else {
      tensor.SetHistogram(0, 1, {0.0f, 0.0f, 1.0f}, 2.0f);
    }
    tensor.SetHistogram(1, 0, {0.0f, 1.0f, 0.0f}, 1.0f);
    series.tensors.push_back(tensor);
  }
  return series;
}

TEST(MeanHistogramTensorTest, WeightedMeanAndFallback) {
  OdTensorSeries series = AlternatingSeries(10);
  Tensor mean = MeanHistogramTensor(series, 10);
  // Pair (0,1): equal mix of the two alternating histograms.
  EXPECT_NEAR(mean.At3(0, 1, 0), 0.5f, 1e-5f);
  EXPECT_NEAR(mean.At3(0, 1, 2), 0.5f, 1e-5f);
  // Pair (1,0): constant histogram.
  EXPECT_NEAR(mean.At3(1, 0, 1), 1.0f, 1e-5f);
  // Pair (1,1): never observed -> global mean (weighted 2:1 per interval).
  // Per interval: 2 trips on (0,1) + 1 on (1,0).
  EXPECT_NEAR(mean.At3(1, 1, 1), 1.0f / 3.0f, 1e-5f);
  // Every cell is a valid distribution.
  for (int64_t i = 0; i < 4; ++i) {
    float total = 0;
    for (int64_t k = 0; k < 3; ++k) total += mean[i * 3 + k];
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(NaiveHistogramTest, PredictTilesMean) {
  OdTensorSeries series = AlternatingSeries(20);
  ForecastDataset dataset(&series, 3, 2);
  auto split = dataset.ChronologicalSplit(0.7, 0.1);
  NaiveHistogramForecaster nh;
  nh.Fit(dataset, split, {});
  Batch batch = dataset.MakeBatch({0, 1});
  auto predictions = nh.Predict(batch);
  ASSERT_EQ(predictions.size(), 2u);
  EXPECT_EQ(predictions[0].shape(), Shape({2, 2, 2, 3}));
  // Same forecast for every sample and step.
  EXPECT_TRUE(AllClose(predictions[0], predictions[1], 0.0f));
  // The training limit may cover an odd number of intervals, so the mix is
  // only approximately even.
  EXPECT_NEAR(predictions[0].At({0, 0, 1, 0}), 0.5f, 0.06f);
  EXPECT_NEAR(predictions[0].At({1, 0, 1, 0}), 0.5f, 0.06f);
}

TEST(GpTest, ConstantSeriesPredictsConstant) {
  OdTensorSeries series;
  for (int64_t t = 0; t < 30; ++t) {
    OdTensor tensor(1, 2, 3);
    tensor.SetHistogram(0, 0, {0.2f, 0.5f, 0.3f});
    series.tensors.push_back(tensor);
  }
  ForecastDataset dataset(&series, 3, 1);
  auto split = dataset.ChronologicalSplit(0.6, 0.1);
  GaussianProcessForecaster gp;
  gp.Fit(dataset, split, {});
  Batch batch = dataset.MakeBatch({20});
  auto predictions = gp.Predict(batch);
  EXPECT_NEAR(predictions[0].At({0, 0, 0, 0}), 0.2f, 0.05f);
  EXPECT_NEAR(predictions[0].At({0, 0, 0, 1}), 0.5f, 0.05f);
}

TEST(GpTest, TracksSlowDrift) {
  // Mass drifts linearly from bucket 0 to bucket 2; GP conditioned on
  // recent history must beat the global NH mean.
  OdTensorSeries series;
  const int64_t intervals = 40;
  for (int64_t t = 0; t < intervals; ++t) {
    OdTensor tensor(1, 1, 2);
    const float p = static_cast<float>(t) / (intervals - 1);
    tensor.SetHistogram(0, 0, {1.0f - p, p});
    series.tensors.push_back(tensor);
  }
  ForecastDataset dataset(&series, 3, 1);
  auto split = dataset.ChronologicalSplit(0.6, 0.1);
  GaussianProcessForecaster gp;
  gp.Fit(dataset, split, {});
  NaiveHistogramForecaster nh;
  nh.Fit(dataset, split, {});
  auto gp_result = EvaluateForecaster(gp, dataset, split.test, 8);
  auto nh_result = EvaluateForecaster(nh, dataset, split.test, 8);
  EXPECT_LT(gp_result[0].Mean(Metric::kEmd), nh_result[0].Mean(Metric::kEmd));
}

TEST(GpTest, FallsBackOnSparsePairs) {
  OdTensorSeries series = AlternatingSeries(20);
  ForecastDataset dataset(&series, 3, 1);
  auto split = dataset.ChronologicalSplit(0.7, 0.1);
  GaussianProcessForecaster gp;
  gp.Fit(dataset, split, {});
  Batch batch = dataset.MakeBatch({10});
  auto predictions = gp.Predict(batch);
  // Unobserved pair (1,1) must still get a valid histogram (NH fallback).
  float total = 0;
  for (int64_t k = 0; k < 3; ++k) total += predictions[0].At({0, 1, 1, k});
  EXPECT_NEAR(total, 1.0f, 1e-4f);
}

TEST(VarTest, SelectsActivePairsAndNormalizes) {
  OdTensorSeries series = AlternatingSeries(40);
  ForecastDataset dataset(&series, 3, 2);
  auto split = dataset.ChronologicalSplit(0.7, 0.1);
  VarForecaster var;
  var.Fit(dataset, split, {});
  EXPECT_EQ(var.num_modeled_pairs(), 2);  // (0,1) and (1,0)
  Batch batch = dataset.MakeBatch({20});
  auto predictions = var.Predict(batch);
  ASSERT_EQ(predictions.size(), 2u);
  for (int64_t pair = 0; pair < 4; ++pair) {
    float total = 0;
    for (int64_t k = 0; k < 3; ++k) {
      const float v = predictions[0][pair * 3 + k];
      EXPECT_GE(v, 0.0f);
      total += v;
    }
    EXPECT_NEAR(total, 1.0f, 1e-3f);
  }
}

TEST(VarTest, LearnsAlternatingPattern) {
  // VAR(3) can express "repeat the value from two steps ago".
  OdTensorSeries series = AlternatingSeries(60);
  ForecastDataset dataset(&series, 3, 1);
  auto split = dataset.ChronologicalSplit(0.7, 0.1);
  VarForecaster var;
  var.Fit(dataset, split, {});
  NaiveHistogramForecaster nh;
  nh.Fit(dataset, split, {});
  auto var_result = EvaluateForecaster(var, dataset, split.test, 8);
  auto nh_result = EvaluateForecaster(nh, dataset, split.test, 8);
  EXPECT_LT(var_result[0].Mean(Metric::kEmd),
            nh_result[0].Mean(Metric::kEmd));
}

OdTensorSeries NoisyAlternatingSeries(int64_t intervals, uint64_t seed) {
  Rng rng(seed);
  OdTensorSeries series;
  for (int64_t t = 0; t < intervals; ++t) {
    OdTensor tensor(2, 2, 3);
    const float base = t % 2 == 0 ? 0.8f : 0.2f;
    const float noise = static_cast<float>(rng.Uniform(-0.05, 0.05));
    const float p = std::clamp(base + noise, 0.0f, 1.0f);
    tensor.SetHistogram(0, 1, {p, 1.0f - p, 0.0f}, 2.0f);
    tensor.SetHistogram(1, 0, {0.0f, 1.0f, 0.0f}, 1.0f);
    series.tensors.push_back(tensor);
  }
  return series;
}

TEST(FcGruTest, TrainsAndBeatsNaiveOnPattern) {
  OdTensorSeries series = NoisyAlternatingSeries(80, 3);
  ForecastDataset dataset(&series, 4, 1);
  auto split = dataset.ChronologicalSplit(0.7, 0.1);
  FcGruConfig config;
  config.encode_dim = 8;
  config.gru_hidden = 16;
  FcGruForecaster fc(2, 2, 3, 1, config);
  TrainConfig train;
  train.epochs = 30;
  train.batch_size = 8;
  train.learning_rate = 1e-2f;
  train.patience = 30;
  fc.Fit(dataset, split, train);
  NaiveHistogramForecaster nh;
  nh.Fit(dataset, split, {});
  auto fc_result = EvaluateForecaster(fc, dataset, split.test, 8);
  auto nh_result = EvaluateForecaster(nh, dataset, split.test, 8);
  // The alternating pattern is invisible to NH but learnable by the GRU.
  EXPECT_LT(fc_result[0].Mean(Metric::kEmd),
            nh_result[0].Mean(Metric::kEmd));
}

TEST(FcGruTest, PredictionsAreDistributions) {
  OdTensorSeries series = AlternatingSeries(20);
  ForecastDataset dataset(&series, 3, 2);
  FcGruConfig config;
  FcGruForecaster fc(2, 2, 3, 2, config);
  Batch batch = dataset.MakeBatch({0, 3});
  auto predictions = fc.Predict(batch);
  ASSERT_EQ(predictions.size(), 2u);
  for (const Tensor& p : predictions) {
    for (int64_t i = 0; i < p.numel() / 3; ++i) {
      float total = 0;
      for (int64_t k = 0; k < 3; ++k) total += p[i * 3 + k];
      EXPECT_NEAR(total, 1.0f, 1e-4f);
    }
  }
}

// A series whose histogram depends only on time-of-day: MR's sweet spot.
OdTensorSeries DailyPatternSeries(int64_t days) {
  TimePartition tp(60 * 6, static_cast<int>(days));  // 4 intervals/day
  OdTensorSeries series;
  for (int64_t t = 0; t < tp.NumIntervals(); ++t) {
    OdTensor tensor(2, 2, 2);
    const int64_t slot = t % 4;
    const float p = 0.2f + 0.2f * static_cast<float>(slot);
    tensor.SetHistogram(0, 1, {p, 1.0f - p});
    tensor.SetHistogram(1, 0, {1.0f - p, p});
    series.tensors.push_back(tensor);
  }
  return series;
}

TEST(MultiTaskTest, LearnsDailyPattern) {
  OdTensorSeries series = DailyPatternSeries(30);
  ForecastDataset dataset(&series, 3, 1);
  auto split = dataset.ChronologicalSplit(0.7, 0.1);
  TimePartition tp(60 * 6, 30);
  MultiTaskConfig config;
  MultiTaskForecaster mr(2, 2, 2, 1, tp, config);
  TrainConfig train;
  train.epochs = 40;
  train.batch_size = 8;
  train.learning_rate = 1e-2f;
  train.patience = 40;
  mr.Fit(dataset, split, train);
  NaiveHistogramForecaster nh;
  nh.Fit(dataset, split, {});
  auto mr_result = EvaluateForecaster(mr, dataset, split.test, 8);
  auto nh_result = EvaluateForecaster(nh, dataset, split.test, 8);
  EXPECT_LT(mr_result[0].Mean(Metric::kEmd),
            nh_result[0].Mean(Metric::kEmd));
}

TEST(MultiTaskTest, PredictionsAreDistributions) {
  OdTensorSeries series = DailyPatternSeries(10);
  ForecastDataset dataset(&series, 3, 2);
  TimePartition tp(60 * 6, 10);
  MultiTaskConfig config;
  MultiTaskForecaster mr(2, 2, 2, 2, tp, config);
  Batch batch = dataset.MakeBatch({0, 1, 2});
  auto predictions = mr.Predict(batch);
  ASSERT_EQ(predictions.size(), 2u);
  for (const Tensor& p : predictions) {
    EXPECT_EQ(p.shape(), Shape({3, 2, 2, 2}));
    for (int64_t i = 0; i < p.numel() / 2; ++i) {
      EXPECT_NEAR(p[i * 2] + p[i * 2 + 1], 1.0f, 1e-4f);
    }
  }
}

TEST(ExperimentTest, EvaluateForecasterPerStep) {
  OdTensorSeries series = AlternatingSeries(30);
  ForecastDataset dataset(&series, 3, 2);
  auto split = dataset.ChronologicalSplit(0.6, 0.1);
  NaiveHistogramForecaster nh;
  nh.Fit(dataset, split, {});
  auto result = EvaluateForecaster(nh, dataset, split.test, 4);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_GT(result[0].count(), 0);
  // NH against an alternating series: EMD = half the bucket distance (2)
  // regardless of step.
  EXPECT_NEAR(result[0].Mean(Metric::kEmd), result[1].Mean(Metric::kEmd),
              0.2);
}

TEST(ExperimentTest, SamplePredictionExtracts) {
  Tensor batched = Tensor::Arange(2 * 2 * 2 * 2).Reshape({2, 2, 2, 2});
  Tensor second = SamplePrediction(batched, 1);
  EXPECT_EQ(second.shape(), Shape({2, 2, 2}));
  EXPECT_FLOAT_EQ(second[0], 8.0f);
}

// Checkpoints store parameters by position (nn/serialize.h), so a model's
// Parameters() order and shapes are its checkpoint format. Pins both, and
// NumParameters(), for every neural model.
std::string ParameterShapes(const nn::Module& model) {
  std::ostringstream os;
  for (const autograd::Var& p : model.Parameters()) {
    os << (os.tellp() == 0 ? "" : " ") << p.dim(0);
    for (int64_t i = 1; i < p.rank(); ++i) os << "x" << p.dim(i);
  }
  return os.str();
}

TEST(ParameterOrderTest, PinnedForEveryNeuralModel) {
  const RegionGraph graph = RegionGraph::Grid(3, 3, 1.0);
  AdvancedFrameworkConfig two_layers;
  two_layers.gcgru_layers = 2;
  AdvancedFrameworkConfig adaptive;
  adaptive.graph_op = nn::GraphOpKind::kAdaptive;
  BasicFrameworkConfig attention;
  attention.use_attention = true;
  struct Row {
    const char* name;
    std::unique_ptr<NeuralForecaster> model;
    const char* shapes;  // Parameters() in order: dims "AxB", space-separated
    int64_t count;
  };
  const Row rows[] = {
      {"af",
       std::make_unique<AdvancedFramework>(graph, graph, 7, 2,
                                           AdvancedFrameworkConfig{}),
       "1 21x8 8 24x7 7 21x8 8 24x7 7 111x32 32 111x16 16 111x32 32"
       " 111x16 16 48x21 21 111x32 32 111x16 16 111x32 32 111x16 16"
       " 48x21 21",
       24265},
      {"af_gcgru_layers_2",
       std::make_unique<AdvancedFramework>(graph, graph, 7, 2, two_layers),
       "1 21x8 8 24x7 7 21x8 8 24x7 7 111x32 32 111x16 16 96x32 32"
       " 96x16 16 111x32 32 111x16 16 96x32 32 96x16 16 48x21 21"
       " 111x32 32 111x16 16 96x32 32 96x16 16 111x32 32 111x16 16"
       " 96x32 32 96x16 16 48x21 21",
       42889},
      {"af_adaptive",
       std::make_unique<AdvancedFramework>(graph, graph, 7, 2, adaptive),
       "1 21x8 8 24x7 7 21x8 8 24x7 7 9x8 9x8 111x32 32 111x16 16"
       " 111x32 32 111x16 16 48x21 21 9x8 9x8 111x32 32 111x16 16"
       " 111x32 32 111x16 16 48x21 21",
       24553},
      {"bf",
       std::make_unique<BasicFramework>(9, 9, 7, 2, BasicFrameworkConfig{}),
       "1 567x16 16 567x16 16 48x32 32 48x32 32 48x32 32 48x32 32"
       " 48x32 32 48x32 32 32x16 16 48x32 32 48x32 32 48x32 32 48x32"
       " 32 48x32 32 48x32 32 32x16 16 16x252 252 16x252 252",
       46617},
      {"bf_attention", std::make_unique<BasicFramework>(9, 9, 7, 2, attention),
       "1 567x16 16 567x16 16 48x32 32 48x32 32 48x32 32 48x32 32"
       " 48x32 32 48x32 32 32x16 16 32x32 64x32 32 48x32 32 48x32 32"
       " 48x32 32 48x32 32 48x32 32 48x32 32 32x16 16 32x32 64x32 32"
       " 16x252 252 16x252 252",
       52825},
      {"fc", std::make_unique<FcGruForecaster>(9, 9, 7, 2, FcGruConfig{}),
       "567x16 16 48x32 32 48x32 32 48x32 32 48x32 32 48x32 32 48x32"
       " 32 32x16 16 16x567 567",
       28663},
      {"mr",
       std::make_unique<MultiTaskForecaster>(9, 9, 7, 2, TimePartition(60, 4),
                                             MultiTaskConfig{}),
       "9x8 9x8 21x32 32 32x7 7",
       1079},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    EXPECT_EQ(ParameterShapes(*row.model), row.shapes);
    EXPECT_EQ(row.model->NumParameters(), row.count);
  }
}

}  // namespace
}  // namespace odf
