// Tests for the library extensions: checkpoint serialization, trip CSV
// interchange, attention-augmented seq2seq (paper future work), the
// SumAxis autograd op and the outlier guard.

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "baselines/fc_gru.h"
#include "core/basic_framework.h"
#include "core/forecast_export.h"
#include "core/outlier_guard.h"
#include "nn/attention.h"
#include "nn/gru.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "od/trip_io.h"

namespace odf {
namespace {

namespace ag = odf::autograd;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SerializeTest, CheckpointRoundTripRestoresPredictions) {
  const std::string path = TempPath("bf_checkpoint.bin");
  BasicFrameworkConfig config;
  BasicFramework model(4, 4, 3, 1, config);

  OdTensorSeries series;
  for (int t = 0; t < 10; ++t) {
    OdTensor tensor(4, 4, 3);
    tensor.SetHistogram(0, 1, {0.5f, 0.5f, 0.0f});
    series.tensors.push_back(tensor);
  }
  ForecastDataset dataset(&series, 3, 1);
  Batch batch = dataset.MakeBatch({0, 2});
  const Tensor before = model.Predict(batch)[0];

  ASSERT_TRUE(nn::SaveParameters(model, path));

  // A differently-seeded model predicts differently; loading restores.
  BasicFrameworkConfig other_config;
  other_config.seed = 999;
  BasicFramework other(4, 4, 3, 1, other_config);
  EXPECT_FALSE(AllClose(other.Predict(batch)[0], before, 1e-6f));
  ASSERT_TRUE(nn::LoadParameters(other, path));
  EXPECT_TRUE(AllClose(other.Predict(batch)[0], before, 1e-6f));
}

TEST(SerializeTest, ArchitectureMismatchIsTypedErrorNotAbort) {
  const std::string path = TempPath("mismatch_checkpoint.bin");
  Rng rng(1);
  nn::GruCell small(2, 3, rng);
  ASSERT_TRUE(nn::SaveParameters(small, path));
  nn::GruCell bigger(2, 4, rng);
  const Tensor before = bigger.Parameters()[0].value();
  const nn::LoadResult result = nn::LoadParametersChecked(bigger, path);
  EXPECT_EQ(result.status, nn::LoadStatus::kArchMismatch);
  EXPECT_NE(result.message.find("mismatch"), std::string::npos);
  // The destination model is untouched on failure.
  EXPECT_TRUE(AllClose(bigger.Parameters()[0].value(), before, 0.0f));
  EXPECT_FALSE(nn::LoadParameters(bigger, path));
}

TEST(SerializeTest, MissingFileReturnsFalse) {
  Rng rng(2);
  nn::GruCell cell(2, 2, rng);
  EXPECT_FALSE(nn::LoadParameters(cell, "/no/such/checkpoint.bin"));
  EXPECT_FALSE(nn::SaveParameters(cell, "/no/such/dir/checkpoint.bin"));
}

TEST(TripIoTest, TripsRoundTrip) {
  const std::string path = TempPath("trips.csv");
  std::vector<Trip> trips = {
      {0, 1, 10, 1500.0, 300.0},
      {3, 2, 86400, 2500.5, 421.25},
  };
  ASSERT_TRUE(WriteTripsCsv(trips, path));
  std::vector<Trip> loaded;
  ASSERT_TRUE(ReadTripsCsv(path, &loaded));
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].origin, 0);
  EXPECT_EQ(loaded[0].destination, 1);
  EXPECT_EQ(loaded[1].departure_s, 86400);
  EXPECT_NEAR(loaded[1].distance_m, 2500.5, 1e-3);
  EXPECT_NEAR(loaded[1].duration_s, 421.25, 1e-3);
}

TEST(TripIoTest, RejectsMalformedRows) {
  const std::string path = TempPath("bad_trips.csv");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "origin,destination,departure_s,distance_m,duration_s\n");
  std::fprintf(f, "0,1,10,100.0,notanumber\n");
  std::fclose(f);
  std::vector<Trip> trips;
  EXPECT_FALSE(ReadTripsCsv(path, &trips));
  EXPECT_TRUE(trips.empty());
}

TEST(TripIoTest, RejectsNegativeValues) {
  const std::string path = TempPath("neg_trips.csv");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "origin,destination,departure_s,distance_m,duration_s\n");
  std::fprintf(f, "0,1,10,-5.0,100.0\n");
  std::fclose(f);
  std::vector<Trip> trips;
  EXPECT_FALSE(ReadTripsCsv(path, &trips));
}

TEST(TripIoTest, RejectsWrongHeader) {
  const std::string path = TempPath("wrong_header.csv");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fprintf(f, "a,b,c\n1,2,3\n");
  std::fclose(f);
  std::vector<Trip> trips;
  EXPECT_FALSE(ReadTripsCsv(path, &trips));
}

TEST(TripIoTest, RegionsRoundTrip) {
  const std::string path = TempPath("regions.csv");
  RegionGraph graph = RegionGraph::Grid(2, 3, 0.8);
  ASSERT_TRUE(WriteRegionsCsv(graph, path));
  std::vector<Region> regions;
  ASSERT_TRUE(ReadRegionsCsv(path, &regions));
  ASSERT_EQ(regions.size(), 6u);
  for (size_t i = 0; i < regions.size(); ++i) {
    EXPECT_NEAR(regions[i].centroid_x_km,
                graph.region(static_cast<int64_t>(i)).centroid_x_km, 1e-5);
    EXPECT_NEAR(regions[i].centroid_y_km,
                graph.region(static_cast<int64_t>(i)).centroid_y_km, 1e-5);
  }
  // The loaded regions rebuild an equivalent graph.
  RegionGraph rebuilt{regions};
  EXPECT_NEAR(rebuilt.DistanceKm(0, 5), graph.DistanceKm(0, 5), 1e-6);
}

TEST(SumAxisTest, ValuesAndGradients) {
  Rng rng(3);
  std::vector<ag::Var> inputs = {
      ag::Var(Tensor::RandomNormal(Shape({2, 3, 4}), rng), true)};
  for (int64_t axis : {0, 1, 2}) {
    for (bool keepdim : {false, true}) {
      auto fn = [axis, keepdim](const std::vector<ag::Var>& in) {
        return ag::SumAll(ag::Square(ag::SumAxis(in[0], axis, keepdim)));
      };
      auto result = ag::GradCheck(fn, inputs);
      EXPECT_TRUE(result.ok)
          << "axis " << axis << " keepdim " << keepdim << " err "
          << result.max_abs_error;
    }
  }
  // Value matches the tensor-level reduction.
  ag::Var x = ag::Var::Constant(Tensor::Arange(6).Reshape({2, 3}));
  EXPECT_TRUE(AllClose(ag::SumAxis(x, 1, false).value(),
                       Sum(x.value(), 1, false), 0.0f));
}

TEST(AttentionTest, WeightsAreDistributions) {
  Rng rng(4);
  nn::LuongAttention attention(8, rng);
  ag::Var h = ag::Var::Constant(Tensor::RandomNormal(Shape({3, 8}), rng));
  std::vector<ag::Var> encoder_states;
  for (int t = 0; t < 5; ++t) {
    encoder_states.push_back(
        ag::Var::Constant(Tensor::RandomNormal(Shape({3, 8}), rng)));
  }
  Tensor weights = attention.Weights(h, encoder_states);
  EXPECT_EQ(weights.shape(), Shape({3, 5}));
  for (int64_t b = 0; b < 3; ++b) {
    float total = 0;
    for (int64_t t = 0; t < 5; ++t) {
      EXPECT_GT(weights.At2(b, t), 0.0f);
      total += weights.At2(b, t);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
  EXPECT_EQ(attention.Apply(h, encoder_states).shape(), Shape({3, 8}));
}

TEST(AttentionTest, GradFlowsToAllInputs) {
  Rng rng(5);
  nn::LuongAttention attention(4, rng);
  std::vector<ag::Var> inputs = {
      ag::Var(Tensor::RandomNormal(Shape({2, 4}), rng, 0.0f, 0.5f), true),
      ag::Var(Tensor::RandomNormal(Shape({2, 4}), rng, 0.0f, 0.5f), true),
      ag::Var(Tensor::RandomNormal(Shape({2, 4}), rng, 0.0f, 0.5f), true)};
  auto fn = [&](const std::vector<ag::Var>& in) {
    return ag::SumAll(attention.Apply(in[0], {in[1], in[2]}));
  };
  auto result = ag::GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << result.max_abs_error;
}

TEST(AttentionTest, AttentiveSeq2SeqLearnsSelectiveRecall) {
  // Task: output the FIRST element of the sequence. Plain seq2seq must
  // squeeze it through the final state; attention can look back directly.
  Rng data_rng(6);
  auto make_model = [&](bool attention) {
    Rng rng(7);
    return std::make_unique<nn::Seq2SeqGru>(2, 12, rng, attention);
  };
  auto train_and_eval = [&](nn::Seq2SeqGru& model) {
    nn::Adam opt(model.Parameters(), 0.01f);
    float last_loss = 0;
    Rng rng(8);
    for (int it = 0; it < 120; ++it) {
      // Random sequence of length 6; target = first element.
      std::vector<ag::Var> inputs;
      Tensor first;
      for (int t = 0; t < 6; ++t) {
        Tensor x = Tensor::RandomNormal(Shape({4, 2}), rng);
        if (t == 0) first = x;
        inputs.push_back(ag::Var::Constant(x));
      }
      auto outputs = model.Forward(inputs, 1);
      ag::Var loss = ag::MaskedSquaredError(
          outputs[0], first, Tensor::Ones(Shape({4, 2})), 8.0f);
      opt.ZeroGrad();
      loss.Backward();
      opt.Step();
      last_loss = loss.value().Item();
    }
    return last_loss;
  };
  auto plain = make_model(false);
  auto attentive = make_model(true);
  const float plain_loss = train_and_eval(*plain);
  const float attentive_loss = train_and_eval(*attentive);
  // Attention should not be (meaningfully) worse on a recall task.
  EXPECT_LT(attentive_loss, plain_loss * 1.5f);
  EXPECT_GT(attentive->NumParameters(), plain->NumParameters());
}

TEST(AttentionTest, BasicFrameworkWithAttentionTrains) {
  BasicFrameworkConfig config;
  config.use_attention = true;
  BasicFramework model(4, 4, 3, 1, config);
  OdTensorSeries series;
  Rng rng(9);
  for (int t = 0; t < 30; ++t) {
    OdTensor tensor(4, 4, 3);
    const float p = t % 2 == 0 ? 0.8f : 0.2f;
    tensor.SetHistogram(0, 1, {p, 1.0f - p, 0.0f});
    series.tensors.push_back(tensor);
  }
  ForecastDataset dataset(&series, 4, 1);
  auto split = dataset.ChronologicalSplit(0.7, 0.1);
  TrainConfig train;
  train.epochs = 3;
  model.Fit(dataset, split, train);
  Batch batch = dataset.MakeBatch({0});
  auto predictions = model.Predict(batch);
  EXPECT_EQ(predictions[0].shape(), Shape({1, 4, 4, 3}));
}

TEST(OutlierGuardTest, DampsOnlyOutliers) {
  // Prior: mass in bucket 0 everywhere.
  Tensor prior(Shape({1, 2, 3}));
  prior.At3(0, 0, 0) = 1.0f;
  prior.At3(0, 1, 0) = 1.0f;
  OutlierGuard guard(prior, /*js_threshold=*/0.2, /*blend=*/0.5);

  Tensor forecast(Shape({1, 2, 3}));
  // Cell (0,0): agrees with prior. Cell (0,1): completely different.
  forecast.At3(0, 0, 0) = 0.95f;
  forecast.At3(0, 0, 1) = 0.05f;
  forecast.At3(0, 1, 2) = 1.0f;

  Tensor guarded = guard.Apply(forecast);
  EXPECT_EQ(guard.last_outlier_count(), 1);
  // Normal cell untouched.
  EXPECT_FLOAT_EQ(guarded.At3(0, 0, 0), 0.95f);
  // Outlier cell blended halfway toward the prior.
  EXPECT_FLOAT_EQ(guarded.At3(0, 1, 0), 0.5f);
  EXPECT_FLOAT_EQ(guarded.At3(0, 1, 2), 0.5f);
}

TEST(OutlierGuardTest, BatchedApplyAndHistogramPreservation) {
  Rng rng(10);
  Tensor prior(Shape({2, 2, 4}));
  for (int64_t cell = 0; cell < 4; ++cell) {
    prior.data()[cell * 4 + 1] = 1.0f;
  }
  OutlierGuard guard(prior, 0.3, 1.0);
  // Batched forecasts far from the prior.
  Tensor forecast(Shape({3, 2, 2, 4}));
  for (int64_t i = 0; i < 12; ++i) forecast.data()[i * 4 + 3] = 1.0f;
  Tensor guarded = guard.Apply(forecast);
  EXPECT_EQ(guard.last_outlier_count(), 12);
  // Full blend: everything equals the prior, still valid histograms.
  for (int64_t i = 0; i < 12; ++i) {
    float total = 0;
    for (int64_t k = 0; k < 4; ++k) total += guarded.data()[i * 4 + k];
    EXPECT_NEAR(total, 1.0f, 1e-5f);
    EXPECT_FLOAT_EQ(guarded.data()[i * 4 + 1], 1.0f);
  }
}

TEST(ForecastExportTest, CsvContainsEveryBucket) {
  const std::string path = TempPath("forecast.csv");
  SpeedHistogramSpec spec(3, 5.0);
  Tensor forecast(Shape({1, 2, 3}));
  forecast.At3(0, 0, 0) = 0.25f;
  forecast.At3(0, 0, 1) = 0.75f;
  forecast.At3(0, 1, 2) = 1.0f;
  ASSERT_TRUE(ExportForecastCsv(forecast, spec, path));

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents(4096, '\0');
  const size_t n = std::fread(contents.data(), 1, contents.size(), f);
  contents.resize(n);
  std::fclose(f);
  EXPECT_NE(contents.find(
                "origin,destination,speed_lo_ms,speed_hi_ms,probability"),
            std::string::npos);
  EXPECT_NE(contents.find("0,0,0.0,5.0,0.250000"), std::string::npos);
  EXPECT_NE(contents.find("0,0,5.0,10.0,0.750000"), std::string::npos);
  EXPECT_NE(contents.find("0,1,10.0,inf,1.000000"), std::string::npos);
  // 1 header + 2 pairs x 3 buckets = 7 lines.
  int64_t lines = 0;
  for (char ch : contents) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, 7);
}

TEST(ForecastExportTest, ExpectedSpeedMatrix) {
  SpeedHistogramSpec spec(3, 4.0);  // midpoints 2, 6, 10
  Tensor forecast(Shape({1, 2, 3}));
  forecast.At3(0, 0, 0) = 0.5f;
  forecast.At3(0, 0, 2) = 0.5f;
  forecast.At3(0, 1, 1) = 1.0f;
  Tensor speeds = ExpectedSpeedMatrix(forecast, spec);
  EXPECT_EQ(speeds.shape(), Shape({1, 2}));
  EXPECT_FLOAT_EQ(speeds.At2(0, 0), 6.0f);  // (2+10)/2
  EXPECT_FLOAT_EQ(speeds.At2(0, 1), 6.0f);
}

}  // namespace
}  // namespace odf
