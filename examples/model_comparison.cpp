// Model comparison on your own data shape: fits every forecaster in the
// library (NH, GP, VAR, FC, MR, BF, AF) on one simulated dataset and prints
// a leaderboard — a template for benchmarking the methods on real trips.

#include <cstdio>
#include <memory>

#include "baselines/fc_gru.h"
#include "baselines/gp.h"
#include "baselines/multitask.h"
#include "baselines/naive_histogram.h"
#include "baselines/var.h"
#include "core/advanced_framework.h"
#include "core/basic_framework.h"
#include "core/experiment.h"
#include "core/trainer.h"
#include "sim/trip_generator.h"
#include "util/stopwatch.h"
#include "util/table.h"

int main() {
  odf::DatasetSpec spec = odf::MakeNycLike(4, 4, 8, 30);
  odf::OdTensorSeries series = odf::SimulateOdSeries(spec);
  odf::ForecastDataset dataset(&series, /*history=*/6, /*horizon=*/1);
  const auto split = dataset.ChronologicalSplit(0.7, 0.1);

  const int64_t n = spec.graph.size();
  std::vector<std::unique_ptr<odf::Forecaster>> models;
  models.push_back(std::make_unique<odf::NaiveHistogramForecaster>());
  models.push_back(std::make_unique<odf::GaussianProcessForecaster>());
  models.push_back(std::make_unique<odf::VarForecaster>());
  models.push_back(
      std::make_unique<odf::FcGruForecaster>(n, n, 7, 1, odf::FcGruConfig{}));
  models.push_back(std::make_unique<odf::MultiTaskForecaster>(
      n, n, 7, 1, spec.time_partition(), odf::MultiTaskConfig{}));
  models.push_back(std::make_unique<odf::BasicFramework>(
      n, n, 7, 1, odf::BasicFrameworkConfig{}));
  models.push_back(std::make_unique<odf::AdvancedFramework>(
      spec.graph, spec.graph, 7, 1, odf::AdvancedFrameworkConfig{}));

  odf::TrainConfig train;
  train.epochs = 10;

  odf::Table table({"method", "KL", "JS", "EMD", "fit seconds"});
  for (auto& model : models) {
    odf::Stopwatch watch;
    model->Fit(dataset, split, train);
    const double fit_seconds = watch.ElapsedSeconds();
    const auto result =
        odf::EvaluateForecaster(*model, dataset, split.test, 16);
    table.AddRow({model->name(),
                  odf::Table::Num(result[0].Mean(odf::Metric::kKl)),
                  odf::Table::Num(result[0].Mean(odf::Metric::kJs)),
                  odf::Table::Num(result[0].Mean(odf::Metric::kEmd)),
                  odf::Table::Num(fit_seconds, 1)});
    std::fprintf(stderr, "%s done\n", model->name().c_str());
  }
  std::printf("1-step-ahead leaderboard (lower is better):\n");
  table.Print(stdout);
  return 0;
}
