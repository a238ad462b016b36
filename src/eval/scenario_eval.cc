#include "eval/scenario_eval.h"

#include "baselines/fc_gru.h"
#include "baselines/gp.h"
#include "baselines/multitask.h"
#include "baselines/naive_histogram.h"
#include "baselines/var.h"
#include "core/advanced_framework.h"
#include "core/basic_framework.h"
#include "core/experiment.h"
#include "util/metrics.h"

namespace odf::eval {

using internal::AppendF;

MetricAccumulator ScoreForecaster(Forecaster& model,
                                  const ForecastDataset& observed,
                                  const OdTensorSeries& truth,
                                  const std::vector<int64_t>& samples,
                                  int64_t batch_size,
                                  const DynamicGraphContext* dynamic) {
  ODF_CHECK_GT(batch_size, 0);
  MetricAccumulator accumulator;
  const auto accumulate = [&](int64_t, int64_t, const Tensor& prediction,
                              const OdTensor& target) {
    AccumulateForecast(prediction, target, accumulator);
  };
  if (dynamic == nullptr) {
    VisitPredictions(model, observed, truth, samples, batch_size, accumulate);
    return accumulator;
  }
  ODF_CHECK(dynamic->graph != nullptr && dynamic->scenario != nullptr);
  auto* dynamic_model = dynamic_cast<AdvancedFramework*>(&model);
  ODF_CHECK(dynamic_model != nullptr)
      << "dynamic-graph scoring needs an AdvancedFramework, got "
      << model.name();
  // One window at a time: each window gets the graph of its own anchor
  // interval, so windows cannot share a batched forward pass.
  for (const int64_t& sample : samples) {
    // A fresh operator snapshot per interval (never mutated in place);
    // recurring matrices — most intervals outside the incident — hit the
    // memoized Chebyshev factory instead of re-deriving L̂.
    const Tensor w = dynamic->scenario->ProximityMatrixAt(
        *dynamic->graph, dynamic->proximity, observed.AnchorInterval(sample));
    dynamic_model->SetGcGruGraphs(w, w);
    VisitPredictions(model, observed, truth, {&sample, 1}, 1, accumulate);
  }
  dynamic_model->ResetGcGruGraphs();
  return accumulator;
}

std::unique_ptr<Forecaster> MakeForecasterByName(
    const std::string& name, const RegionGraph& graph, int64_t num_buckets,
    int64_t horizon, const TimePartition& time_partition, uint64_t seed) {
  const int64_t n = graph.size();
  if (name == "NH") return std::make_unique<NaiveHistogramForecaster>();
  if (name == "GP") return std::make_unique<GaussianProcessForecaster>();
  if (name == "VAR") return std::make_unique<VarForecaster>();
  if (name == "FC" || name == "RNN") {
    FcGruConfig config;
    config.seed = seed + 17;
    return std::make_unique<FcGruForecaster>(n, n, num_buckets, horizon,
                                             config);
  }
  if (name == "MR") {
    MultiTaskConfig config;
    config.seed = seed + 23;
    return std::make_unique<MultiTaskForecaster>(n, n, num_buckets, horizon,
                                                 time_partition, config);
  }
  if (name == "BF") {
    BasicFrameworkConfig config;
    config.seed = seed + 11;
    return std::make_unique<BasicFramework>(n, n, num_buckets, horizon,
                                            config);
  }
  if (name == "AF" || name == "AFD") {
    AdvancedFrameworkConfig config;
    config.seed = seed + 13;  // AFD shares AF's seed: same weights, the
                              // only difference is scoring-time graphs
    config.dynamic_graph = name == "AFD";
    return std::make_unique<AdvancedFramework>(graph, graph, num_buckets,
                                               horizon, config);
  }
  ODF_CHECK(false) << "unknown model " << name
                   << " (expected AF, AFD, BF, NH, GP, VAR, FC/RNN or MR)";
  return nullptr;
}

ScenarioEvalResult RunScenarioSweep(const DatasetSpec& spec,
                                    const std::vector<Scenario>& scenarios,
                                    const ScenarioEvalConfig& config) {
  ODF_CHECK(!config.models.empty());
  ODF_CHECK(!scenarios.empty());
  const SpeedHistogramSpec histogram = SpeedHistogramSpec::Paper();

  // The clean world every model is trained on. Scenarios only perturb the
  // evaluation side: robustness is "clean-trained model meets an incident",
  // exactly the deployment situation the ROADMAP's north star describes.
  const internal::CleanWorld clean(spec, config);

  ScenarioEvalResult result;
  static_cast<SweepHeader&>(result) = clean.header;
  result.models = config.models;
  for (const Scenario& scenario : scenarios) {
    result.scenarios.push_back(scenario.name());
  }

  std::vector<std::unique_ptr<Forecaster>> models;
  models.reserve(config.models.size());
  for (const std::string& name : config.models) {
    std::unique_ptr<Forecaster> model = MakeForecasterByName(
        name, spec.graph, histogram.num_buckets(), config.horizon,
        spec.time_partition(), config.train.seed);
    model->Fit(clean.dataset, clean.split, config.train);
    models.push_back(std::move(model));
  }

  for (const Scenario& scenario : scenarios) {
    ScenarioWorld world = BuildScenarioWorld(spec, scenario, histogram);
    ODF_CHECK_EQ(world.truth.NumIntervals(), clean.series.NumIntervals());
    ForecastDataset observed_dataset(&world.observed, config.history,
                                     config.horizon);
    for (size_t m = 0; m < models.size(); ++m) {
      // The dynamic-graph AF scores with per-interval operators rebuilt
      // from this scenario's closures; everything else sees static graphs.
      DynamicGraphContext dynamic_context;
      const DynamicGraphContext* dynamic = nullptr;
      if (const auto* af =
              dynamic_cast<const AdvancedFramework*>(models[m].get());
          af != nullptr && af->config().dynamic_graph) {
        dynamic_context = {&spec.graph, &scenario, af->config().proximity};
        dynamic = &dynamic_context;
      }
      MetricAccumulator accumulator;
      {
        ScopedTimer timer(
            MetricsRegistry::Global().GetHistogram("scenario.eval_seconds"));
        accumulator =
            ScoreForecaster(*models[m], observed_dataset, world.truth,
                            clean.split.test, config.eval_batch_size, dynamic);
      }
      if (MetricsEnabled()) {
        MetricsRegistry::Global().GetCounter("scenario.evaluations").Add();
      }
      const std::string& model = config.models[m];
      result.scores.push_back(
          {internal::MeansOf(accumulator, scenario.name() + "/" + model),
           scenario.name(), model});
    }
  }
  return result;
}

std::string ScenarioBenchJson(const ScenarioEvalResult& result) {
  std::string out;
  out.reserve(4096);
  internal::AppendHeaderJson(&out, "scenario_robustness", result, "models",
                             result.models);
  out += "  \"scenarios\": [\n";
  for (size_t s = 0; s < result.scenarios.size(); ++s) {
    AppendF(&out, "    {\"name\": \"%s\", \"scores\": [\n",
            result.scenarios[s].c_str());
    for (size_t m = 0; m < result.models.size(); ++m) {
      const ScenarioScore& score =
          result.scores[s * result.models.size() + m];
      ODF_CHECK(score.scenario == result.scenarios[s]);
      AppendF(&out, "      {\"model\": \"%s\", ", score.model.c_str());
      internal::AppendScoreJson(&out, score);
      out += m + 1 == result.models.size() ? "\n" : ",\n";
    }
    AppendF(&out, "    ]}%s\n",
            s + 1 == result.scenarios.size() ? "" : ",");
  }
  out += "  ]\n}\n";
  return out;
}

Table ScenarioReportTable(const ScenarioEvalResult& result, Metric metric) {
  std::vector<std::string> headers{"scenario"};
  headers.insert(headers.end(), result.models.begin(), result.models.end());
  Table table(std::move(headers));
  for (size_t s = 0; s < result.scenarios.size(); ++s) {
    std::vector<std::string> row{result.scenarios[s]};
    for (size_t m = 0; m < result.models.size(); ++m) {
      const ScenarioScore& score =
          result.scores[s * result.models.size() + m];
      row.push_back(Table::Num(score.values[static_cast<int>(metric)]));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

void PrintScenarioReport(const ScenarioEvalResult& result, std::FILE* out) {
  internal::PrintReportHeader(out, "scenario robustness", result);
  for (int k = 0; k < kNumMetrics; ++k) {
    std::fprintf(out, "\n%s (mean per observed pair; lower is better)\n",
                 MetricName(static_cast<Metric>(k)));
    ScenarioReportTable(result, static_cast<Metric>(k)).Print(out);
  }
}

}  // namespace odf::eval
