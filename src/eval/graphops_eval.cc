#include "eval/graphops_eval.h"

#include <memory>

#include "core/advanced_framework.h"
#include "graph/laplacian.h"
#include "util/metrics.h"
#include "util/table.h"

namespace odf::eval {

using internal::AppendF;

namespace {

GraphOpScore MakeScore(const std::string& mode, const std::string& setting,
                       const MetricAccumulator& accumulator) {
  return {internal::MeansOf(accumulator, mode + "/" + setting), mode, setting};
}

/// One AF per mode name, identical seed across modes so the operator family
/// is the only variable. "cheb_corr" needs the training-period correlation
/// graphs, computed by the caller.
std::unique_ptr<AdvancedFramework> MakeModeModel(
    const std::string& mode, const DatasetSpec& spec, int64_t num_buckets,
    const GraphOpsEvalConfig& config, const Tensor& origin_correlation,
    const Tensor& destination_correlation) {
  AdvancedFrameworkConfig model_config;
  model_config.seed = config.train.seed + 13;  // matches MakeForecasterByName
  if (mode == "cheb") {
    model_config.graph_op = nn::GraphOpKind::kChebyshev;
  } else if (mode == "cheb_corr") {
    model_config.graph_op = nn::GraphOpKind::kChebyshev;
    model_config.origin_demand_correlation = origin_correlation;
    model_config.destination_demand_correlation = destination_correlation;
  } else if (mode == "diffusion") {
    model_config.graph_op = nn::GraphOpKind::kDiffusion;
  } else if (mode == "adaptive") {
    model_config.graph_op = nn::GraphOpKind::kAdaptive;
  } else {
    ODF_CHECK(false) << "unknown graph-op mode '" << mode
                     << "' (want cheb|cheb_corr|diffusion|adaptive)";
  }
  return std::make_unique<AdvancedFramework>(spec.graph, spec.graph,
                                             num_buckets, config.horizon,
                                             model_config);
}

}  // namespace

GraphOpsEvalResult RunGraphOpsSweep(const DatasetSpec& spec,
                                    const Scenario& scenario,
                                    const GraphOpsEvalConfig& config) {
  ODF_CHECK(!config.modes.empty());
  const SpeedHistogramSpec histogram = SpeedHistogramSpec::Paper();
  const internal::CleanWorld clean(spec, config);
  ODF_CHECK(!clean.split.train.empty());

  // Demand-correlation graphs from the *training* period only — the third
  // static graph input never sees validation or test demand.
  const int64_t train_end =
      clean.dataset.AnchorInterval(clean.split.train.back());
  std::vector<Tensor> train_counts;
  train_counts.reserve(static_cast<size_t>(train_end + 1));
  for (int64_t t = 0; t <= train_end; ++t) {
    train_counts.push_back(clean.series.at(t).counts());
  }
  const Tensor origin_correlation = DemandCorrelationGraph(
      train_counts, /*origin_side=*/true, config.correlation_threshold);
  const Tensor destination_correlation = DemandCorrelationGraph(
      train_counts, /*origin_side=*/false, config.correlation_threshold);

  GraphOpsEvalResult result;
  static_cast<SweepHeader&>(result) = clean.header;
  result.modes = config.modes;
  result.dynamic_scenario = scenario.name();

  AdvancedFramework* cheb_model = nullptr;
  std::vector<std::unique_ptr<AdvancedFramework>> models;
  models.reserve(config.modes.size());
  for (const std::string& mode : config.modes) {
    std::unique_ptr<AdvancedFramework> model =
        MakeModeModel(mode, spec, histogram.num_buckets(), config,
                      origin_correlation, destination_correlation);
    {
      ScopedTimer timer(
          MetricsRegistry::Global().GetHistogram("graphops.train_seconds"));
      model->Fit(clean.dataset, clean.split, config.train);
    }
    MetricAccumulator accumulator;
    {
      ScopedTimer timer(
          MetricsRegistry::Global().GetHistogram("graphops.eval_seconds"));
      accumulator = ScoreForecaster(*model, clean.dataset, clean.series,
                                    clean.split.test, config.eval_batch_size);
    }
    result.clean.push_back(MakeScore(mode, "clean", accumulator));
    if (mode == "cheb") cheb_model = model.get();
    models.push_back(std::move(model));
  }
  ODF_CHECK(cheb_model != nullptr)
      << "the static-vs-dynamic comparison needs mode 'cheb'";

  // The same trained weights meet the incident twice: once with the clean
  // construction-time graphs, once with per-interval operators rebuilt from
  // the scenario's closures (ROADMAP item 3's dynamic-graph path).
  ScenarioWorld world = BuildScenarioWorld(spec, scenario, histogram);
  ODF_CHECK_EQ(world.truth.NumIntervals(), clean.series.NumIntervals());
  ForecastDataset observed_dataset(&world.observed, config.history,
                                   config.horizon);
  result.scenario_scores.push_back(MakeScore(
      "cheb", "static",
      ScoreForecaster(*cheb_model, observed_dataset, world.truth,
                      clean.split.test, config.eval_batch_size)));
  const DynamicGraphContext dynamic{&spec.graph, &scenario,
                                    cheb_model->config().proximity};
  result.scenario_scores.push_back(MakeScore(
      "cheb", "dynamic",
      ScoreForecaster(*cheb_model, observed_dataset, world.truth,
                      clean.split.test, config.eval_batch_size, &dynamic)));
  return result;
}

std::string GraphOpsBenchJson(const GraphOpsEvalResult& result) {
  std::string out;
  out.reserve(4096);
  internal::AppendHeaderJson(&out, "graph_operators", result, "modes",
                             result.modes);
  const auto append_scores = [&](const std::vector<GraphOpScore>& scores) {
    for (size_t i = 0; i < scores.size(); ++i) {
      const GraphOpScore& score = scores[i];
      AppendF(&out, "    {\"mode\": \"%s\", \"setting\": \"%s\", ",
              score.mode.c_str(), score.setting.c_str());
      internal::AppendScoreJson(&out, score);
      out += i + 1 == scores.size() ? "\n" : ",\n";
    }
  };
  out += "  \"clean\": [\n";
  append_scores(result.clean);
  out += "  ],\n";
  AppendF(&out, "  \"dynamic_scenario\": \"%s\",\n",
          result.dynamic_scenario.c_str());
  out += "  \"scenario\": [\n";
  append_scores(result.scenario_scores);
  out += "  ]\n}\n";
  return out;
}

void PrintGraphOpsReport(const GraphOpsEvalResult& result, std::FILE* out) {
  internal::PrintReportHeader(out, "graph operators", result);
  const auto print_scores = [&](const std::vector<GraphOpScore>& scores,
                                const char* label_header) {
    std::vector<std::string> headers{label_header};
    for (int k = 0; k < kNumMetrics; ++k) {
      headers.push_back(MetricName(static_cast<Metric>(k)));
    }
    headers.push_back("pairs");
    Table table(std::move(headers));
    for (const GraphOpScore& score : scores) {
      std::vector<std::string> row{score.mode + "/" + score.setting};
      for (int k = 0; k < kNumMetrics; ++k) {
        row.push_back(Table::Num(score.values[k]));
      }
      row.push_back(std::to_string(score.pairs));
      table.AddRow(std::move(row));
    }
    table.Print(out);
  };
  std::fprintf(out, "\nclean test windows (lower is better)\n");
  print_scores(result.clean, "mode");
  std::fprintf(out, "\nscenario '%s': static vs per-interval graphs\n",
               result.dynamic_scenario.c_str());
  print_scores(result.scenario_scores, "mode/graphs");
}

}  // namespace odf::eval
