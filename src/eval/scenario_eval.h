#ifndef ODF_EVAL_SCENARIO_EVAL_H_
#define ODF_EVAL_SCENARIO_EVAL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/forecaster.h"
#include "eval/sweep.h"
#include "metrics/evaluation.h"
#include "sim/scenario.h"
#include "sim/trip_generator.h"
#include "util/table.h"

namespace odf::eval {

/// Configuration of the scenario×model robustness sweep (docs/scenarios.md).
struct ScenarioEvalConfig : SweepConfig {
  /// Models scored, by table name: AF, BF, NH, GP, VAR, FC/RNN, MR.
  std::vector<std::string> models{"AF", "NH", "VAR"};
};

/// One cell of the scenario×model table: mean KL/JS/EMD per observed
/// ground-truth pair over the stressed test windows.
struct ScenarioScore : SweepScore {
  std::string scenario;
  std::string model;
};

/// The full sweep outcome; `scores` is scenario-major, model-minor, in the
/// exact order of the input scenario and model lists (deterministic).
struct ScenarioEvalResult : SweepHeader {
  std::vector<std::string> scenarios;
  std::vector<std::string> models;
  std::vector<ScenarioScore> scores;
};

/// Builds a forecaster by its table name (same names as the paper tables).
/// `time_partition` is only consulted by MR (its time-of-day task split).
/// "AFD" is the dynamic-graph AF: identical construction, seed and training
/// to "AF", but the harness rebuilds its forecasting-stage operators per
/// scored window from Scenario::ProximityMatrixAt.
std::unique_ptr<Forecaster> MakeForecasterByName(
    const std::string& name, const RegionGraph& graph, int64_t num_buckets,
    int64_t horizon, const TimePartition& time_partition, uint64_t seed);

/// Time-varying-graph wiring for ScoreForecaster: the harness asks
/// `scenario` for the proximity matrix of `graph` at each scored window's
/// anchor interval and swaps it into the model before predicting. Only
/// meaningful for an AdvancedFramework with a non-adaptive graph_op.
struct DynamicGraphContext {
  const RegionGraph* graph = nullptr;
  const Scenario* scenario = nullptr;
  ProximityParams proximity{1.0, 2.0};
};

/// Scores `model` over `samples` windows of `observed`, judging against the
/// ground-truth series `truth` (mean KL/JS/EMD per observed pair across all
/// horizon steps). With `dynamic` set, windows are scored one at a time:
/// before each prediction the model's GCGRU operators are rebuilt from the
/// scenario's proximity matrix at that window's anchor interval (a fresh
/// immutable operator snapshot per interval — graph/laplacian.h contract),
/// and the clean graphs are restored afterwards. Deterministic at every
/// thread count either way.
MetricAccumulator ScoreForecaster(Forecaster& model,
                                  const ForecastDataset& observed,
                                  const OdTensorSeries& truth,
                                  const std::vector<int64_t>& samples,
                                  int64_t batch_size,
                                  const DynamicGraphContext* dynamic = nullptr);

/// The robustness harness (ROADMAP item 4): trains every configured model
/// once on the *clean* dataset, then for each scenario rebuilds the world
/// with the scenario's injectors applied and scores each model on the test
/// windows — inputs come from the scenario's degraded *observed* series,
/// targets from its ground *truth* (so sensor dropout starves the model
/// without blinding the judge). Deterministic: same spec + scenarios +
/// config give a byte-identical result at every thread count.
ScenarioEvalResult RunScenarioSweep(const DatasetSpec& spec,
                                    const std::vector<Scenario>& scenarios,
                                    const ScenarioEvalConfig& config);

/// Renders the result as the BENCH_scenarios.json document (schema in
/// docs/scenarios.md). Deterministic: fixed key order, fixed float
/// formatting, no timestamps. Aborts if any score is non-finite.
std::string ScenarioBenchJson(const ScenarioEvalResult& result);

/// One scenario×model table for `metric` (rows = scenarios, cols = models).
Table ScenarioReportTable(const ScenarioEvalResult& result, Metric metric);

/// Prints the human-readable report: one table per metric plus a header.
void PrintScenarioReport(const ScenarioEvalResult& result, std::FILE* out);

}  // namespace odf::eval

#endif  // ODF_EVAL_SCENARIO_EVAL_H_
