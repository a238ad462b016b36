#ifndef ODF_EVAL_GRAPHOPS_EVAL_H_
#define ODF_EVAL_GRAPHOPS_EVAL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "core/forecaster.h"
#include "eval/scenario_eval.h"
#include "metrics/evaluation.h"
#include "sim/scenario.h"
#include "sim/trip_generator.h"

namespace odf::eval {

/// Configuration of the graph-operator sweep (docs/graph_operators.md):
/// one AF per operator mode, identical seeds and training schedule, scored
/// on the same clean test windows — so every difference in the table is the
/// operator family, nothing else.
struct GraphOpsEvalConfig : SweepConfig {
  /// Operator modes swept, in table order. "cheb" is the paper's Chebyshev
  /// basis, "cheb_corr" joins the demand-correlation graph as a second
  /// static component, "diffusion" the DCRNN dual-direction walk,
  /// "adaptive" the learned ODCRN adjacency.
  std::vector<std::string> modes{"cheb", "cheb_corr", "diffusion",
                                 "adaptive"};
  /// Pearson-r cutoff of the demand-correlation graph ("cheb_corr" only).
  double correlation_threshold = 0.3;
};

/// One row of the sweep: a mode scored in one setting ("clean" for the
/// held-out clean test windows; "static" / "dynamic" for the stress
/// scenario scored with construction-time vs per-interval graphs).
struct GraphOpScore : SweepScore {
  std::string mode;
  std::string setting;
};

struct GraphOpsEvalResult : SweepHeader {
  std::vector<std::string> modes;
  /// Per-mode clean-test scores, in `modes` order.
  std::vector<GraphOpScore> clean;
  /// Name of the scenario driving the static-vs-dynamic comparison.
  std::string dynamic_scenario;
  /// The same trained "cheb" model scored on the scenario twice: with its
  /// static construction-time graphs, then with per-interval operators
  /// rebuilt from Scenario::ProximityMatrixAt (settings "static" /
  /// "dynamic").
  std::vector<GraphOpScore> scenario_scores;
};

/// Trains one AF per configured mode on the clean dataset (identical seed
/// and schedule across modes), scores each on the clean test windows, then
/// scores the "cheb" model on `scenario`'s degraded world twice — static
/// graphs vs per-interval ProximityMatrixAt operators. Deterministic: same
/// spec + scenario + config give a byte-identical result at every thread
/// count. `config.modes` must contain "cheb".
GraphOpsEvalResult RunGraphOpsSweep(const DatasetSpec& spec,
                                    const Scenario& scenario,
                                    const GraphOpsEvalConfig& config);

/// Renders the result as the BENCH_graphops.json document. Deterministic:
/// fixed key order, %.9f floats, no timestamps. Aborts on non-finite scores.
std::string GraphOpsBenchJson(const GraphOpsEvalResult& result);

/// Prints the human-readable report (clean table + scenario comparison).
void PrintGraphOpsReport(const GraphOpsEvalResult& result, std::FILE* out);

}  // namespace odf::eval

#endif  // ODF_EVAL_GRAPHOPS_EVAL_H_
