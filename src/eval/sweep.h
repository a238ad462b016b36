#ifndef ODF_EVAL_SWEEP_H_
#define ODF_EVAL_SWEEP_H_

#include <cstdio>
#include <string>
#include <vector>

#include "core/forecaster.h"
#include "metrics/evaluation.h"
#include "sim/scenario.h"
#include "sim/trip_generator.h"

namespace odf::eval {

/// What both robustness sweeps configure alike (docs/scenarios.md,
/// docs/graph_operators.md).
struct SweepConfig {
  int64_t history = 4;
  int64_t horizon = 1;
  int64_t eval_batch_size = 16;
  /// Chronological split fractions used for training the clean models and
  /// selecting the scored test windows.
  double train_fraction = 0.7;
  double validation_fraction = 0.1;
  /// Training hyper-parameters of the neural models (epochs, seed, ...).
  TrainConfig train;
};

/// The fields every sweep result opens with, in its report and its JSON.
struct SweepHeader {
  std::string dataset_name;
  int64_t regions = 0;
  uint64_t seed = 0;
  int64_t history = 0;
  int64_t horizon = 0;
  int64_t test_windows = 0;
};

/// Mean KL/JS/EMD per observed ground-truth pair, and the pairs scored.
struct SweepScore {
  double values[kNumMetrics] = {0.0, 0.0, 0.0};
  /// Observed (pair, horizon-step) ground-truth cells scored.
  int64_t pairs = 0;
};

/// What both sweep drivers (`production_pipeline --scenarios`,
/// `bench_graphops`) run, seeded from `seed`: the full world, a 4×4 grid
/// over 8 days of 30-minute intervals, or with `smoke` the CI-sized 3×3
/// grid over 4 days of hours; the standard scenario suite stressing only
/// the last ~20% of intervals (the test split), so clean-trained models
/// meet the incidents at evaluation time, never during training; and the
/// training schedule (`epochs`, batch 16, patience 4).
struct SweepSetup {
  SweepSetup(bool smoke, uint64_t seed, int epochs);

  /// Writes `json` with WriteFileAtomic as `file_name` in the working
  /// directory, or in the system temp directory with `smoke` so a smoke run
  /// never overwrites the committed figures. Returns the path written, or
  /// "" after reporting the failure on stderr.
  std::string WriteJson(const std::string& file_name,
                        const std::string& json) const;

  bool smoke;
  DatasetSpec spec;
  std::vector<Scenario> suite;
  TrainConfig train;
};

/// The non-empty items of the comma-separated list `csv`, in order.
std::vector<std::string> SplitCsv(const std::string& csv);

// The steps both sweeps' implementations share; not for callers.
namespace internal {

/// The clean world a sweep trains every model on: `spec`'s simulated
/// series, its windows and their chronological split. Scenarios only
/// perturb the evaluation side. Not copyable: `dataset` points at `series`.
struct CleanWorld {
  CleanWorld(const DatasetSpec& spec, const SweepConfig& config);
  CleanWorld(const CleanWorld&) = delete;
  CleanWorld& operator=(const CleanWorld&) = delete;

  OdTensorSeries series;
  ForecastDataset dataset;
  ForecastDataset::Split split;
  SweepHeader header;
};

/// `accumulator`'s means and count; aborts naming `label` if a mean is not
/// finite.
SweepScore MeansOf(const MetricAccumulator& accumulator,
                   const std::string& label);

/// Appends printf-formatted text to `out` (at most 511 bytes per call).
void AppendF(std::string* out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

/// Opens a sweep's JSON document: the bench name, the header fields and
/// the `names_key` array of `names`. Fixed key order and formatting.
void AppendHeaderJson(std::string* out, const char* bench,
                      const SweepHeader& header, const char* names_key,
                      const std::vector<std::string>& names);

/// Appends a score row's `"kl", "js", "emd", "pairs"` fields and closes the
/// row; aborts if a value is not finite.
void AppendScoreJson(std::string* out, const SweepScore& score);

/// Prints a sweep report's first line: `title` and the header fields.
void PrintReportHeader(std::FILE* out, const char* title,
                       const SweepHeader& header);

}  // namespace internal

}  // namespace odf::eval

#endif  // ODF_EVAL_SWEEP_H_
