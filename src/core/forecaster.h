#ifndef ODF_CORE_FORECASTER_H_
#define ODF_CORE_FORECASTER_H_

#include <string>
#include <vector>

#include "od/dataset.h"
#include "tensor/tensor.h"

namespace odf {

/// Training hyper-parameters (paper Sec. VI-A-5: Adam, lr 0.001, decay 0.8
/// every 5 epochs, dropout 0.2; epochs/batch size are scale-dependent).
struct TrainConfig {
  int epochs = 25;
  int batch_size = 16;
  float learning_rate = 2e-3f;
  float lr_decay = 0.8f;
  int lr_decay_every_epochs = 5;
  float dropout = 0.2f;
  float grad_clip_norm = 5.0f;
  /// Early stopping: epochs without validation improvement before stopping.
  int patience = 6;
  uint64_t seed = 7;
  bool verbose = false;

  // --- Crash-safe checkpointing (docs/checkpoint_format.md). -------------
  /// Directory for rolling TrainingCheckpoint snapshots; empty disables
  /// checkpointing. Created on demand.
  std::string checkpoint_dir;
  /// A snapshot is written after every this-many completed epochs (and
  /// always after the final epoch, including an early-stopping exit).
  int checkpoint_every_epochs = 1;
  /// Bound on retained snapshots; older ones are pruned after each write.
  int checkpoint_keep = 3;
  /// Resume from the newest valid checkpoint in `checkpoint_dir` (corrupt
  /// files are skipped with a warning; none valid = train from scratch).
  /// A resumed run is bit-identical to one that never stopped.
  bool resume = false;

  // --- Observability (docs/observability.md). -----------------------------
  /// Per-epoch telemetry JSONL (train/val loss, grad norm, epoch wall time,
  /// checkpoint write time; one JSON object per line, appended). Empty =
  /// `<checkpoint_dir>/telemetry.jsonl` when checkpointing with metrics
  /// enabled (`ODF_METRICS` truthy or SetMetricsEnabled), otherwise
  /// disabled.
  std::string telemetry_path;
};

/// Common interface of every forecasting method in the study: the paper's
/// BF/AF, the deep baselines (FC/RNN, MR) and the classic baselines
/// (NH, GP, VAR).
///
/// `Fit` trains (or estimates) the model on the training windows of
/// `dataset`; `Predict` maps a batch of s-step histories to h full OD
/// stochastic speed tensors, each [B, N, N', K] with softmax-normalized
/// bucket distributions in every cell.
class Forecaster {
 public:
  virtual ~Forecaster() = default;

  /// Display name used in result tables.
  virtual std::string name() const = 0;

  /// Fits on `split.train`, using `split.validation` for early stopping
  /// where applicable.
  virtual void Fit(const ForecastDataset& dataset,
                   const ForecastDataset::Split& split,
                   const TrainConfig& config) = 0;

  /// Forecasts `dataset.horizon()` future tensors for the given batch.
  virtual std::vector<Tensor> Predict(const Batch& batch) = 0;
};

}  // namespace odf

#endif  // ODF_CORE_FORECASTER_H_
