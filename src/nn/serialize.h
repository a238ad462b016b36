#ifndef ODF_NN_SERIALIZE_H_
#define ODF_NN_SERIALIZE_H_

#include <limits>
#include <string>
#include <vector>

#include "nn/module.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace odf::nn {

/// Typed outcome of loading a checkpoint file. Loading never aborts: a
/// missing, truncated, corrupted or architecturally incompatible file is
/// reported here and leaves the destination model/optimizer untouched.
enum class LoadStatus {
  kOk = 0,
  /// File missing or unreadable.
  kIoError,
  /// The file does not start with the expected magic string.
  kBadMagic,
  /// Magic matched but the format version is unsupported.
  kBadVersion,
  /// Structural damage: CRC mismatch, truncation, or implausible counts.
  kCorrupt,
  /// Well-formed file whose parameter/optimizer shapes do not match the
  /// destination model.
  kArchMismatch,
};

/// Human-readable name of a LoadStatus (for logs and error messages).
const char* LoadStatusName(LoadStatus status);

/// Status plus a one-line diagnostic ("section PARM: tensor 3 shape …").
struct LoadResult {
  LoadStatus status = LoadStatus::kOk;
  std::string message;

  bool ok() const { return status == LoadStatus::kOk; }
};

// ---------------------------------------------------------------------------
// Model parameters (weights-only checkpoint).
// ---------------------------------------------------------------------------

/// Saves a module's parameters to a CRC-checked checkpoint file (format
/// docs/checkpoint_format.md, magic "ODFPARAM"). The write is atomic:
/// a crash never leaves a torn file at `path`. Returns false on I/O
/// failure.
bool SaveParameters(const Module& module, const std::string& path);

/// Loads a checkpoint produced by SaveParameters into `module` after
/// validating magic, version, CRC and every parameter shape. On any
/// failure the module is left untouched.
LoadResult LoadParametersChecked(Module& module, const std::string& path);

/// Bool convenience wrapper over LoadParametersChecked: logs the typed
/// error and returns false instead of aborting, even for structurally
/// hostile input.
bool LoadParameters(Module& module, const std::string& path);

// ---------------------------------------------------------------------------
// Full training state (crash-safe resume).
// ---------------------------------------------------------------------------

/// Complete state of TrainForecaster at an epoch boundary. Restoring this
/// into a freshly constructed model + optimizer + Rng continues training
/// bit-identically to a run that never stopped (see tests/checkpoint_test).
struct TrainingCheckpoint {
  /// Last completed 0-based epoch (also the step-decay schedule position:
  /// the next epoch to run is `epoch + 1`).
  int64_t epoch = -1;
  /// Per-epoch loss curves up to and including `epoch`.
  std::vector<float> train_losses;
  std::vector<float> validation_losses;
  /// Early-stopping bookkeeping.
  float best_validation_loss = std::numeric_limits<float>::infinity();
  int64_t best_epoch = -1;
  int64_t stale_epochs = 0;
  std::vector<Tensor> best_weights;  // empty until a best epoch exists
  /// Model parameters in Module::Parameters() order.
  std::vector<Tensor> parameters;
  /// Optimizer accumulators (Adam m/v + step count).
  OptimizerState optimizer;
  /// Training RNG mid-stream state (shuffling + dropout).
  Rng::State rng;
};

/// Atomically writes `checkpoint` to `path` in the versioned, CRC-checked
/// TrainingCheckpoint format (magic "ODFCKPT1"). Returns false on I/O
/// failure; a crash mid-save never corrupts an existing file at `path`.
bool SaveTrainingCheckpoint(const TrainingCheckpoint& checkpoint,
                            const std::string& path);

/// Parses and validates `path` into `*out`. On any failure `*out` is left
/// in an unspecified but safe state and the result carries the typed
/// error; hostile bytes can never abort or crash the process.
LoadResult LoadTrainingCheckpoint(const std::string& path,
                                  TrainingCheckpoint* out);

/// Shape-checks `tensors` against `module.Parameters()`: kArchMismatch
/// unless the counts and every shape agree. Touches nothing.
LoadResult CheckParameters(const Module& module,
                           const std::vector<Tensor>& tensors);

/// Shape-checks `tensors` against `module.Parameters()` and applies them.
/// On mismatch returns kArchMismatch and leaves the module untouched.
LoadResult ApplyParameters(Module& module, const std::vector<Tensor>& tensors);

}  // namespace odf::nn

#endif  // ODF_NN_SERIALIZE_H_
