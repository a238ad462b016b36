#include "core/trainer.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <span>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace odf {

namespace {

// Seed offset for the per-batch evaluation Rng streams (see EvaluateLoss).
constexpr uint64_t kEvalRngSalt = 0xE7A1B2C3D4E5F607ull;

}  // namespace

float EvaluateLoss(NeuralForecaster& model, const ForecastDataset& dataset,
                   const std::vector<int64_t>& samples, int64_t batch_size,
                   uint64_t seed) {
  ODF_TRACE_SCOPE("train/", "evaluate", "train");
  const int64_t num_batches =
      (static_cast<int64_t>(samples.size()) + batch_size - 1) / batch_size;
  if (num_batches == 0) return 0.0f;
  std::vector<double> losses(static_cast<size_t>(num_batches), 0.0);
  std::vector<double> weights(static_cast<size_t>(num_batches), 0.0);
  // Each batch is a whole forward pass: worth a chunk of its own.
  ParallelFor(num_batches, kMinChunkWork, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      const size_t start = static_cast<size_t>(b * batch_size);
      const size_t len =
          std::min(static_cast<size_t>(batch_size), samples.size() - start);
      const Batch batch = dataset.MakeBatch(
          std::span<const int64_t>(samples.data() + start, len));
      Rng batch_rng(seed ^ (kEvalRngSalt + static_cast<uint64_t>(b)));
      losses[static_cast<size_t>(b)] =
          model.Loss(batch, /*train=*/false, batch_rng).value().Item();
      weights[static_cast<size_t>(b)] = static_cast<double>(len);
    }
  });
  // Weight each batch's mean loss by its sample count: with a ragged final
  // batch an unweighted mean of batch means over-counts the short batch.
  double total = 0;
  for (size_t b = 0; b < losses.size(); ++b) total += losses[b] * weights[b];
  return static_cast<float>(total / static_cast<double>(samples.size()));
}

namespace {

// ---------------------------------------------------------------------------
// Checkpoint files: <dir>/ckpt-<epoch>.odfckpt, rolling, newest wins.
// ---------------------------------------------------------------------------

constexpr char kCheckpointPrefix[] = "ckpt-";
constexpr char kCheckpointSuffix[] = ".odfckpt";

std::string CheckpointPath(const std::string& dir, int64_t epoch) {
  char name[64];
  std::snprintf(name, sizeof name, "%s%08" PRId64 "%s", kCheckpointPrefix,
                epoch, kCheckpointSuffix);
  return (std::filesystem::path(dir) / name).string();
}

/// Checkpoint files in `dir` as (epoch, path), sorted by ascending epoch.
/// Non-matching files are ignored.
std::vector<std::pair<int64_t, std::string>> ListCheckpoints(
    const std::string& dir) {
  std::vector<std::pair<int64_t, std::string>> found;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec && ec != std::errc::no_such_file_or_directory) {
    // A missing directory is normal (fresh run, nothing written yet); any
    // other failure means checkpoints exist but cannot be listed — say so
    // instead of silently resuming from scratch / skipping pruning.
    ODF_LOG(Warning) << "cannot list checkpoint dir " << dir << ": "
                     << ec.message();
  }
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    const std::string prefix(kCheckpointPrefix);
    const std::string suffix(kCheckpointSuffix);
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const std::string digits =
        name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
    if (digits.empty() || digits.size() > 12 ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    found.emplace_back(std::stoll(digits), entry.path().string());
  }
  std::sort(found.begin(), found.end());
  return found;
}

/// Writes a rolling snapshot of the full training state after `epoch` and
/// prunes snapshots beyond `config.checkpoint_keep`.
void WriteCheckpoint(const TrainConfig& config, NeuralForecaster& model,
                     const nn::Adam& optimizer, const Rng& rng,
                     const TrainResult& result, int stale_epochs,
                     const std::vector<Tensor>& best_weights, int epoch) {
  std::error_code ec;
  std::filesystem::create_directories(config.checkpoint_dir, ec);

  nn::TrainingCheckpoint checkpoint;
  checkpoint.epoch = epoch;
  checkpoint.train_losses = result.train_losses;
  checkpoint.validation_losses = result.validation_losses;
  checkpoint.best_validation_loss = result.best_validation_loss;
  checkpoint.best_epoch = result.best_epoch;
  checkpoint.stale_epochs = stale_epochs;
  checkpoint.best_weights = best_weights;
  for (const auto& p : model.Parameters()) {
    checkpoint.parameters.push_back(p.value());
  }
  checkpoint.optimizer = optimizer.ExportState();
  checkpoint.rng = rng.SaveState();

  const std::string path = CheckpointPath(config.checkpoint_dir, epoch);
  if (!nn::SaveTrainingCheckpoint(checkpoint, path)) {
    ODF_LOG(Warning) << "failed to write checkpoint " << path;
    return;
  }

  auto existing = ListCheckpoints(config.checkpoint_dir);
  const int keep = std::max(1, config.checkpoint_keep);
  while (existing.size() > static_cast<size_t>(keep)) {
    std::filesystem::remove(existing.front().second, ec);
    existing.erase(existing.begin());
  }
}

/// Tries to restore the newest valid checkpoint. On success commits the
/// full state into model/optimizer/rng/result and returns the next epoch
/// to run; on failure (no dir, no files, all corrupt or incompatible)
/// leaves everything untouched and returns 0.
int ResumeFromCheckpoint(const TrainConfig& config, NeuralForecaster& model,
                         nn::Adam& optimizer, Rng& rng, TrainResult& result,
                         int& stale_epochs,
                         std::vector<Tensor>& best_weights) {
  auto candidates = ListCheckpoints(config.checkpoint_dir);
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    const std::string& path = it->second;
    nn::TrainingCheckpoint checkpoint;
    nn::LoadResult load = nn::LoadTrainingCheckpoint(path, &checkpoint);
    // Validate every section before committing any, so a rejected file
    // leaves the model and the optimizer as they were.
    if (load.ok()) load = nn::CheckParameters(model, checkpoint.parameters);
    // Best weights, when present, must mirror the parameter shapes.
    if (load.ok() && !checkpoint.best_weights.empty()) {
      load = nn::CheckParameters(model, checkpoint.best_weights);
      if (!load.ok()) load.message = "best weights: " + load.message;
    }
    // ImportState checks every slot before it replaces any, so it goes last.
    if (load.ok() && !optimizer.ImportState(checkpoint.optimizer)) {
      load = {nn::LoadStatus::kArchMismatch,
              "optimizer state does not match model parameters"};
    }
    if (!load.ok()) {
      ODF_LOG(Warning) << "skipping checkpoint " << path << ": "
                       << nn::LoadStatusName(load.status) << " — "
                       << load.message;
      continue;
    }
    ODF_CHECK(nn::ApplyParameters(model, checkpoint.parameters).ok());
    rng.LoadState(checkpoint.rng);
    result.train_losses = checkpoint.train_losses;
    result.validation_losses = checkpoint.validation_losses;
    result.best_validation_loss = checkpoint.best_validation_loss;
    result.best_epoch = static_cast<int>(checkpoint.best_epoch);
    result.epochs_run = static_cast<int>(checkpoint.epoch) + 1;
    stale_epochs = static_cast<int>(checkpoint.stale_epochs);
    best_weights = std::move(checkpoint.best_weights);
    ODF_LOG(Info) << "resumed " << model.name() << " from " << path
                  << " (epoch " << checkpoint.epoch << ")";
    return static_cast<int>(checkpoint.epoch) + 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Per-epoch telemetry (docs/observability.md): one JSON object per line,
// appended so a resumed run extends the same file.
// ---------------------------------------------------------------------------

struct EpochTelemetry {
  int epoch = 0;
  float train_loss = 0.0f;
  float val_loss = 0.0f;
  float grad_norm = 0.0f;  // mean pre-clip L2 norm over the epoch's batches
  float learning_rate = 0.0f;
  double epoch_seconds = 0.0;
  double eval_seconds = 0.0;
  double checkpoint_seconds = 0.0;
};

/// `config.telemetry_path` wins; otherwise checkpointing runs default to
/// `<checkpoint_dir>/telemetry.jsonl` while metrics are enabled
/// (`ODF_METRICS` or SetMetricsEnabled). Empty result = telemetry disabled.
std::string ResolveTelemetryPath(const TrainConfig& config) {
  if (!config.telemetry_path.empty()) return config.telemetry_path;
  if (!config.checkpoint_dir.empty() && MetricsEnabled()) {
    return (std::filesystem::path(config.checkpoint_dir) / "telemetry.jsonl")
        .string();
  }
  return {};
}

void AppendTelemetry(const std::string& path, const EpochTelemetry& t) {
  ODF_TRACE_SCOPE("train/", "telemetry", "train");
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    ODF_LOG(Warning) << "cannot append telemetry to " << path;
    return;
  }
  std::fprintf(f,
               "{\"epoch\":%d,\"train_loss\":%.9g,\"val_loss\":%.9g,"
               "\"grad_norm\":%.9g,\"learning_rate\":%.9g,"
               "\"epoch_seconds\":%.6f,\"eval_seconds\":%.6f,"
               "\"checkpoint_seconds\":%.6f}\n",
               t.epoch, static_cast<double>(t.train_loss),
               static_cast<double>(t.val_loss),
               static_cast<double>(t.grad_norm),
               static_cast<double>(t.learning_rate), t.epoch_seconds,
               t.eval_seconds, t.checkpoint_seconds);
  std::fclose(f);
}

}  // namespace

TrainResult TrainForecaster(NeuralForecaster& model,
                            const ForecastDataset& dataset,
                            const ForecastDataset::Split& split,
                            const TrainConfig& config) {
  ODF_CHECK(!split.train.empty());
  const bool checkpointing = !config.checkpoint_dir.empty();
  const std::string telemetry_path = ResolveTelemetryPath(config);
  if (!telemetry_path.empty()) {
    const auto parent = std::filesystem::path(telemetry_path).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(parent, ec);
    }
  }
  Rng rng(config.seed);
  model.set_dropout_rate(config.dropout);
  nn::Adam optimizer(model.Parameters(), config.learning_rate);
  nn::StepDecaySchedule schedule(config.learning_rate, config.lr_decay,
                                 config.lr_decay_every_epochs);
  const std::vector<int64_t>& val_samples =
      split.validation.empty() ? split.train : split.validation;

  TrainResult result;
  result.best_validation_loss = std::numeric_limits<float>::infinity();
  std::vector<Tensor> best_weights;
  int stale_epochs = 0;
  int start_epoch = 0;
  if (checkpointing && config.resume) {
    start_epoch = ResumeFromCheckpoint(config, model, optimizer, rng, result,
                                       stale_epochs, best_weights);
  }
  Stopwatch watch;

  // A resumed run whose checkpoint already crossed the patience threshold
  // must not train further; the loop below re-checks after each epoch.
  const bool already_stopped = stale_epochs > config.patience;

  for (int epoch = start_epoch; !already_stopped && epoch < config.epochs;
       ++epoch) {
    ODF_TRACE_SCOPE("train/", "epoch", "train");
    Stopwatch epoch_watch;
    schedule.Apply(optimizer, epoch);
    double epoch_loss = 0;
    double epoch_grad_norm = 0;
    int64_t batches = 0;
    for (const auto& indices :
         dataset.ShuffledBatches(split.train, config.batch_size, rng)) {
      ODF_TRACE_SCOPE("train/", "batch", "train");
      Batch batch = dataset.MakeBatch(indices);
      optimizer.ZeroGrad();
      autograd::Var loss = model.Loss(batch, /*train=*/true, rng);
      loss.Backward();
      epoch_grad_norm += optimizer.ClipGradNorm(config.grad_clip_norm);
      optimizer.Step();
      epoch_loss += loss.value().Item();
      ++batches;
    }
    const float train_loss =
        batches == 0 ? 0.0f : static_cast<float>(epoch_loss / batches);
    const float grad_norm =
        batches == 0 ? 0.0f : static_cast<float>(epoch_grad_norm / batches);
    Stopwatch eval_watch;
    const float val_loss = EvaluateLoss(model, dataset, val_samples,
                                        config.batch_size, config.seed);
    const double eval_seconds = eval_watch.ElapsedSeconds();
    result.train_losses.push_back(train_loss);
    result.validation_losses.push_back(val_loss);
    result.epochs_run = epoch + 1;
    if (MetricsEnabled()) {
      MetricsRegistry::Global().GetCounter("train.epochs").Add(1);
      MetricsRegistry::Global().GetGauge("train.val_loss").Set(val_loss);
      MetricsRegistry::Global().GetGauge("train.grad_norm").Set(grad_norm);
    }

    if (config.verbose) {
      ODF_LOG(Info) << model.name() << " epoch " << epoch << " train "
                    << train_loss << " val " << val_loss << " lr "
                    << optimizer.learning_rate() << " ("
                    << watch.ElapsedSeconds() << "s)";
    }

    if (val_loss < result.best_validation_loss) {
      result.best_validation_loss = val_loss;
      result.best_epoch = epoch;
      stale_epochs = 0;
      best_weights.clear();
      for (const auto& p : model.Parameters()) {
        best_weights.push_back(p.value());
      }
    } else {
      ++stale_epochs;
    }
    const bool stopping =
        stale_epochs > config.patience || epoch == config.epochs - 1;

    double checkpoint_seconds = 0.0;
    if (checkpointing &&
        (stopping || (epoch + 1) % std::max(1, config.checkpoint_every_epochs)
                         == 0)) {
      ODF_TRACE_SCOPE("train/", "checkpoint", "train");
      Stopwatch checkpoint_watch;
      WriteCheckpoint(config, model, optimizer, rng, result, stale_epochs,
                      best_weights, epoch);
      checkpoint_seconds = checkpoint_watch.ElapsedSeconds();
    }
    if (!telemetry_path.empty()) {
      EpochTelemetry telemetry;
      telemetry.epoch = epoch;
      telemetry.train_loss = train_loss;
      telemetry.val_loss = val_loss;
      telemetry.grad_norm = grad_norm;
      telemetry.learning_rate = optimizer.learning_rate();
      telemetry.epoch_seconds = epoch_watch.ElapsedSeconds();
      telemetry.eval_seconds = eval_seconds;
      telemetry.checkpoint_seconds = checkpoint_seconds;
      AppendTelemetry(telemetry_path, telemetry);
    }
    if (stale_epochs > config.patience) break;
  }

  // Restore the best-validation weights.
  if (!best_weights.empty()) {
    auto params = model.Parameters();
    ODF_CHECK_EQ(params.size(), best_weights.size());
    for (size_t i = 0; i < params.size(); ++i) {
      params[i].SetValue(best_weights[i]);
    }
  }
  return result;
}

void NeuralForecaster::Fit(const ForecastDataset& dataset,
                           const ForecastDataset::Split& split,
                           const TrainConfig& config) {
  TrainForecaster(*this, dataset, split, config);
}

}  // namespace odf
