#ifndef ODF_CORE_NEURAL_FORECASTER_H_
#define ODF_CORE_NEURAL_FORECASTER_H_

#include <string>

#include "core/forecaster.h"
#include "nn/module.h"
#include "util/rng.h"

namespace odf::serve {
class PlanCompiler;  // serve/forward_plan.h: captures Run to compile plans
}  // namespace odf::serve

namespace odf {

/// Base of all gradient-trained forecasters (FC/RNN, MR, BF, AF): a
/// Forecaster that is also an nn::Module and exposes a differentiable batch
/// loss; Fit() is provided by the shared Trainer (core/trainer.h).
class NeuralForecaster : public Forecaster, public nn::Module {
 public:
  /// Scalar training objective for one batch (the framework-specific loss,
  /// e.g. paper Eq. 4 for BF, Eq. 11 for AF). `train` enables dropout.
  virtual autograd::Var Loss(const Batch& batch, bool train, Rng& rng) = 0;

  /// One-line architecture summary (paper Table I "Configuration").
  virtual std::string Describe() const = 0;

  /// Trains with the shared Trainer (Adam + step decay + early stopping).
  void Fit(const ForecastDataset& dataset,
           const ForecastDataset::Split& split,
           const TrainConfig& config) override;

  /// Dropout rate applied by Loss() when `train` is true. The Trainer sets
  /// this from TrainConfig::dropout; the default is the paper's 0.2.
  float dropout_rate() const { return dropout_rate_; }
  void set_dropout_rate(float rate) {
    ODF_CHECK_GE(rate, 0.0f);
    ODF_CHECK_LT(rate, 1.0f);
    dropout_rate_ = rate;
  }

 private:
  float dropout_rate_ = 0.2f;
};

}  // namespace odf

#endif  // ODF_CORE_NEURAL_FORECASTER_H_
