#ifndef ODF_CORE_NEURAL_FORECASTER_H_
#define ODF_CORE_NEURAL_FORECASTER_H_

#include <string>
#include <vector>

#include "core/forecaster.h"
#include "nn/module.h"
#include "util/rng.h"

namespace odf {

/// Base of all gradient-trained forecasters (FC/RNN, MR, BF, AF): a
/// Forecaster that is also an nn::Module and exposes a differentiable batch
/// loss; Fit() is provided by the shared Trainer (core/trainer.h).
class NeuralForecaster : public Forecaster, public nn::Module {
 public:
  /// The model's forward pass over a batch: `horizon()` predicted full
  /// tensors [B, N, N', K]. `train` enables dropout, drawn from `rng`.
  /// Predict, the default Loss and serve::PlanCompiler all run this.
  virtual std::vector<autograd::Var> Forecast(const Batch& batch, bool train,
                                              Rng& rng) const = 0;

  /// Scalar training objective for one batch. The default is the masked
  /// forecast error of Forecast (core/loss_util.h); BF and AF add their
  /// factor regularizers (paper Eqs. 4 and 11). `train` enables dropout.
  virtual autograd::Var Loss(const Batch& batch, bool train, Rng& rng);

  /// Forecast at inference (no dropout), as plain tensors.
  std::vector<Tensor> Predict(const Batch& batch) final;

  /// One-line architecture summary (paper Table I "Configuration").
  virtual std::string Describe() const = 0;

  /// Trains with the shared Trainer (Adam + step decay + early stopping).
  void Fit(const ForecastDataset& dataset,
           const ForecastDataset::Split& split,
           const TrainConfig& config) override;

  int64_t num_origins() const { return num_origins_; }
  int64_t num_destinations() const { return num_destinations_; }
  int64_t num_buckets() const { return num_buckets_; }
  int64_t horizon() const { return horizon_; }

  /// Dropout rate applied by Loss() when `train` is true. The Trainer sets
  /// this from TrainConfig::dropout; the default is the paper's 0.2.
  float dropout_rate() const { return dropout_rate_; }
  void set_dropout_rate(float rate) {
    ODF_CHECK_GE(rate, 0.0f);
    ODF_CHECK_LT(rate, 1.0f);
    dropout_rate_ = rate;
  }

 protected:
  /// N origins, N' destinations, K buckets, `horizon` forecast steps.
  NeuralForecaster(int64_t num_origins, int64_t num_destinations,
                   int64_t num_buckets, int64_t horizon);

  /// The dropout rate Forecast applies: dropout_rate() when training, else 0.
  float dropout(bool train) const { return train ? dropout_rate_ : 0.0f; }

 private:
  int64_t num_origins_;
  int64_t num_destinations_;
  int64_t num_buckets_;
  int64_t horizon_;
  float dropout_rate_ = 0.2f;
};

/// The paper's three-stage forecaster shared by BF (Sec. IV) and AF
/// (Sec. V): factorize each historical tensor on its own into an R side and
/// a C side, forecast both factor sequences, then recover every step's full
/// tensor from R̂ [B, N, β, K] and Ĉ [B, β, N', K] with the per-bucket factor
/// product and a learnable-temperature softmax (Sec. IV-D). A framework
/// supplies one interval's factorization, its forecasting stage and,
/// optionally, its regularizer; this class owns the per-interval loop,
/// recovery, the temperature and the regularized loss.
///
/// The forward splits at the factorization: `FactorizeInterval` and
/// `ForecastFromFactors` are the two stages serve::PlanCompiler captures,
/// and Forecast is the one on each input interval, then the other.
class FactorizedForecaster : public NeuralForecaster {
 public:
  /// An R side and a C side: one interval's factorization, or one horizon
  /// step's factors R̂ [B, N, β, K] and Ĉ [B, β, N', K].
  struct Factors {
    autograd::Var r;
    autograd::Var c;
  };
  /// One factor sequence per side, one element per time step.
  struct FactorSequences {
    std::vector<autograd::Var> r;
    std::vector<autograd::Var> c;
  };

  std::vector<autograd::Var> Forecast(const Batch& batch, bool train,
                                      Rng& rng) const final;

  /// Masked forecast error plus, per step, λ_R·‖R̂‖ + λ_C·‖Ĉ‖ averaged over
  /// the batch (paper Eq. 4 for BF, Eq. 11 for AF).
  autograd::Var Loss(const Batch& batch, bool train, Rng& rng) final;

  /// The factorization stage on one interval `x` [B, N, N', K], fed as batch
  /// input `input_index`, under the `factorize` phase. `train` applies
  /// dropout, drawn R then C. A sample's factors depend only on its interval
  /// and the weights.
  Factors FactorizeInterval(const Tensor& x, int64_t input_index, bool train,
                            Rng& rng) const;

  /// The forecasting and recovery stages: `history` holds one factor pair
  /// per input interval, oldest first, as FactorizeInterval returns them;
  /// the result is `horizon()` predicted tensors [B, N, N', K].
  std::vector<autograd::Var> ForecastFromFactors(
      const FactorSequences& history) const;

 protected:
  /// `lambda_r`/`lambda_c` weight the factor regularizers of Loss.
  FactorizedForecaster(int64_t num_origins, int64_t num_destinations,
                       int64_t num_buckets, int64_t horizon, float lambda_r,
                       float lambda_c);

  /// One interval's factorization (the framework's own model): x
  /// [B, N, N', K] to its R and C sides, dropout drawn R then C.
  virtual Factors Factorize(const autograd::Var& x, bool train,
                            Rng& rng) const = 0;
  /// Forecasting stage: the factor sequences of the input window to
  /// `horizon()`-long output sequences.
  virtual FactorSequences ForecastFactors(
      const FactorSequences& history) const = 0;
  /// Step `j`'s factors from the forecast sequences; runs inside the
  /// `recover` phase, just before that step's recovery.
  virtual Factors StepFactors(const FactorSequences& forecast, size_t j,
                              int64_t batch) const = 0;
  /// Unweighted regularizers of one step's factors (‖R̂‖, ‖Ĉ‖). The default
  /// is the squared Frobenius norm of Eq. 4.
  virtual Factors Regularizers(const Factors& factors) const;

 private:
  struct Forward {
    std::vector<autograd::Var> predictions;  // h × [B, N, N', K]
    std::vector<Factors> factors;            // h steps
  };
  Forward Run(const Batch& batch, bool train, Rng& rng) const;
  Forward ForecastAndRecover(const FactorSequences& history) const;

  float lambda_r_;
  float lambda_c_;
  /// Learnable softmax temperature of the recovery step.
  autograd::Var temperature_;
};

}  // namespace odf

#endif  // ODF_CORE_NEURAL_FORECASTER_H_
