#ifndef ODF_CORE_BASIC_FRAMEWORK_H_
#define ODF_CORE_BASIC_FRAMEWORK_H_

#include <string>
#include <vector>

#include "core/neural_forecaster.h"
#include "nn/gru.h"
#include "nn/linear.h"

namespace odf {

/// Hyper-parameters of the basic framework (paper Sec. IV, Table I).
struct BasicFrameworkConfig {
  /// Factorization rank β (paper sets r=5 at full scale).
  int64_t rank = 4;
  /// Dimension each sparse tensor is FC-encoded to before the GRU
  /// (Table I's FC_2; larger here because our tensors are tiny).
  int64_t encode_dim = 16;
  /// GRU hidden units (Table I's GRU_2/GRU_3).
  int64_t gru_hidden = 32;
  /// Stacked GRU layers (Table I's multi-layer configurations).
  int64_t gru_layers = 1;
  /// Factor regularization weights λ_R, λ_C (Eq. 4).
  float lambda_r = 1e-4f;
  float lambda_c = 1e-4f;
  /// Luong attention in the seq2seq decoders (paper future-work extension).
  bool use_attention = false;
  uint64_t seed = 11;
};

/// BF — the basic forecasting framework (paper Sec. IV):
/// Factorization (FC encode of each sparse flattened tensor, one branch per
/// factor side) → Forecasting (two seq2seq GRUs) → Recovery (per-bucket
/// factor product + softmax). Trained with the masked-Frobenius loss Eq. 4.
class BasicFramework : public FactorizedForecaster {
 public:
  BasicFramework(int64_t num_origins, int64_t num_destinations,
                 int64_t num_buckets, int64_t horizon,
                 const BasicFrameworkConfig& config);

  std::string name() const override { return "BF"; }
  std::string Describe() const override;

 private:
  Factors Factorize(const autograd::Var& x, bool train,
                    Rng& rng) const override;
  FactorSequences ForecastFactors(
      const FactorSequences& history) const override;
  Factors StepFactors(const FactorSequences& forecast, size_t j,
                      int64_t batch) const override;

  BasicFrameworkConfig config_;
  Rng init_rng_;
  nn::Linear encode_r_;
  nn::Linear encode_c_;
  nn::Seq2SeqGru seq_r_;
  nn::Seq2SeqGru seq_c_;
  nn::Linear factor_r_;
  nn::Linear factor_c_;
};

}  // namespace odf

#endif  // ODF_CORE_BASIC_FRAMEWORK_H_
