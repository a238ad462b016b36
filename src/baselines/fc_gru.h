#ifndef ODF_BASELINES_FC_GRU_H_
#define ODF_BASELINES_FC_GRU_H_

#include <string>
#include <vector>

#include "core/neural_forecaster.h"
#include "nn/gru.h"
#include "nn/linear.h"

namespace odf {

/// Hyper-parameters of the FC/RNN baseline (paper Table I "FC" row).
struct FcGruConfig {
  /// FC encoding dimension of each flattened input tensor.
  int64_t encode_dim = 16;
  /// GRU hidden units.
  int64_t gru_hidden = 32;
  /// Luong attention in the decoder (future-work extension).
  bool use_attention = false;
  uint64_t seed = 17;
};

/// FC (a.k.a. RNN [30] in Table II): the deep baseline without
/// factorization — each sparse tensor is FC-encoded, a seq2seq GRU models
/// the dynamics, and a final FC projects straight back to the full
/// N×N'×K tensor, softmax-normalized per cell. Contends with temporal
/// dynamics but not with sparsity (no factorization) or spatial structure.
class FcGruForecaster : public NeuralForecaster {
 public:
  FcGruForecaster(int64_t num_origins, int64_t num_destinations,
                  int64_t num_buckets, int64_t horizon,
                  const FcGruConfig& config);

  std::string name() const override { return "FC"; }
  std::string Describe() const override;

  std::vector<autograd::Var> Forecast(const Batch& batch, bool train,
                                      Rng& rng) const override;

 private:
  FcGruConfig config_;
  Rng init_rng_;
  nn::Linear encode_;
  nn::Seq2SeqGru seq_;
  nn::Linear decode_;
};

}  // namespace odf

#endif  // ODF_BASELINES_FC_GRU_H_
