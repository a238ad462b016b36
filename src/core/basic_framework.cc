#include "core/basic_framework.h"

#include <sstream>

#include "autograd/capture.h"
#include "core/loss_util.h"
#include "core/recovery.h"

namespace odf {

namespace ag = odf::autograd;

BasicFramework::BasicFramework(int64_t num_origins, int64_t num_destinations,
                               int64_t num_buckets, int64_t horizon,
                               const BasicFrameworkConfig& config)
    : num_origins_(num_origins),
      num_destinations_(num_destinations),
      num_buckets_(num_buckets),
      horizon_(horizon),
      config_(config),
      init_rng_(config.seed),
      encode_r_(num_origins * num_destinations * num_buckets,
                config.encode_dim, init_rng_),
      encode_c_(num_origins * num_destinations * num_buckets,
                config.encode_dim, init_rng_),
      seq_r_(config.encode_dim, config.gru_hidden, init_rng_,
             config.use_attention, config.gru_layers),
      seq_c_(config.encode_dim, config.gru_hidden, init_rng_,
             config.use_attention, config.gru_layers),
      factor_r_(config.encode_dim,
                num_origins * config.rank * num_buckets, init_rng_),
      factor_c_(config.encode_dim,
                config.rank * num_destinations * num_buckets, init_rng_),
      temperature_(RegisterParameter(Tensor::Scalar(4.0f))) {
  ODF_CHECK_GT(horizon, 0);
  ODF_CHECK_GT(config.rank, 0);
  RegisterSubmodule(&encode_r_);
  RegisterSubmodule(&encode_c_);
  RegisterSubmodule(&seq_r_);
  RegisterSubmodule(&seq_c_);
  RegisterSubmodule(&factor_r_);
  RegisterSubmodule(&factor_c_);
}

std::string BasicFramework::Describe() const {
  std::ostringstream os;
  os << "2x[FC_" << config_.encode_dim << " -> GRU_" << config_.gru_hidden
     << " -> FC_" << factor_r_.out_features() << "/"
     << factor_c_.out_features() << "], beta=" << config_.rank;
  return os.str();
}

BasicFramework::Forward BasicFramework::Run(const Batch& batch, bool train,
                                            Rng& rng) const {
  const int64_t b = batch.batch_size();
  const int64_t flat = num_origins_ * num_destinations_ * num_buckets_;

  // Factorization: FC-encode each sparse historical tensor (Sec. IV-B).
  std::vector<ag::Var> r_seq;
  std::vector<ag::Var> c_seq;
  r_seq.reserve(batch.inputs.size());
  c_seq.reserve(batch.inputs.size());
  for (size_t t = 0; t < batch.inputs.size(); ++t) {
    ag::ScopedPhase phase("factorize");
    ag::Var x = ag::Var::BatchInput(batch.inputs[t].Reshape({b, flat}),
                                    static_cast<int64_t>(t));
    r_seq.push_back(ag::Dropout(ag::Tanh(encode_r_.Forward(x)),
                                train ? dropout_rate() : 0.0f, train, rng));
    c_seq.push_back(ag::Dropout(ag::Tanh(encode_c_.Forward(x)),
                                train ? dropout_rate() : 0.0f, train, rng));
  }

  // Forecasting: two independent seq2seq GRUs (Sec. IV-C, Eq. 2).
  std::vector<ag::Var> r_outs = seq_r_.Forward(r_seq, horizon_);
  std::vector<ag::Var> c_outs = seq_c_.Forward(c_seq, horizon_);

  // Recovery: factor product + softmax (Sec. IV-D, Eq. 3).
  ag::ScopedPhase phase("recover");
  Forward forward;
  for (int64_t j = 0; j < horizon_; ++j) {
    ag::Var r = ag::Reshape(
        factor_r_.Forward(r_outs[static_cast<size_t>(j)]),
        {b, num_origins_, config_.rank, num_buckets_});
    ag::Var c = ag::Reshape(
        factor_c_.Forward(c_outs[static_cast<size_t>(j)]),
        {b, config_.rank, num_destinations_, num_buckets_});
    forward.predictions.push_back(
        RecoverFullTensorWithTemperature(r, c, temperature_));
    forward.r_factors.push_back(r);
    forward.c_factors.push_back(c);
  }
  return forward;
}

ag::Var BasicFramework::Loss(const Batch& batch, bool train, Rng& rng) {
  Forward forward = Run(batch, train, rng);
  ag::Var loss = MaskedForecastError(forward.predictions, batch);
  // Factor regularizers of Eq. 4, averaged over the batch.
  const float inv_batch = 1.0f / static_cast<float>(batch.batch_size());
  for (int64_t j = 0; j < horizon_; ++j) {
    loss = ag::Add(
        loss,
        ag::MulScalar(
            ag::FrobeniusSquared(forward.r_factors[static_cast<size_t>(j)]),
            config_.lambda_r * inv_batch));
    loss = ag::Add(
        loss,
        ag::MulScalar(
            ag::FrobeniusSquared(forward.c_factors[static_cast<size_t>(j)]),
            config_.lambda_c * inv_batch));
  }
  return loss;
}

std::vector<Tensor> BasicFramework::Predict(const Batch& batch) {
  Rng rng(0);  // unused: dropout disabled
  Forward forward = Run(batch, /*train=*/false, rng);
  std::vector<Tensor> predictions;
  predictions.reserve(forward.predictions.size());
  for (const auto& p : forward.predictions) predictions.push_back(p.value());
  return predictions;
}

}  // namespace odf
