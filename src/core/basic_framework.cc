#include "core/basic_framework.h"

#include <sstream>

namespace odf {

namespace ag = odf::autograd;

BasicFramework::BasicFramework(int64_t num_origins, int64_t num_destinations,
                               int64_t num_buckets, int64_t horizon,
                               const BasicFrameworkConfig& config)
    : FactorizedForecaster(num_origins, num_destinations, num_buckets,
                           horizon, config.lambda_r, config.lambda_c),
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
                config.rank * num_destinations * num_buckets, init_rng_) {
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

BasicFramework::Factors BasicFramework::Factorize(const ag::Var& x,
                                                  bool train,
                                                  Rng& rng) const {
  // Factorization: FC-encode the sparse tensor, flattened (Sec. IV-B).
  const ag::Var flat = ag::Reshape(
      x, {x.dim(0), num_origins() * num_destinations() * num_buckets()});
  return {ag::Dropout(ag::Tanh(encode_r_.Forward(flat)), dropout(train),
                      train, rng),
          ag::Dropout(ag::Tanh(encode_c_.Forward(flat)), dropout(train),
                      train, rng)};
}

BasicFramework::FactorSequences BasicFramework::ForecastFactors(
    const FactorSequences& history) const {
  // Forecasting: two independent seq2seq GRUs (Sec. IV-C, Eq. 2).
  return {seq_r_.Forward(history.r, horizon()),
          seq_c_.Forward(history.c, horizon())};
}

BasicFramework::Factors BasicFramework::StepFactors(
    const FactorSequences& forecast, size_t j, int64_t batch) const {
  // FC projection of each side's latent state to its factor (Sec. IV-D).
  return {ag::Reshape(factor_r_.Forward(forecast.r[j]),
                      {batch, num_origins(), config_.rank, num_buckets()}),
          ag::Reshape(factor_c_.Forward(forecast.c[j]),
                      {batch, config_.rank, num_destinations(),
                       num_buckets()})};
}

}  // namespace odf
