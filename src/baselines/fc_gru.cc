#include "baselines/fc_gru.h"

#include <sstream>

namespace odf {

namespace ag = odf::autograd;

FcGruForecaster::FcGruForecaster(int64_t num_origins,
                                 int64_t num_destinations,
                                 int64_t num_buckets, int64_t horizon,
                                 const FcGruConfig& config)
    : NeuralForecaster(num_origins, num_destinations, num_buckets, horizon),
      config_(config),
      init_rng_(config.seed),
      encode_(num_origins * num_destinations * num_buckets,
              config.encode_dim, init_rng_),
      seq_(config.encode_dim, config.gru_hidden, init_rng_,
           config.use_attention),
      decode_(config.encode_dim,
              num_origins * num_destinations * num_buckets, init_rng_) {
  RegisterSubmodule(&encode_);
  RegisterSubmodule(&seq_);
  RegisterSubmodule(&decode_);
}

std::string FcGruForecaster::Describe() const {
  std::ostringstream os;
  os << "FC_" << config_.encode_dim << " -> GRU_" << config_.gru_hidden
     << " -> FC_" << decode_.out_features();
  return os.str();
}

std::vector<ag::Var> FcGruForecaster::Forecast(const Batch& batch,
                                               bool train, Rng& rng) const {
  const int64_t b = batch.batch_size();
  const int64_t flat = num_origins() * num_destinations() * num_buckets();
  std::vector<ag::Var> encoded;
  encoded.reserve(batch.inputs.size());
  for (const Tensor& input : batch.inputs) {
    ag::Var x = ag::Var::Constant(input.Reshape({b, flat}));
    encoded.push_back(ag::Dropout(ag::Tanh(encode_.Forward(x)),
                                  dropout(train), train, rng));
  }
  std::vector<ag::Var> outputs = seq_.Forward(encoded, horizon());
  std::vector<ag::Var> predictions;
  predictions.reserve(outputs.size());
  for (const auto& out : outputs) {
    ag::Var full = ag::Reshape(
        decode_.Forward(out),
        {b, num_origins(), num_destinations(), num_buckets()});
    predictions.push_back(ag::SoftmaxLastDim(full));
  }
  return predictions;
}

}  // namespace odf
