#include "baselines/multitask.h"

#include <cmath>
#include <sstream>

namespace odf {

namespace ag = odf::autograd;

MultiTaskForecaster::MultiTaskForecaster(int64_t num_origins,
                                         int64_t num_destinations,
                                         int64_t num_buckets,
                                         int64_t horizon,
                                         const TimePartition& time_partition,
                                         const MultiTaskConfig& config)
    : NeuralForecaster(num_origins, num_destinations, num_buckets, horizon),
      time_partition_(time_partition),
      config_(config),
      init_rng_(config.seed),
      origin_embeddings_(RegisterParameter(Tensor::RandomNormal(
          Shape({num_origins, config.embed_dim}), init_rng_, 0.0f, 0.1f))),
      destination_embeddings_(RegisterParameter(Tensor::RandomNormal(
          Shape({num_destinations, config.embed_dim}), init_rng_, 0.0f,
          0.1f))),
      hidden_(2 * config.embed_dim + kTimeFeatures, config.hidden,
              init_rng_),
      output_(config.hidden, num_buckets, init_rng_) {
  RegisterSubmodule(&hidden_);
  RegisterSubmodule(&output_);
}

std::string MultiTaskForecaster::Describe() const {
  std::ostringstream os;
  os << "Emb_" << config_.embed_dim << "x2 + time_" << kTimeFeatures
     << " -> FC_" << config_.hidden << " -> FC_" << num_buckets();
  return os.str();
}

std::vector<float> MultiTaskForecaster::TimeFeatures(int64_t interval) const {
  const double hour = time_partition_.HourOfDay(interval);
  const double angle = 2.0 * M_PI * hour / 24.0;
  return {
      static_cast<float>(std::sin(angle)),
      static_cast<float>(std::cos(angle)),
      static_cast<float>(std::sin(2.0 * angle)),
      static_cast<float>(std::cos(2.0 * angle)),
      time_partition_.IsWeekend(interval) ? 1.0f : 0.0f,
  };
}

std::vector<ag::Var> MultiTaskForecaster::Forecast(const Batch& batch,
                                                   bool train,
                                                   Rng& rng) const {
  const int64_t b = batch.batch_size();
  const int64_t n = num_origins();
  const int64_t m = num_destinations();
  const int64_t e = config_.embed_dim;

  // Broadcast the embeddings over the full OD grid once per batch.
  const ag::Var zeros_o =
      ag::Var::Constant(Tensor(Shape({b, n, m, e})));
  const ag::Var zeros_d =
      ag::Var::Constant(Tensor(Shape({b, n, m, e})));
  ag::Var o_part =
      ag::Add(ag::Reshape(origin_embeddings_, {1, n, 1, e}), zeros_o);
  ag::Var d_part =
      ag::Add(ag::Reshape(destination_embeddings_, {1, 1, m, e}), zeros_d);

  std::vector<ag::Var> predictions;
  predictions.reserve(static_cast<size_t>(horizon()));
  for (int64_t j = 0; j < horizon(); ++j) {
    // Temporal features of the TARGET interval t+j+1 (this model predicts
    // from calendar position only).
    Tensor time_feat(Shape({b, 1, 1, kTimeFeatures}));
    for (int64_t bi = 0; bi < b; ++bi) {
      const int64_t target =
          batch.anchor_intervals[static_cast<size_t>(bi)] + 1 + j;
      const auto features = TimeFeatures(
          std::min(target, time_partition_.NumIntervals() - 1));
      for (int64_t f = 0; f < kTimeFeatures; ++f) {
        time_feat.At({bi, 0, 0, f}) = features[static_cast<size_t>(f)];
      }
    }
    ag::Var t_part =
        ag::Add(ag::Var::Constant(time_feat),
                ag::Var::Constant(Tensor(Shape({b, n, m, kTimeFeatures}))));

    ag::Var features = ag::Concat({o_part, d_part, t_part}, 3);
    ag::Var flat =
        ag::Reshape(features, {b * n * m, 2 * e + kTimeFeatures});
    ag::Var h = ag::Dropout(ag::Relu(hidden_.Forward(flat)), dropout(train),
                            train, rng);
    ag::Var logits = ag::Reshape(output_.Forward(h),
                                 {b, n, m, num_buckets()});
    predictions.push_back(ag::SoftmaxLastDim(logits));
  }
  return predictions;
}

}  // namespace odf
