#include "core/neural_forecaster.h"

#include "autograd/capture.h"
#include "core/loss_util.h"
#include "core/recovery.h"

namespace odf {

namespace ag = odf::autograd;

NeuralForecaster::NeuralForecaster(int64_t num_origins,
                                   int64_t num_destinations,
                                   int64_t num_buckets, int64_t horizon)
    : num_origins_(num_origins),
      num_destinations_(num_destinations),
      num_buckets_(num_buckets),
      horizon_(horizon) {
  ODF_CHECK_GT(horizon, 0);
}

ag::Var NeuralForecaster::Loss(const Batch& batch, bool train, Rng& rng) {
  return MaskedForecastError(Forecast(batch, train, rng), batch);
}

std::vector<Tensor> NeuralForecaster::Predict(const Batch& batch) {
  Rng rng(0);  // unused: dropout disabled
  std::vector<Tensor> predictions;
  for (const ag::Var& p : Forecast(batch, /*train=*/false, rng)) {
    predictions.push_back(p.value());
  }
  return predictions;
}

FactorizedForecaster::FactorizedForecaster(int64_t num_origins,
                                           int64_t num_destinations,
                                           int64_t num_buckets,
                                           int64_t horizon, float lambda_r,
                                           float lambda_c)
    : NeuralForecaster(num_origins, num_destinations, num_buckets, horizon),
      lambda_r_(lambda_r),
      lambda_c_(lambda_c),
      temperature_(RegisterParameter(Tensor::Scalar(4.0f))) {}

FactorizedForecaster::Factors FactorizedForecaster::FactorizeInterval(
    const Tensor& x, int64_t input_index, bool train, Rng& rng) const {
  ag::ScopedPhase phase("factorize");
  return Factorize(ag::Var::BatchInput(x, input_index), train, rng);
}

std::vector<ag::Var> FactorizedForecaster::ForecastFromFactors(
    const FactorSequences& history) const {
  return ForecastAndRecover(history).predictions;
}

FactorizedForecaster::Forward FactorizedForecaster::Run(const Batch& batch,
                                                        bool train,
                                                        Rng& rng) const {
  // Factorization of each historical tensor on its own (Sec. IV-B, V-A).
  FactorSequences history;
  history.r.reserve(batch.inputs.size());
  history.c.reserve(batch.inputs.size());
  for (size_t t = 0; t < batch.inputs.size(); ++t) {
    Factors factors = FactorizeInterval(
        batch.inputs[t], static_cast<int64_t>(t), train, rng);
    history.r.push_back(std::move(factors.r));
    history.c.push_back(std::move(factors.c));
  }
  return ForecastAndRecover(history);
}

FactorizedForecaster::Forward FactorizedForecaster::ForecastAndRecover(
    const FactorSequences& history) const {
  const FactorSequences forecast = ForecastFactors(history);
  const int64_t batch = history.r.front().dim(0);
  // Recovery: factor product + softmax (Sec. IV-D, Eq. 3).
  ag::ScopedPhase phase("recover");
  Forward forward;
  for (size_t j = 0; j < static_cast<size_t>(horizon()); ++j) {
    Factors factors = StepFactors(forecast, j, batch);
    forward.predictions.push_back(
        RecoverFullTensorWithTemperature(factors.r, factors.c, temperature_));
    forward.factors.push_back(std::move(factors));
  }
  return forward;
}

std::vector<ag::Var> FactorizedForecaster::Forecast(const Batch& batch,
                                                    bool train,
                                                    Rng& rng) const {
  return Run(batch, train, rng).predictions;
}

FactorizedForecaster::Factors FactorizedForecaster::Regularizers(
    const Factors& factors) const {
  return {ag::FrobeniusSquared(factors.r), ag::FrobeniusSquared(factors.c)};
}

ag::Var FactorizedForecaster::Loss(const Batch& batch, bool train, Rng& rng) {
  const Forward forward = Run(batch, train, rng);
  ag::Var loss = MaskedForecastError(forward.predictions, batch);
  const float inv_batch = 1.0f / static_cast<float>(batch.batch_size());
  for (const Factors& factors : forward.factors) {
    const Factors penalty = Regularizers(factors);
    loss = ag::Add(loss, ag::MulScalar(penalty.r, lambda_r_ * inv_batch));
    loss = ag::Add(loss, ag::MulScalar(penalty.c, lambda_c_ * inv_batch));
  }
  return loss;
}

}  // namespace odf
