#ifndef ODF_BASELINES_MULTITASK_H_
#define ODF_BASELINES_MULTITASK_H_

#include <string>
#include <vector>

#include "core/neural_forecaster.h"
#include "nn/linear.h"
#include "od/trip.h"

namespace odf {

/// Hyper-parameters of the MR baseline.
struct MultiTaskConfig {
  /// Region embedding dimension.
  int64_t embed_dim = 8;
  /// Hidden width of the shared MLP.
  int64_t hidden = 32;
  uint64_t seed = 23;
};

/// MR — Multi-task Representation learning (paper baseline 2, extended
/// from [2]): learns origin/destination region embeddings shared across all
/// OD pairs (the multi-task representation) plus daily/weekly temporal
/// features, and predicts each cell's histogram from
/// (origin embedding, destination embedding, time-of-day, day-of-week)
/// alone. By design it uses NO near-history input — the paper's point is
/// that such models capture periodic patterns but cannot react to current
/// conditions.
class MultiTaskForecaster : public NeuralForecaster {
 public:
  MultiTaskForecaster(int64_t num_origins, int64_t num_destinations,
                      int64_t num_buckets, int64_t horizon,
                      const TimePartition& time_partition,
                      const MultiTaskConfig& config);

  std::string name() const override { return "MR"; }
  std::string Describe() const override;

  /// Predicted full tensors for each horizon step.
  std::vector<autograd::Var> Forecast(const Batch& batch, bool train,
                                      Rng& rng) const override;

  /// Number of temporal features per interval.
  static constexpr int64_t kTimeFeatures = 5;

 private:
  /// Temporal feature vector for one interval.
  std::vector<float> TimeFeatures(int64_t interval) const;

  TimePartition time_partition_;
  MultiTaskConfig config_;
  Rng init_rng_;
  autograd::Var origin_embeddings_;       // [N, E]
  autograd::Var destination_embeddings_;  // [N', E]
  nn::Linear hidden_;
  nn::Linear output_;
};

}  // namespace odf

#endif  // ODF_BASELINES_MULTITASK_H_
