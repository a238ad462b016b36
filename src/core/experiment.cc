#include "core/experiment.h"

#include <algorithm>

namespace odf {

Tensor SamplePrediction(const Tensor& batched, int64_t b) {
  ODF_CHECK_EQ(batched.rank(), 4);
  const int64_t n = batched.dim(1);
  const int64_t m = batched.dim(2);
  const int64_t k = batched.dim(3);
  Tensor out(Shape({n, m, k}));
  const int64_t cell = n * m * k;
  std::copy(batched.data() + b * cell, batched.data() + (b + 1) * cell,
            out.data());
  return out;
}

std::vector<MetricAccumulator> EvaluateForecaster(
    Forecaster& model, const ForecastDataset& dataset,
    const std::vector<int64_t>& samples, int64_t batch_size) {
  std::vector<MetricAccumulator> per_step(
      static_cast<size_t>(dataset.horizon()));
  VisitPredictions(model, dataset, dataset.series(), samples, batch_size,
                   [&](int64_t /*anchor*/, int64_t j, const Tensor& pred,
                       const OdTensor& truth) {
                     AccumulateForecast(pred, truth,
                                        per_step[static_cast<size_t>(j)]);
                   });
  return per_step;
}

TimeOfDayResult EvaluateByTimeOfDay(Forecaster& model,
                                    const ForecastDataset& dataset,
                                    const std::vector<int64_t>& samples,
                                    const TimePartition& time_partition,
                                    int bin_hours, int64_t batch_size) {
  ODF_CHECK_GT(bin_hours, 0);
  ODF_CHECK_EQ(24 % bin_hours, 0);
  const int num_bins = 24 / bin_hours;
  TimeOfDayResult result;
  result.bins.resize(static_cast<size_t>(num_bins));

  VisitPredictions(
      model, dataset, dataset.series(), samples, batch_size,
      [&](int64_t anchor, int64_t j, const Tensor& pred,
          const OdTensor& truth) {
        if (j != 0) return;  // 1-step-ahead, as in the figures
        const double hour = time_partition.HourOfDay(anchor + 1);
        const int bin = static_cast<int>(hour) / bin_hours;
        AccumulateForecast(pred, truth,
                           result.bins[static_cast<size_t>(bin)]);
      });

  int64_t total = 0;
  for (const auto& bin : result.bins) total += bin.count();
  result.data_share.resize(static_cast<size_t>(num_bins), 0.0);
  if (total > 0) {
    for (int i = 0; i < num_bins; ++i) {
      result.data_share[static_cast<size_t>(i)] =
          static_cast<double>(result.bins[static_cast<size_t>(i)].count()) /
          static_cast<double>(total);
    }
  }
  return result;
}

std::vector<MetricAccumulator> EvaluateByDistance(
    Forecaster& model, const ForecastDataset& dataset,
    const std::vector<int64_t>& samples, const RegionGraph& origin_graph,
    const RegionGraph& destination_graph,
    const std::vector<double>& edges_km, int64_t batch_size) {
  ODF_CHECK_GE(edges_km.size(), 2u);
  std::vector<MetricAccumulator> groups(edges_km.size() - 1);
  auto group_of = [&](int64_t o, int64_t d) -> int {
    const Region& a = origin_graph.region(o);
    const Region& b = destination_graph.region(d);
    const double dx = a.centroid_x_km - b.centroid_x_km;
    const double dy = a.centroid_y_km - b.centroid_y_km;
    const double dist = std::sqrt(dx * dx + dy * dy);
    for (size_t i = 0; i + 1 < edges_km.size(); ++i) {
      if (dist >= edges_km[i] && dist < edges_km[i + 1]) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  VisitPredictions(model, dataset, dataset.series(), samples, batch_size,
                   [&](int64_t /*anchor*/, int64_t j, const Tensor& pred,
                       const OdTensor& truth) {
                     if (j != 0) return;
                     AccumulateForecastGrouped(pred, truth, group_of,
                                               groups);
                   });
  return groups;
}

}  // namespace odf
