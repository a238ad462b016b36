#ifndef ODF_CORE_EXPERIMENT_H_
#define ODF_CORE_EXPERIMENT_H_

#include <algorithm>
#include <span>
#include <vector>

#include "core/forecaster.h"
#include "graph/region_graph.h"
#include "metrics/evaluation.h"
#include "od/trip.h"

namespace odf {

/// Slices one batched prediction step [B, N, N', K] into the b-th sample's
/// tensor [N, N', K].
Tensor SamplePrediction(const Tensor& batched, int64_t b);

/// Runs Predict over `samples` of `inputs` in batches of `batch_size` and
/// invokes `visit(anchor_interval, horizon_step, prediction, target)`
/// sample-major, step-minor, judging against `truth` (the inputs' own
/// series, or a ground truth the inputs were degraded from).
template <typename Visitor>
void VisitPredictions(Forecaster& model, const ForecastDataset& inputs,
                      const OdTensorSeries& truth,
                      std::span<const int64_t> samples, int64_t batch_size,
                      Visitor visit) {
  ODF_CHECK_GT(batch_size, 0);
  for (size_t start = 0; start < samples.size();
       start += static_cast<size_t>(batch_size)) {
    const std::span<const int64_t> indices = samples.subspan(
        start, std::min(samples.size() - start,
                        static_cast<size_t>(batch_size)));
    Batch batch = inputs.MakeBatch(indices);
    const std::vector<Tensor> predictions = model.Predict(batch);
    ODF_CHECK_EQ(static_cast<int64_t>(predictions.size()), inputs.horizon());
    for (size_t b = 0; b < indices.size(); ++b) {
      const int64_t anchor = batch.anchor_intervals[b];
      for (int64_t j = 0; j < inputs.horizon(); ++j) {
        const Tensor pred = SamplePrediction(
            predictions[static_cast<size_t>(j)], static_cast<int64_t>(b));
        visit(anchor, j, pred, truth.at(anchor + 1 + j));
      }
    }
  }
}

/// Evaluates a fitted forecaster on the given test windows.
/// Returns one accumulator per horizon step (paper Table II rows: the
/// k-step-ahead DisSim for each metric).
std::vector<MetricAccumulator> EvaluateForecaster(
    Forecaster& model, const ForecastDataset& dataset,
    const std::vector<int64_t>& samples, int64_t batch_size);

/// Per-time-of-day evaluation of 1-step-ahead forecasts (paper Figs. 8–10):
/// results are grouped into `bin_hours`-hour bins of the target interval's
/// start hour; `data_share[bin]` reports the fraction of observed test cells
/// falling in each bin (the bar series in the figures).
struct TimeOfDayResult {
  std::vector<MetricAccumulator> bins;
  std::vector<double> data_share;
};
TimeOfDayResult EvaluateByTimeOfDay(Forecaster& model,
                                    const ForecastDataset& dataset,
                                    const std::vector<int64_t>& samples,
                                    const TimePartition& time_partition,
                                    int bin_hours, int64_t batch_size);

/// Per-OD-distance evaluation of 1-step-ahead forecasts (paper
/// Figs. 11–13): pairs are bucketed by centroid distance with bucket edges
/// `edges_km` (bucket i covers [edges_km[i], edges_km[i+1])); pairs beyond
/// the last edge are skipped, mirroring the paper's exclusion of >3 km
/// pairs.
std::vector<MetricAccumulator> EvaluateByDistance(
    Forecaster& model, const ForecastDataset& dataset,
    const std::vector<int64_t>& samples, const RegionGraph& origin_graph,
    const RegionGraph& destination_graph,
    const std::vector<double>& edges_km, int64_t batch_size);

}  // namespace odf

#endif  // ODF_CORE_EXPERIMENT_H_
