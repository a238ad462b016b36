// City-wide congestion monitoring on a Chengdu-like city: train AF once,
// then roll forward through an evening and watch how the *expected speed*
// of the full forecast OD matrix evolves — including OD pairs that have no
// observations at all in the current interval (the sparseness problem the
// framework exists to solve).
//
// This mirrors the paper's LBS motivation: a transport operator needs the
// complete matrix every interval, not just the observed cells.

#include <cstdio>
#include <vector>

#include "core/advanced_framework.h"
#include "core/experiment.h"
#include "core/trainer.h"
#include "od/dataset.h"
#include "sim/trip_generator.h"

namespace {

/// Expected speed (m/s) of one forecast histogram.
double ExpectedSpeed(const odf::Tensor& forecast, int64_t o, int64_t d,
                     const odf::SpeedHistogramSpec& spec) {
  double mean = 0;
  for (int k = 0; k < spec.num_buckets(); ++k) {
    mean += forecast.At3(o, d, k) * spec.BucketMidpointMs(k);
  }
  return mean;
}

}  // namespace

int main() {
  odf::DatasetSpec spec = odf::MakeChengduLike(/*num_regions=*/18,
                                               /*num_days=*/6,
                                               /*interval_minutes=*/30);
  odf::OdTensorSeries series = odf::SimulateOdSeries(spec);

  odf::ForecastDataset dataset(&series, /*history=*/6, /*horizon=*/1);
  const auto split = dataset.ChronologicalSplit(0.7, 0.1);
  odf::AdvancedFrameworkConfig config;
  odf::AdvancedFramework model(spec.graph, spec.graph, 7, 1, config);
  odf::TrainConfig train;
  train.epochs = 8;
  model.Fit(dataset, split, train);

  const odf::SpeedHistogramSpec spec7 = odf::SpeedHistogramSpec::Paper();
  const odf::TimePartition tp = spec.time_partition();

  // Roll through the last test day, 15:00-21:00 (the evening peak).
  std::printf("time   observed  net-mean-speed  cold-pair-speed  (km/h)\n");
  std::printf("------------------------------------------------------\n");
  for (int64_t sample : split.test) {
    const int64_t target = dataset.AnchorInterval(sample) + 1;
    const double hour = tp.HourOfDay(target);
    if (tp.DayOf(target) != tp.DayOf(dataset.AnchorInterval(split.test.back()))) {
      continue;  // last test day only
    }
    if (hour < 15.0 || hour >= 21.0) continue;

    odf::Batch batch = dataset.MakeBatch({sample});
    const odf::Tensor forecast =
        odf::SamplePrediction(model.Predict(batch)[0], 0);
    const odf::OdTensor& truth = series.at(target);

    // Mean expected speed over the whole matrix, and over the cells with
    // no current observations ("cold" pairs, where only a full-matrix
    // forecaster can answer at all).
    double all = 0;
    double cold = 0;
    int64_t cold_count = 0;
    const int64_t n = spec.graph.size();
    for (int64_t o = 0; o < n; ++o) {
      for (int64_t d = 0; d < n; ++d) {
        const double v = ExpectedSpeed(forecast, o, d, spec7);
        all += v;
        if (!truth.IsObserved(o, d)) {
          cold += v;
          ++cold_count;
        }
      }
    }
    all /= static_cast<double>(n * n);
    cold = cold_count > 0 ? cold / static_cast<double>(cold_count) : 0.0;
    std::printf("%04.1fh   %5.1f%%        %5.1f            %5.1f\n", hour,
                100.0 * truth.ObservedFraction(), all * 3.6, cold * 3.6);
  }

  std::printf(
      "\nEvery interval above has full-matrix speeds even though large "
      "\nfractions of OD pairs are unobserved - the forecast fills them "
      "\nfrom spatio-temporal structure (factorization + graph conv).\n");
  return 0;
}
