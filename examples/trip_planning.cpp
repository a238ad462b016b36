// Trip planning with stochastic forecasts — the paper's motivating example
// (Sec. I): a passenger travels from home (region o) to the airport
// (region d), 15 km away. A deterministic mean-speed estimate can make the
// passenger miss the flight; the forecast *speed distribution* lets them
// reserve a time budget at any confidence level.
//
// This example trains BF on a simulated city, forecasts the speed histogram
// for the OD pair of interest, converts it into a travel-time distribution
// and prints departure-time recommendations at several confidence levels.

#include <cstdio>
#include <vector>

#include "core/basic_framework.h"
#include "core/experiment.h"
#include "core/trainer.h"
#include "od/dataset.h"
#include "od/travel_time.h"
#include "sim/trip_generator.h"

int main() {
  // Simulate and train (same pipeline as quickstart, but with BF).
  odf::DatasetSpec spec = odf::MakeNycLike(4, 4, 6, 30);
  odf::OdTensorSeries series = odf::SimulateOdSeries(spec);
  odf::ForecastDataset dataset(&series, 6, 1);
  const auto split = dataset.ChronologicalSplit(0.7, 0.1);

  odf::BasicFrameworkConfig config;
  odf::BasicFramework model(spec.graph.size(), spec.graph.size(), 7, 1,
                            config);
  odf::TrainConfig train;
  train.epochs = 8;
  model.Fit(dataset, split, train);

  // Forecast the next interval from the most recent history.
  odf::Batch batch = dataset.MakeBatch({split.test.back()});
  const odf::Tensor forecast =
      odf::SamplePrediction(model.Predict(batch)[0], 0);

  // The trip: region 0 (home) to region 15 (airport), 15 km route.
  const int64_t origin = 0;
  const int64_t destination = 15;
  const double distance_km = 15.0;
  const odf::SpeedHistogramSpec spec7 = odf::SpeedHistogramSpec::Paper();
  std::vector<float> histogram(7);
  double mean_speed = 0;
  for (int k = 0; k < 7; ++k) {
    histogram[static_cast<size_t>(k)] = forecast.At3(origin, destination, k);
    mean_speed += histogram[static_cast<size_t>(k)] *
                  spec7.BucketMidpointMs(k);
  }

  std::printf("forecast speed histogram, region %lld -> region %lld:\n",
              static_cast<long long>(origin),
              static_cast<long long>(destination));
  for (int k = 0; k < 7; ++k) {
    std::printf("  bucket %d (%2d-%s m/s): %.3f\n", k, 3 * k,
                k == 6 ? "inf" : std::to_string(3 * k + 3).c_str(),
                histogram[static_cast<size_t>(k)]);
  }

  const auto bands =
      odf::TravelTimeDistribution(histogram, spec7, distance_km);
  std::printf("\ntravel-time distribution for the %.0f km trip:\n",
              distance_km);
  for (const odf::TravelTimeBand& band : bands) {
    std::printf("  %5.1f - %6.1f min with probability %.3f\n",
                band.minutes_lo, band.minutes_hi, band.probability);
  }

  const double naive = distance_km * 1000.0 / mean_speed / 60.0;
  std::printf("\nmean-speed (deterministic) estimate: %.0f min\n", naive);
  std::printf("expected (band-midpoint) travel time: %.0f min\n",
              odf::ExpectedTravelMinutes(bands));
  for (double confidence : {0.5, 0.8, 0.95}) {
    std::printf("reserve %.0f min to arrive on time with %.0f%% confidence\n",
                odf::ReserveMinutes(bands, confidence), 100.0 * confidence);
  }
  std::printf(
      "\n(The gap between the deterministic estimate and the 95%% budget is"
      "\n exactly why the paper forecasts distributions, not means.)\n");
  return 0;
}
