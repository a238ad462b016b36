// Reproduces paper Figs. 8, 9 and 10: 1-step-ahead forecast accuracy of
// FC, BF and AF per 3-hour time-of-day bin (EMD, KL and JS respectively),
// together with the per-bin share of test data (the figures' bars).
//
// Expected shape: AF < BF < FC in (almost) every bin; errors are worst in
// data-poor night bins and best around midday; CD has no 0–6h data.

#include <cstdio>

#include "bench/bench_common.h"

namespace odf::bench {
namespace {

void RunDataset(const World& world, const Scale& scale, Table& table) {
  const int64_t history = 6;
  const int64_t horizon = 1;
  const int bin_hours = 3;
  ForecastDataset dataset(&world.series, history, horizon);
  const auto split = dataset.ChronologicalSplit(0.7, 0.1);
  const TrainConfig train = scale.Train();

  std::vector<std::string> methods = {"FC", "BF", "AF"};
  std::vector<TimeOfDayResult> results;
  for (const auto& method : methods) {
    Stopwatch watch;
    auto model = eval::MakeForecasterByName(
        method, world.spec.graph, world.buckets, horizon, world.time_partition,
        scale.seed);
    model->Fit(dataset, split, train);
    results.push_back(EvaluateByTimeOfDay(*model, dataset, split.test,
                                          world.time_partition, bin_hours,
                                          train.batch_size));
    std::fprintf(stderr, "[fig8-10] %s %s done in %.1fs\n",
                 world.spec.name.c_str(), method.c_str(),
                 watch.ElapsedSeconds());
  }

  const int num_bins = 24 / bin_hours;
  for (int bin = 0; bin < num_bins; ++bin) {
    if (results[0].bins[static_cast<size_t>(bin)].count() == 0) continue;
    std::vector<std::string> row = {
        world.spec.name,
        std::to_string(bin * bin_hours) + "-" +
            std::to_string((bin + 1) * bin_hours) + "h",
        Table::Num(100.0 * results[0].data_share[static_cast<size_t>(bin)],
                   1)};
    for (size_t mi = 0; mi < methods.size(); ++mi) {
      const auto& acc = results[mi].bins[static_cast<size_t>(bin)];
      for (Metric metric : {Metric::kEmd, Metric::kKl, Metric::kJs}) {
        row.push_back(Table::Num(acc.Mean(metric)));
      }
    }
    table.AddRow(std::move(row));
  }
}

void Run() {
  const Scale scale = Scale::FromEnv();
  Table table({"dataset", "time", "data%", "FC EMD", "FC KL", "FC JS",
               "BF EMD", "BF KL", "BF JS", "AF EMD", "AF KL", "AF JS"});
  const World nyc = BuildNyc(scale);
  RunDataset(nyc, scale, table);
  const World cd = BuildCd(scale);
  RunDataset(cd, scale, table);
  std::printf(
      "== Figs. 8-10: accuracy by time of day (1-step ahead, s=6) ==\n"
      "(Fig. 8 = EMD columns, Fig. 9 = KL, Fig. 10 = JS; data%% = share "
      "of test pairs per bin)\n");
  table.Print(stdout);
  MaybeWriteCsv(table, "fig8_10_time_of_day");
}

}  // namespace
}  // namespace odf::bench

int main() {
  odf::bench::Run();
  return 0;
}
