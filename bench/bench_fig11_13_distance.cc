// Reproduces paper Figs. 11, 12 and 13: 1-step-ahead forecast accuracy of
// FC, BF and AF per OD-pair distance bucket (EMD, KL, JS). Pairs more than
// 3 km apart are excluded as in the paper (<1% of data there).
//
// Expected shape: AF < BF < FC in every bucket; error first dips with
// distance then rises again as route choice makes speeds more stochastic.

#include <cstdio>

#include "bench/bench_common.h"

namespace odf::bench {
namespace {

void RunDataset(const World& world, const Scale& scale, Table& table) {
  const int64_t history = 6;
  const int64_t horizon = 1;
  const std::vector<double> edges = {0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
  ForecastDataset dataset(&world.series, history, horizon);
  const auto split = dataset.ChronologicalSplit(0.7, 0.1);
  const TrainConfig train = scale.Train();

  std::vector<std::string> methods = {"FC", "BF", "AF"};
  std::vector<std::vector<MetricAccumulator>> results;
  for (const auto& method : methods) {
    Stopwatch watch;
    auto model = eval::MakeForecasterByName(
        method, world.spec.graph, world.buckets, horizon, world.time_partition,
        scale.seed);
    model->Fit(dataset, split, train);
    results.push_back(EvaluateByDistance(*model, dataset, split.test,
                                         world.spec.graph, world.spec.graph,
                                         edges, train.batch_size));
    std::fprintf(stderr, "[fig11-13] %s %s done in %.1fs\n",
                 world.spec.name.c_str(), method.c_str(),
                 watch.ElapsedSeconds());
  }

  for (size_t bucket = 0; bucket + 1 < edges.size(); ++bucket) {
    if (results[0][bucket].count() == 0) continue;
    std::vector<std::string> row = {
        world.spec.name, Table::Num(edges[bucket], 1) + "-" +
                             Table::Num(edges[bucket + 1], 1) + "km",
        std::to_string(results[0][bucket].count())};
    for (size_t mi = 0; mi < methods.size(); ++mi) {
      for (Metric metric : {Metric::kEmd, Metric::kKl, Metric::kJs}) {
        row.push_back(Table::Num(results[mi][bucket].Mean(metric)));
      }
    }
    table.AddRow(std::move(row));
  }
}

void Run() {
  const Scale scale = Scale::FromEnv();
  Table table({"dataset", "distance", "#pairs", "FC EMD", "FC KL", "FC JS",
               "BF EMD", "BF KL", "BF JS", "AF EMD", "AF KL", "AF JS"});
  const World nyc = BuildNyc(scale);
  RunDataset(nyc, scale, table);
  const World cd = BuildCd(scale);
  RunDataset(cd, scale, table);
  std::printf(
      "== Figs. 11-13: accuracy by OD distance (1-step ahead, s=6) ==\n"
      "(Fig. 11 = EMD columns, Fig. 12 = KL, Fig. 13 = JS)\n");
  table.Print(stdout);
  MaybeWriteCsv(table, "fig11_13_distance");
}

}  // namespace
}  // namespace odf::bench

int main() {
  odf::bench::Run();
  return 0;
}
