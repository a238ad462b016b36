// Reproduces paper Table II: overall forecast accuracy (KL / JS / EMD per
// forecast step h=1..3) of NH, GP, VAR, FC(RNN), MR, BF and AF on both
// datasets, for s=3 and s=6 historical intervals.
//
// Expected shape (paper Sec. VI-B-1): deep methods beat classic baselines;
// BF beats the baselines in most settings; AF is best everywhere; accuracy
// degrades as h grows; AF at s=3 is slightly better than at s=6.

#include <cstdio>

#include "bench/bench_common.h"

namespace odf::bench {
namespace {

const char* kMethods[] = {"NH", "GP", "VAR", "FC", "MR", "BF", "AF"};

void RunDataset(const World& world, int64_t history, const Scale& scale,
                Table& table) {
  const int64_t horizon = 3;
  ForecastDataset dataset(&world.series, history, horizon);
  const auto split = dataset.ChronologicalSplit(0.7, 0.1);
  const TrainConfig train = scale.Train();

  for (const char* method : kMethods) {
    Stopwatch watch;
    auto model = eval::MakeForecasterByName(
        method, world.spec.graph, world.buckets, horizon, world.time_partition,
        scale.seed);
    model->Fit(dataset, split, train);
    const auto per_step =
        EvaluateForecaster(*model, dataset, split.test, train.batch_size);
    for (int64_t h = 0; h < horizon; ++h) {
      const auto& acc = per_step[static_cast<size_t>(h)];
      table.AddRow({world.spec.name, std::to_string(history), method,
                    std::to_string(h + 1), Table::Num(acc.Mean(Metric::kKl)),
                    Table::Num(acc.Mean(Metric::kJs)),
                    Table::Num(acc.Mean(Metric::kEmd))});
    }
    std::fprintf(stderr, "[table2] %s s=%lld %s done in %.1fs\n",
                 world.spec.name.c_str(), static_cast<long long>(history),
                 method, watch.ElapsedSeconds());
  }
}

void Run() {
  const Scale scale = Scale::FromEnv();
  Table table({"dataset", "s", "method", "h", "KL", "JS", "EMD"});
  for (const bool nyc : {true, false}) {
    const World world = nyc ? BuildNyc(scale) : BuildCd(scale);
    for (const int64_t history : {3, 6}) {
      RunDataset(world, history, scale, table);
    }
  }
  std::printf(
      "== Table II: overall accuracy (lower is better) ==\n"
      "(KL/JS/EMD per h-step-ahead forecast; s historical intervals)\n");
  table.Print(stdout);
  MaybeWriteCsv(table, "table2_overall");
}

}  // namespace
}  // namespace odf::bench

int main() {
  odf::bench::Run();
  return 0;
}
