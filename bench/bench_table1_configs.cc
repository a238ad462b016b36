// Reproduces paper Table I: model configurations and weight-parameter
// counts of the three deep architectures (FC, BF, AF) on both datasets.
// The key qualitative claim: AF, despite being the most sophisticated
// model, uses the FEWEST weight parameters.

#include <cstdio>

#include "baselines/fc_gru.h"
#include "bench/bench_common.h"

namespace odf::bench {
namespace {

void Run() {
  const Scale scale = Scale::FromEnv();
  Table table({"dataset", "model", "configuration", "#weights"});

  for (const bool nyc : {true, false}) {
    const World world = nyc ? BuildNyc(scale) : BuildCd(scale);
    const int64_t horizon = 3;

    FcGruConfig fc_config;
    FcGruForecaster fc(world.regions, world.regions, world.buckets, horizon,
                       fc_config);
    BasicFrameworkConfig bf_config;
    BasicFramework bf(world.regions, world.regions, world.buckets, horizon,
                      bf_config);
    AdvancedFrameworkConfig af_config;
    AdvancedFramework af(world.spec.graph, world.spec.graph, world.buckets,
                         horizon, af_config);

    table.AddRow({world.spec.name, "FC", fc.Describe(),
                  std::to_string(fc.NumParameters())});
    table.AddRow({world.spec.name, "BF", bf.Describe(),
                  std::to_string(bf.NumParameters())});
    table.AddRow({world.spec.name, "AF", af.Describe(),
                  std::to_string(af.NumParameters())});
  }

  std::printf("== Table I: model configurations and #weights ==\n");
  table.Print(stdout);
  MaybeWriteCsv(table, "table1_configs");
}

}  // namespace
}  // namespace odf::bench

int main() {
  odf::bench::Run();
  return 0;
}
