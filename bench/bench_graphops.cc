// Graph-operator sweep (docs/graph_operators.md): trains one AF per
// operator family — Chebyshev, Chebyshev + demand-correlation graph,
// dual-direction diffusion, learned adaptive adjacency — on identical seeds
// and schedules, scores each on the same clean test windows, then scores
// the Chebyshev model on a road-closure scenario twice: static
// construction-time graphs vs per-interval operators rebuilt from
// Scenario::ProximityMatrixAt. Everything is seeded, so the emitted
// BENCH_graphops.json is bit-identical across runs and thread counts.
// `--smoke` writes it to the system temp directory instead, so a smoke run
// never overwrites the committed figures.
//
// Usage: bench_graphops [--smoke]
// Knobs: ODF_GRAPHOPS_SEED, ODF_GRAPHOPS_EPOCHS, ODF_GRAPHOPS_MODES
// (comma-separated subset of cheb,cheb_corr,diffusion,adaptive; must
// include cheb).

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "eval/graphops_eval.h"
#include "sim/scenario.h"
#include "sim/trip_generator.h"
#include "util/env_config.h"

namespace {

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }

  const uint64_t seed =
      static_cast<uint64_t>(odf::GetEnvInt("ODF_GRAPHOPS_SEED", 7));
  const odf::DatasetSpec spec =
      smoke ? odf::MakeNycLike(3, 3, /*num_days=*/4, /*interval_minutes=*/60,
                               1000 + seed)
            : odf::MakeNycLike(4, 4, /*num_days=*/8, /*interval_minutes=*/30,
                               1000 + seed);

  odf::eval::GraphOpsEvalConfig config;
  config.train.seed = seed;
  config.train.epochs = static_cast<int>(
      odf::GetEnvInt("ODF_GRAPHOPS_EPOCHS", smoke ? 2 : 8));
  config.train.batch_size = 16;
  config.train.patience = 4;
  config.modes = SplitCsv(odf::GetEnvString(
      "ODF_GRAPHOPS_MODES",
      smoke ? "cheb,diffusion,adaptive" : "cheb,cheb_corr,diffusion,adaptive"));

  // The closure stresses only the test period, mirroring the scenario
  // harness: clean-trained weights meet the incident at evaluation time.
  const odf::TimePartition time_partition(spec.config.interval_minutes,
                                          spec.config.num_days);
  const int64_t num_intervals = time_partition.NumIntervals();
  odf::ScenarioWindow window;
  window.start_interval = num_intervals - num_intervals / 5;
  window.end_interval = num_intervals;
  std::vector<odf::Scenario> suite =
      odf::StandardScenarioSuite(spec.graph, window, seed);
  const odf::Scenario* closure = nullptr;
  for (const odf::Scenario& scenario : suite) {
    if (scenario.name() == "road_closure") closure = &scenario;
  }
  if (closure == nullptr) {
    std::fprintf(stderr, "standard suite has no road_closure scenario\n");
    return 1;
  }

  const odf::eval::GraphOpsEvalResult result =
      odf::eval::RunGraphOpsSweep(spec, *closure, config);
  odf::eval::PrintGraphOpsReport(result, stdout);
  const std::string path =
      smoke ? (std::filesystem::temp_directory_path() / "BENCH_graphops.json")
                  .string()
            : "BENCH_graphops.json";
  if (!odf::eval::WriteGraphOpsBenchJson(result, path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu modes)\n", path.c_str(), result.modes.size());
  return 0;
}
