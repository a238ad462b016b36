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
// Knobs: ODF_SEED, ODF_EPOCHS (as in the paper benches), ODF_GRAPHOPS_MODES
// (comma-separated subset of cheb,cheb_corr,diffusion,adaptive; must
// include cheb).

#include <cstdio>
#include <cstring>
#include <string>

#include "eval/graphops_eval.h"
#include "sim/scenario.h"
#include "util/env_config.h"

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

  const odf::eval::SweepSetup setup(
      smoke, static_cast<uint64_t>(odf::GetEnvInt("ODF_SEED", 7)),
      static_cast<int>(odf::GetEnvInt("ODF_EPOCHS", smoke ? 2 : 8)));
  odf::eval::GraphOpsEvalConfig config;
  config.train = setup.train;
  config.modes = odf::eval::SplitCsv(odf::GetEnvString(
      "ODF_GRAPHOPS_MODES",
      smoke ? "cheb,diffusion,adaptive" : "cheb,cheb_corr,diffusion,adaptive"));

  // The road closure drives the static-vs-dynamic graph comparison.
  const odf::Scenario* closure = nullptr;
  for (const odf::Scenario& scenario : setup.suite) {
    if (scenario.name() == "road_closure") closure = &scenario;
  }
  if (closure == nullptr) {
    std::fprintf(stderr, "standard suite has no road_closure scenario\n");
    return 1;
  }

  const odf::eval::GraphOpsEvalResult result =
      odf::eval::RunGraphOpsSweep(setup.spec, *closure, config);
  odf::eval::PrintGraphOpsReport(result, stdout);
  const std::string path = setup.WriteJson(
      "BENCH_graphops.json", odf::eval::GraphOpsBenchJson(result));
  if (path.empty()) return 1;
  std::printf("\nwrote %s (%zu modes)\n", path.c_str(), result.modes.size());
  return 0;
}
