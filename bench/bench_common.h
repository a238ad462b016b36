#ifndef ODF_BENCH_BENCH_COMMON_H_
#define ODF_BENCH_BENCH_COMMON_H_

// Shared harness code for the experiment-reproduction binaries. Each binary
// regenerates one table or figure of the paper (see DESIGN.md §4) on the
// synthetic datasets; scale is environment-configurable:
//
//   ODF_SCALE=small|medium|paper   overall experiment size (default small)
//   ODF_EPOCHS=<n>                 override training epochs
//   ODF_DAYS=<n>                   override simulated days
//   ODF_BENCH_CSV=1                also write CSV files under bench_out/
//   ODF_SEED=<n>                   experiment seed
//   ODF_THREADS=<n>                size of the global compute thread pool
//                                  (default: hardware concurrency; 1 = fully
//                                  serial). Results are identical for every
//                                  value — see README "Performance &
//                                  threading".

#include <cstdio>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "core/advanced_framework.h"
#include "core/basic_framework.h"
#include "core/experiment.h"
#include "core/trainer.h"
#include "eval/scenario_eval.h"
#include "sim/trip_generator.h"
#include "util/env_config.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace odf::bench {

/// Experiment scale resolved from the environment.
struct Scale {
  int nyc_rows = 4;
  int nyc_cols = 4;
  int cd_regions = 18;
  int num_days = 8;
  int interval_minutes = 30;
  int epochs = 10;
  int batch_size = 16;
  int patience = 4;
  uint64_t seed = 7;

  static Scale FromEnv() {
    Scale scale;
    const std::string name = GetEnvString("ODF_SCALE", "small");
    if (name == "medium") {
      scale.nyc_rows = 6;
      scale.nyc_cols = 6;
      scale.cd_regions = 40;
      scale.num_days = 10;
      scale.epochs = 15;
    } else if (name == "paper") {
      scale.nyc_rows = 8;
      scale.nyc_cols = 8;
      scale.cd_regions = 79;
      scale.num_days = 14;
      scale.interval_minutes = 15;
      scale.epochs = 30;
      scale.patience = 6;
    }
    scale.epochs = static_cast<int>(GetEnvInt("ODF_EPOCHS", scale.epochs));
    scale.num_days = static_cast<int>(GetEnvInt("ODF_DAYS", scale.num_days));
    scale.seed = static_cast<uint64_t>(GetEnvInt("ODF_SEED", 7));
    return scale;
  }

  TrainConfig Train() const {
    TrainConfig config;
    config.epochs = epochs;
    config.batch_size = batch_size;
    config.patience = patience;
    config.seed = seed;
    return config;
  }
};

/// One fully materialized dataset: spec + series + graphs.
struct World {
  DatasetSpec spec;
  OdTensorSeries series;
  TimePartition time_partition;
  int64_t regions;
  int64_t buckets;

  static World Build(DatasetSpec spec) {
    OdTensorSeries series = SimulateOdSeries(spec);
    const TimePartition tp = spec.time_partition();
    const int64_t regions = spec.graph.size();
    return World{std::move(spec), std::move(series), tp, regions, 7};
  }
};

inline World BuildNyc(const Scale& scale) {
  return World::Build(MakeNycLike(scale.nyc_rows, scale.nyc_cols,
                                  scale.num_days, scale.interval_minutes,
                                  1000 + scale.seed));
}

inline World BuildCd(const Scale& scale) {
  return World::Build(MakeChengduLike(scale.cd_regions, scale.num_days,
                                      scale.interval_minutes,
                                      2000 + scale.seed));
}

/// Writes the table as CSV under bench_out/ when ODF_BENCH_CSV=1.
inline void MaybeWriteCsv(const Table& table, const std::string& name) {
  if (!GetEnvBool("ODF_BENCH_CSV", false)) return;
  ::mkdir("bench_out", 0755);
  const std::string path = "bench_out/" + name + ".csv";
  if (table.WriteCsv(path)) {
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
}

}  // namespace odf::bench

#endif  // ODF_BENCH_BENCH_COMMON_H_
