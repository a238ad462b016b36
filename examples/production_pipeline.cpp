// Production-style pipeline: the full API surface a deployment would use.
//
//   trips.csv  ->  OD tensors  ->  train AF (crash-safe)  ->  checkpoint
//              ->  reload      ->  forecast  ->  outlier guard  ->  serve
//
// The trips come from the simulator here, but the CSV step is exactly where
// real data (e.g. map-matched NYC TLC records) plugs in.
//
// Training writes rolling TrainingCheckpoint snapshots; run with `--resume`
// after an interruption to continue from the newest valid snapshot —
// bit-identically to a run that was never interrupted.
//
// `--serve` additionally stands up the micro-batched serving front-end
// (docs/serving.md): the checkpointed model is compiled into a tape-free
// ForwardPlan and a ForecastService answers a scripted query stream —
// concurrent bursts that coalesce into shared batches plus repeated
// current-interval reads served from the interval cache.
//
// `--scenarios` runs the stress-scenario robustness harness instead
// (docs/scenarios.md): clean-trained models are scored against the
// standard incident suite (road closure, demand surge, storm, sensor
// dropout, composed) and the scenario×model table is written as
// BENCH_scenarios.json. `--scenarios --smoke` is the fast CI variant
// (tiny grid, 2 scenarios). Knobs: ODF_SCENARIO_MODELS (comma-separated
// table names), ODF_EPOCHS, ODF_SEED (as in the paper benches).

#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <vector>

#include "baselines/naive_histogram.h"
#include "core/advanced_framework.h"
#include "core/experiment.h"
#include "core/outlier_guard.h"
#include "core/trainer.h"
#include "eval/scenario_eval.h"
#include "nn/serialize.h"
#include "od/trip_io.h"
#include "serve/service.h"
#include "sim/scenario.h"
#include "sim/trip_generator.h"
#include "util/env_config.h"

namespace {

// The scenario×model robustness harness (ROADMAP item 4). Everything is
// seeded, so the emitted BENCH_scenarios.json is bit-identical across
// runs and thread counts; `smoke` shrinks it to a CI-sized sweep and
// writes it to the system temp directory, so a smoke run never overwrites
// the committed figures.
int RunScenarioHarness(bool smoke) {
  odf::eval::SweepSetup setup(
      smoke, static_cast<uint64_t>(odf::GetEnvInt("ODF_SEED", 7)),
      static_cast<int>(odf::GetEnvInt("ODF_EPOCHS", smoke ? 2 : 8)));
  odf::eval::ScenarioEvalConfig config;
  config.train = setup.train;
  config.models = odf::eval::SplitCsv(odf::GetEnvString(
      "ODF_SCENARIO_MODELS", smoke ? "AF,NH" : "AF,AFD,BF,NH,VAR"));
  if (smoke) {
    // Keep the cheapest trip-level and observation-level injector each.
    std::erase_if(setup.suite, [](const odf::Scenario& scenario) {
      return scenario.name() != "clean" &&
             scenario.name() != "weather_slowdown";
    });
  }

  const odf::eval::ScenarioEvalResult result =
      odf::eval::RunScenarioSweep(setup.spec, setup.suite, config);
  odf::eval::PrintScenarioReport(result, stdout);
  const std::string path = setup.WriteJson(
      "BENCH_scenarios.json", odf::eval::ScenarioBenchJson(result));
  if (path.empty()) return 1;
  std::printf("\nwrote %s (%zu scenarios x %zu models)\n", path.c_str(),
              result.scenarios.size(), result.models.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool resume = false;
  bool serve = false;
  bool scenarios = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      serve = true;
    } else if (std::strcmp(argv[i], "--scenarios") == 0) {
      scenarios = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--resume] [--serve] [--scenarios [--smoke]]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke && !scenarios) {
    std::fprintf(stderr, "--smoke only applies to --scenarios\n");
    return 2;
  }
  if (scenarios) return RunScenarioHarness(smoke);

  const std::string trips_path = "/tmp/odf_trips.csv";
  const std::string regions_path = "/tmp/odf_regions.csv";
  const std::string checkpoint_path = "/tmp/odf_af_checkpoint.bin";
  const std::string training_checkpoint_dir = "/tmp/odf_af_training_ckpts";

  // --- Ingest: persist and reload the raw data as CSV. ------------------
  odf::DatasetSpec spec = odf::MakeNycLike(4, 4, 6, 30);
  {
    odf::TripGenerator generator(spec.graph, spec.config);
    const auto trips = generator.Generate();
    ODF_CHECK(odf::WriteTripsCsv(trips, trips_path));
    ODF_CHECK(odf::WriteRegionsCsv(spec.graph, regions_path));
    std::printf("wrote %zu trips to %s\n", trips.size(), trips_path.c_str());
  }

  std::vector<odf::Trip> trips;
  ODF_CHECK(odf::ReadTripsCsv(trips_path, &trips));
  std::vector<odf::Region> regions;
  ODF_CHECK(odf::ReadRegionsCsv(regions_path, &regions));
  odf::RegionGraph graph{regions};
  std::printf("reloaded %zu trips over %lld regions\n", trips.size(),
              static_cast<long long>(graph.size()));

  // --- Features: sparse stochastic OD tensors. --------------------------
  const odf::TimePartition time_partition = spec.time_partition();
  odf::OdTensorSeries series = odf::BuildOdTensorSeries(
      trips, time_partition, graph.size(), graph.size(),
      odf::SpeedHistogramSpec::Paper());
  odf::ForecastDataset dataset(&series, 6, 1);
  const auto split = dataset.ChronologicalSplit(0.7, 0.1);

  // --- Train with crash-safe snapshots, then checkpoint. ----------------
  odf::AdvancedFrameworkConfig model_config;
  odf::AdvancedFramework model(graph, graph, 7, 1, model_config);
  odf::TrainConfig train;
  train.epochs = 8;
  train.checkpoint_dir = training_checkpoint_dir;
  train.checkpoint_every_epochs = 2;
  train.resume = resume;
  if (resume) {
    std::printf("resuming from newest snapshot in %s (if any)\n",
                training_checkpoint_dir.c_str());
  }
  model.Fit(dataset, split, train);
  ODF_CHECK(odf::nn::SaveParameters(model, checkpoint_path));
  std::printf("checkpoint saved (%lld weights)\n",
              static_cast<long long>(model.NumParameters()));

  // --- Serving process: fresh model object + checkpoint. ----------------
  odf::AdvancedFramework serving(graph, graph, 7, 1, model_config);
  ODF_CHECK(odf::nn::LoadParameters(serving, checkpoint_path));

  // Outlier guard (paper future work): prior = NH training means.
  odf::NaiveHistogramForecaster nh;
  nh.Fit(dataset, split, {});
  odf::OutlierGuard guard(nh.mean_tensor(), /*js_threshold=*/0.5,
                          /*blend=*/0.5);

  // --- Forecast the latest window and serve guarded histograms. ---------
  odf::Batch batch = dataset.MakeBatch({split.test.back()});
  odf::Tensor forecast = serving.Predict(batch)[0];
  odf::Tensor guarded = guard.Apply(forecast);
  std::printf("served full %lldx%lld OD matrix; outlier guard damped %lld "
              "of %lld cells\n",
              static_cast<long long>(graph.size()),
              static_cast<long long>(graph.size()),
              static_cast<long long>(guard.last_outlier_count()),
              static_cast<long long>(graph.size() * graph.size()));

  const auto quality =
      odf::EvaluateForecaster(serving, dataset, split.test, 16);
  std::printf("serving-model test quality: KL=%.3f JS=%.3f EMD=%.3f\n",
              quality[0].Mean(odf::Metric::kKl),
              quality[0].Mean(odf::Metric::kJs),
              quality[0].Mean(odf::Metric::kEmd));

  if (!serve) return 0;

  // --- Serving front-end: compiled plan + micro-batching service. -------
  // Compile AFTER the checkpoint load: the plan snapshots the model's
  // parameters at compile time.
  odf::serve::ForwardPlan plan =
      odf::serve::PlanCompiler::Compile(serving, dataset.history());
  odf::serve::ForecastService service(&dataset, std::move(plan));
  std::printf("serve: plan compiled; max_batch=%lld\n",
              static_cast<long long>(service.config().max_batch));

  // Scripted query stream: roll the current interval through the test
  // split; each interval takes a burst of concurrent queries (coalesced
  // into shared plan batches) plus repeated current-interval reads that
  // come back from the cache after the first miss.
  int64_t burst_served = 0;
  int64_t cached_served = 0;
  const size_t intervals = std::min<size_t>(8, split.test.size());
  for (size_t idx = 0; idx < intervals; ++idx) {
    service.SetCurrentInterval(split.test[idx]);
    std::vector<std::future<odf::serve::ForecastResult>> burst;
    for (size_t q = 0; q < 4 && idx + q < split.test.size(); ++q) {
      burst.push_back(service.ForecastAsync(split.test[idx + q]));
    }
    for (auto& f : burst) {
      const odf::serve::ForecastResult r = f.get();
      ODF_CHECK(r != nullptr);
      ODF_CHECK_EQ(static_cast<int64_t>(r->size()), service.horizon());
      ++burst_served;
    }
    for (int q = 0; q < 16; ++q) {
      ODF_CHECK(service.ForecastCurrent() != nullptr);
      ++cached_served;
    }
  }
  std::printf("serve: answered %lld burst queries and %lld current-interval "
              "reads over %zu intervals\n",
              static_cast<long long>(burst_served),
              static_cast<long long>(cached_served), intervals);
  return 0;
}
