#include "eval/sweep.h"

#include <cmath>
#include <cstdarg>
#include <filesystem>
#include <sstream>

#include "util/binary_io.h"

namespace odf::eval {

SweepSetup::SweepSetup(bool smoke, uint64_t seed, int epochs)
    : smoke(smoke),
      spec(smoke ? MakeNycLike(3, 3, /*num_days=*/4, /*interval_minutes=*/60,
                               1000 + seed)
                 : MakeNycLike(4, 4, /*num_days=*/8, /*interval_minutes=*/30,
                               1000 + seed)) {
  const int64_t num_intervals = spec.time_partition().NumIntervals();
  suite = StandardScenarioSuite(
      spec.graph, {num_intervals - num_intervals / 5, num_intervals}, seed);
  train.seed = seed;
  train.epochs = epochs;
  train.batch_size = 16;
  train.patience = 4;
}

std::string SweepSetup::WriteJson(const std::string& file_name,
                                  const std::string& json) const {
  const std::string path =
      smoke ? (std::filesystem::temp_directory_path() / file_name).string()
            : file_name;
  if (WriteFileAtomic(path, json.data(), json.size())) return path;
  std::fprintf(stderr, "failed to write %s\n", path.c_str());
  return {};
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream stream(csv);
  for (std::string item; std::getline(stream, item, ',');) {
    if (!item.empty()) out.push_back(std::move(item));
  }
  return out;
}

namespace internal {

CleanWorld::CleanWorld(const DatasetSpec& spec, const SweepConfig& config)
    : series(SimulateOdSeries(spec)),
      dataset(&series, config.history, config.horizon),
      split(dataset.ChronologicalSplit(config.train_fraction,
                                       config.validation_fraction)),
      header{spec.name, spec.graph.size(), spec.config.seed, config.history,
             config.horizon, static_cast<int64_t>(split.test.size())} {
  ODF_CHECK(!split.test.empty()) << "no test windows to score";
}

SweepScore MeansOf(const MetricAccumulator& accumulator,
                   const std::string& label) {
  SweepScore score;
  score.pairs = accumulator.count();
  for (int k = 0; k < kNumMetrics; ++k) {
    score.values[k] = accumulator.Mean(static_cast<Metric>(k));
    ODF_CHECK(std::isfinite(score.values[k]))
        << label << " " << MetricName(static_cast<Metric>(k))
        << " is not finite";
  }
  return score;
}

void AppendF(std::string* out, const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  *out += buf;
}

void AppendHeaderJson(std::string* out, const char* bench,
                      const SweepHeader& header, const char* names_key,
                      const std::vector<std::string>& names) {
  *out += "{\n";
  AppendF(out, "  \"bench\": \"%s\",\n", bench);
  AppendF(out, "  \"dataset\": \"%s\",\n", header.dataset_name.c_str());
  AppendF(out, "  \"regions\": %lld,\n",
          static_cast<long long>(header.regions));
  AppendF(out, "  \"seed\": %llu,\n",
          static_cast<unsigned long long>(header.seed));
  AppendF(out, "  \"history\": %lld,\n",
          static_cast<long long>(header.history));
  AppendF(out, "  \"horizon\": %lld,\n",
          static_cast<long long>(header.horizon));
  AppendF(out, "  \"test_windows\": %lld,\n",
          static_cast<long long>(header.test_windows));
  AppendF(out, "  \"%s\": [", names_key);
  for (size_t i = 0; i < names.size(); ++i) {
    AppendF(out, "%s\"%s\"", i == 0 ? "" : ", ", names[i].c_str());
  }
  *out += "],\n";
}

void AppendScoreJson(std::string* out, const SweepScore& score) {
  for (const double value : score.values) ODF_CHECK(std::isfinite(value));
  AppendF(out, "\"kl\": %.9f, \"js\": %.9f, \"emd\": %.9f, \"pairs\": %lld}",
          score.values[0], score.values[1], score.values[2],
          static_cast<long long>(score.pairs));
}

void PrintReportHeader(std::FILE* out, const char* title,
                       const SweepHeader& header) {
  std::fprintf(out,
               "%s — %s, %lld regions, seed %llu, "
               "%lld test windows (history %lld, horizon %lld)\n",
               title, header.dataset_name.c_str(),
               static_cast<long long>(header.regions),
               static_cast<unsigned long long>(header.seed),
               static_cast<long long>(header.test_windows),
               static_cast<long long>(header.history),
               static_cast<long long>(header.horizon));
}

}  // namespace internal

}  // namespace odf::eval
