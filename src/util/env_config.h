#ifndef ODF_UTIL_ENV_CONFIG_H_
#define ODF_UTIL_ENV_CONFIG_H_

#include <cstdint>
#include <optional>
#include <string>

namespace odf {

// Small helpers for environment-driven configuration.
//
// The library itself reads only four process-wide knobs; everything else it
// takes from config structs (AdvancedFrameworkConfig, ShardedModelConfig,
// serve::ServeConfig, ...) set in code:
//   ODF_THREADS=<n>  size of the global compute thread pool (ThreadPool::
//                    Global()). Defaults to hardware concurrency; 1 runs
//                    every kernel serially. Numeric results are independent
//                    of the value. A value that is not a whole integer
//                    keeps the default; the size is clamped to [1, 256]
//                    (kMaxPoolThreads, util/thread_pool.h). Either case logs
//                    one warning naming the value.
//   ODF_METRICS=1    enable the process-wide metrics registry (kernel timing
//                    histograms, pool/autograd counters, trainer gauges;
//                    util/metrics.h). Off by default: the disabled check is
//                    one relaxed atomic load per instrumentation site. Read
//                    once at startup (MetricsEnabled/SetMetricsEnabled);
//                    while enabled, the trainer also writes its default
//                    per-epoch telemetry JSONL when checkpointing
//                    (docs/observability.md).
//   ODF_TRACE=1      capture a whole-process Chrome-trace (Perfetto) span
//                    timeline (util/trace.h), flushed at exit to
//                    ODF_TRACE_PATH (default odf_trace.json). Off by
//                    default with the same one-load disabled cost.
//
// Harness-only knobs, read by the benchmarks and examples (never by src/)
// so their scale can be adjusted without recompiling, e.g.
// `ODF_SCALE=paper ./bench_table2_overall`:
//   ODF_SCALE, ODF_DAYS, ODF_EPOCHS, ODF_SEED   experiment scale (bench/).
//                    The two robustness sweeps read ODF_SEED and ODF_EPOCHS
//                    with the same meaning: ODF_SEED (default 7) seeds trip
//                    generation, injector randomness and model init, so one
//                    value pins the sweep's JSON bit-for-bit at any
//                    ODF_THREADS; ODF_EPOCHS trains each learned model
//                    (default 8, or 2 with --smoke).
//   ODF_BENCH_JSON, ODF_BENCH_GRAPH_JSON, ODF_BENCH_CSV
//                    benchmark output paths.
//
// Stress-scenario harness (docs/scenarios.md), read by
// `production_pipeline --scenarios [--smoke]`:
//   ODF_SCENARIO_MODELS=<csv> comma-separated table columns, e.g.
//                    "AF,AFD,BF,NH,VAR" (the default; --smoke uses
//                    "AF,NH").
//                    Accepted names: AF, BF, MR, FC/RNN, GP, NH, VAR, and
//                    AFD (the dynamic-graph AF: same training as AF, but
//                    the harness rebuilds its GCGRU operators per interval
//                    from Scenario::ProximityMatrixAt).
//
// Graph-operator sweep (docs/graph_operators.md), read by `bench_graphops`:
//   ODF_GRAPHOPS_MODES=<csv> operator families to sweep, a subset of
//                    "cheb,cheb_corr,diffusion,adaptive" that must include
//                    cheb (it anchors the static-vs-dynamic comparison).

/// Returns the value of environment variable `name`, or `fallback` if unset.
std::string GetEnvString(const char* name, const std::string& fallback);

/// `text` as a base-10 int64, or nullopt unless the whole string is one
/// in-range integer: "4x", "1e9", "" and "99999999999999999999" all fail.
std::optional<int64_t> ParseInt64(const char* text);

/// Returns `name` parsed by ParseInt64, or `fallback` if unset/unparseable.
int64_t GetEnvInt(const char* name, int64_t fallback);

/// Returns true when `name` is set to a truthy value ("1", "true", "on").
bool GetEnvBool(const char* name, bool fallback);

}  // namespace odf

#endif  // ODF_UTIL_ENV_CONFIG_H_
