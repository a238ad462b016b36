#ifndef ODF_OD_STREAM_SOURCE_H_
#define ODF_OD_STREAM_SOURCE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "od/histogram.h"
#include "od/od_source.h"
#include "od/trip_log.h"

namespace odf {

/// Optional per-trip region remapping for TripOdSource. Returns false to
/// drop the trip, true to keep it with origin/destination rewritten through
/// `*o`/`*d` (e.g. global region id → shard-local id, or shard id for the
/// cross-shard boundary model). Must be pure: the same trip always maps the
/// same way, or streaming rebuilds would not be deterministic.
using TripMapper =
    std::function<bool(const Trip& trip, int32_t* o, int32_t* d)>;

/// Streaming OdSource: builds each interval's OD tensor on demand from a
/// TripSource (typically a TripLogReader over an on-disk ODTL log) and keeps
/// at most `cache_capacity` built tensors in an LRU cache. Peak memory is
/// bounded by the cache plus one interval's trips, independent of the number
/// of intervals — this is what lets ForecastDataset run over datasets that
/// would not fit in RAM materialized.
///
/// Determinism: a tensor's bytes depend only on (trips of interval t, mapper,
/// spec, dims) — BuildOdTensor is sequential — so cache hits and misses are
/// byte-identical, and so are runs under different ODF_THREADS values.
/// Thread-safe: all state is guarded by one mutex; tensors are built under
/// the lock (concurrent callers of the same interval wait rather than build
/// twice) and handed out as shared_ptr snapshots, so eviction never
/// invalidates a batch being stacked on another thread.
///
/// Metrics (when ODF_METRICS=1): stream.cache_hits / stream.cache_misses
/// counters, stream.build_ns histogram.
class TripOdSource final : public OdSource {
 public:
  /// `trips` must outlive the source. `mapper == nullptr` keeps trips as-is.
  /// `cache_capacity` is in intervals; values below 1 clamp to 1.
  TripOdSource(const TripSource* trips, const SpeedHistogramSpec& spec,
               int64_t num_origins, int64_t num_destinations,
               TripMapper mapper = nullptr, int64_t cache_capacity = 16);

  int64_t NumIntervals() const override;
  std::shared_ptr<const OdTensor> Interval(int64_t t) const override;

  int64_t cache_capacity() const { return cache_capacity_; }
  /// Currently cached interval indices, most recently used first (tests).
  std::vector<int64_t> CachedIntervals() const;

 private:
  const TripSource* trips_;
  SpeedHistogramSpec spec_;
  int64_t num_origins_;
  int64_t num_destinations_;
  TripMapper mapper_;
  int64_t cache_capacity_;

  mutable std::mutex mu_;
  // LRU: list front = most recent; map gives O(1) lookup + splice handle.
  mutable std::list<std::pair<int64_t, std::shared_ptr<const OdTensor>>> lru_;
  mutable std::unordered_map<
      int64_t,
      std::list<std::pair<int64_t, std::shared_ptr<const OdTensor>>>::iterator>
      index_;
};

}  // namespace odf

#endif  // ODF_OD_STREAM_SOURCE_H_
