#include "od/stream_source.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/metrics.h"

namespace odf {

TripOdSource::TripOdSource(const TripSource* trips,
                           const SpeedHistogramSpec& spec,
                           int64_t num_origins, int64_t num_destinations,
                           TripMapper mapper, int64_t cache_capacity)
    : trips_(trips),
      spec_(spec),
      num_origins_(num_origins),
      num_destinations_(num_destinations),
      mapper_(std::move(mapper)),
      cache_capacity_(std::max<int64_t>(cache_capacity, 1)) {
  ODF_CHECK(trips != nullptr);
  ODF_CHECK_GT(num_origins, 0);
  ODF_CHECK_GT(num_destinations, 0);
}

int64_t TripOdSource::NumIntervals() const { return trips_->NumIntervals(); }

std::shared_ptr<const OdTensor> TripOdSource::Interval(int64_t t) const {
  ODF_CHECK_GE(t, 0);
  ODF_CHECK_LT(t, trips_->NumIntervals());

  static Counter& hits =
      MetricsRegistry::Global().GetCounter("stream.cache_hits");
  static Counter& misses =
      MetricsRegistry::Global().GetCounter("stream.cache_misses");
  static Histogram& build_ns =
      MetricsRegistry::Global().GetHistogram("stream.build_ns");

  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(t);
  if (it != index_.end()) {
    if (MetricsEnabled()) hits.Add();
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }

  if (MetricsEnabled()) misses.Add();
  std::shared_ptr<const OdTensor> built;
  {
    ScopedTimer timer(build_ns);
    std::vector<Trip> raw;
    trips_->IntervalTrips(t, &raw);
    if (mapper_) {
      std::vector<Trip> mapped;
      mapped.reserve(raw.size());
      for (const Trip& trip : raw) {
        Trip local = trip;
        if (!mapper_(trip, &local.origin, &local.destination)) continue;
        ODF_DCHECK(local.origin >= 0 && local.origin < num_origins_);
        ODF_DCHECK(local.destination >= 0 &&
                   local.destination < num_destinations_);
        mapped.push_back(local);
      }
      raw = std::move(mapped);
    }
    built = std::make_shared<const OdTensor>(
        BuildOdTensor(raw, num_origins_, num_destinations_, spec_));
  }

  lru_.emplace_front(t, built);
  index_[t] = lru_.begin();
  while (static_cast<int64_t>(lru_.size()) > cache_capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
  return built;
}

std::vector<int64_t> TripOdSource::CachedIntervals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> out;
  out.reserve(lru_.size());
  for (const auto& entry : lru_) out.push_back(entry.first);
  return out;
}

}  // namespace odf
