#ifndef ODF_OD_OD_SOURCE_H_
#define ODF_OD_OD_SOURCE_H_

#include <memory>

#include "od/od_tensor.h"

namespace odf {

/// Read-only provider of per-interval OD tensors — the abstraction behind
/// ForecastDataset's streaming mode, where a backend (od/stream_source.h)
/// builds tensors on demand from a trip log, so dataset size is no longer
/// bounded by RAM.
///
/// `Interval` returns a shared snapshot rather than a bare reference so a
/// bounded streaming cache can evict entries while callers (e.g. the
/// parallel validation-loss evaluator, which batches concurrently) still
/// hold theirs. Implementations must be thread-safe and deterministic: the
/// same `t` always yields byte-identical tensor contents.
class OdSource {
 public:
  virtual ~OdSource() = default;

  /// Number of intervals in the underlying series.
  virtual int64_t NumIntervals() const = 0;

  /// Snapshot of interval `t`'s OD tensor; never null.
  virtual std::shared_ptr<const OdTensor> Interval(int64_t t) const = 0;
};

}  // namespace odf

#endif  // ODF_OD_OD_SOURCE_H_
