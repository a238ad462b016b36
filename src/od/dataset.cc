#include "od/dataset.h"

#include <algorithm>

namespace odf {

ForecastDataset::ForecastDataset(const OdTensorSeries* series,
                                 int64_t history, int64_t horizon)
    : series_(series), history_(history), horizon_(horizon) {
  ODF_CHECK(series != nullptr);
  InitDims();
}

ForecastDataset::ForecastDataset(const OdSource* source, int64_t history,
                                 int64_t horizon)
    : source_(source), history_(history), horizon_(horizon) {
  ODF_CHECK(source != nullptr);
  InitDims();
}

void ForecastDataset::InitDims() {
  ODF_CHECK_GT(history_, 0);
  ODF_CHECK_GT(horizon_, 0);
  ODF_CHECK_GE(SourceNumIntervals(), history_ + horizon_)
      << "series too short for the requested window";
  const std::shared_ptr<const OdTensor> proto = SourceInterval(0);
  num_origins_ = proto->num_origins();
  num_destinations_ = proto->num_destinations();
  num_buckets_ = proto->num_buckets();
}

int64_t ForecastDataset::SourceNumIntervals() const {
  return series_ != nullptr ? series_->NumIntervals()
                            : source_->NumIntervals();
}

std::shared_ptr<const OdTensor> ForecastDataset::SourceInterval(
    int64_t t) const {
  if (series_ != nullptr) {
    // Aliasing pointer: the series owns the tensor and outlives us.
    return std::shared_ptr<const OdTensor>(std::shared_ptr<const OdTensor>(),
                                           &series_->at(t));
  }
  return source_->Interval(t);
}

const OdTensorSeries& ForecastDataset::series() const {
  ODF_CHECK(series_ != nullptr)
      << "series() on a streaming-backed ForecastDataset; whole-series "
         "access requires the in-memory constructor (has_series())";
  return *series_;
}

int64_t ForecastDataset::NumSamples() const {
  return SourceNumIntervals() - history_ - horizon_ + 1;
}

int64_t ForecastDataset::AnchorInterval(int64_t i) const {
  ODF_CHECK_GE(i, 0);
  ODF_CHECK_LT(i, NumSamples());
  return i + history_ - 1;
}

ForecastDataset::Split ForecastDataset::ChronologicalSplit(
    double train_fraction, double validation_fraction) const {
  ODF_CHECK_GT(train_fraction, 0.0);
  ODF_CHECK_GE(validation_fraction, 0.0);
  ODF_CHECK_LT(train_fraction + validation_fraction, 1.0);
  const int64_t n = NumSamples();
  const int64_t train_end = static_cast<int64_t>(n * train_fraction);
  const int64_t val_end =
      static_cast<int64_t>(n * (train_fraction + validation_fraction));
  Split split;
  for (int64_t i = 0; i < n; ++i) {
    if (i < train_end) {
      split.train.push_back(i);
    } else if (i < val_end) {
      split.validation.push_back(i);
    } else {
      split.test.push_back(i);
    }
  }
  ODF_CHECK(!split.train.empty());
  ODF_CHECK(!split.test.empty());
  return split;
}

Tensor ForecastDataset::StackIntervals(
    std::span<const int64_t> intervals) const {
  return Stack(intervals, /*masks=*/false);
}

Tensor ForecastDataset::Stack(std::span<const int64_t> intervals,
                              bool masks) const {
  ODF_CHECK(!intervals.empty());
  const int64_t cell = num_origins_ * num_destinations_ * num_buckets_;
  Tensor stacked(Shape({static_cast<int64_t>(intervals.size()), num_origins_,
                        num_destinations_, num_buckets_}));
  float* row = stacked.data();
  for (const int64_t t : intervals) {
    ODF_CHECK_GE(t, 0);
    ODF_CHECK_LT(t, SourceNumIntervals());
    // The shared_ptr keeps the tensor alive across the copy even if a
    // streaming source evicts it from its cache concurrently.
    const std::shared_ptr<const OdTensor> tensor = SourceInterval(t);
    if (masks) {
      const Tensor mask = tensor->ExpandedMask();
      std::copy(mask.data(), mask.data() + cell, row);
    } else {
      std::copy(tensor->values().data(), tensor->values().data() + cell, row);
    }
    row += cell;
  }
  return stacked;
}

Batch ForecastDataset::MakeBatch(
    std::span<const int64_t> sample_indices) const {
  ODF_CHECK(!sample_indices.empty());
  Batch out;
  out.anchor_intervals.reserve(sample_indices.size());
  for (int64_t i : sample_indices) {
    out.anchor_intervals.push_back(AnchorInterval(i));
  }

  // Each step stacks one interval per sample, at a fixed offset from the
  // sample's anchor.
  std::vector<int64_t> step(sample_indices.size());
  auto stack = [&](int64_t offset_from_anchor, bool masks) {
    for (size_t b = 0; b < step.size(); ++b) {
      step[b] = out.anchor_intervals[b] + offset_from_anchor;
    }
    return Stack(step, masks);
  };
  for (int64_t t = 0; t < history_; ++t) {
    out.inputs.push_back(stack(t - history_ + 1, /*masks=*/false));
  }
  for (int64_t j = 1; j <= horizon_; ++j) {
    out.targets.push_back(stack(j, /*masks=*/false));
    out.target_masks.push_back(stack(j, /*masks=*/true));
  }
  return out;
}

std::vector<std::vector<int64_t>> ForecastDataset::ShuffledBatches(
    const std::vector<int64_t>& samples, int64_t batch_size, Rng& rng) const {
  ODF_CHECK_GT(batch_size, 0);
  std::vector<int64_t> shuffled = samples;
  // Fisher–Yates with our deterministic RNG.
  for (size_t i = shuffled.size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng.UniformInt(i));
    std::swap(shuffled[i - 1], shuffled[j]);
  }
  std::vector<std::vector<int64_t>> batches;
  for (size_t start = 0; start < shuffled.size();
       start += static_cast<size_t>(batch_size)) {
    const size_t end = std::min(shuffled.size(),
                                start + static_cast<size_t>(batch_size));
    batches.emplace_back(shuffled.begin() + static_cast<int64_t>(start),
                         shuffled.begin() + static_cast<int64_t>(end));
  }
  return batches;
}

}  // namespace odf
