#ifndef ODF_TENSOR_TENSOR_H_
#define ODF_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace odf {

/// Shape of an N-dimensional tensor (a thin wrapper over dimension sizes).
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<int64_t> dims) : dims_(dims) { Validate(); }
  explicit Shape(std::vector<int64_t> dims) : dims_(std::move(dims)) {
    Validate();
  }

  /// Number of dimensions (rank).
  int64_t rank() const { return static_cast<int64_t>(dims_.size()); }

  /// Size of dimension `axis`; negative axes count from the back.
  int64_t dim(int64_t axis) const {
    if (axis < 0) axis += rank();
    ODF_CHECK_GE(axis, 0);
    ODF_CHECK_LT(axis, rank());
    return dims_[static_cast<size_t>(axis)];
  }

  /// Total element count (1 for a rank-0 scalar shape).
  int64_t numel() const {
    int64_t n = 1;
    for (int64_t d : dims_) n *= d;
    return n;
  }

  /// Row-major strides for this shape.
  std::vector<int64_t> Strides() const {
    std::vector<int64_t> strides(dims_.size(), 1);
    for (int64_t i = rank() - 2; i >= 0; --i) {
      strides[static_cast<size_t>(i)] =
          strides[static_cast<size_t>(i + 1)] * dims_[static_cast<size_t>(i + 1)];
    }
    return strides;
  }

  const std::vector<int64_t>& dims() const { return dims_; }

  /// Sets dimension `axis` (non-negative) in place.
  void set_dim(int64_t axis, int64_t size) {
    ODF_CHECK_GE(size, 0);
    dims_.at(static_cast<size_t>(axis)) = size;
  }

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return dims_ != other.dims_; }

  /// Human-readable form, e.g. "[3, 4, 7]".
  std::string ToString() const;

 private:
  void Validate() const {
    for (int64_t d : dims_) ODF_CHECK_GE(d, 0);
  }

  std::vector<int64_t> dims_;
};

/// Dense, contiguous, row-major float32 tensor.
///
/// `Tensor` is a value type: copies copy the data. All tensors in this
/// library are small (at most a few hundred thousand elements), so value
/// semantics keep the code simple and safe; hot paths move rather than copy.
class Tensor {
 public:
  /// Empty rank-1 tensor of size 0.
  Tensor() : shape_({0}) {}

  /// Zero-initialized tensor with the given shape.
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)),
        data_(static_cast<size_t>(shape_.numel()), 0.0f) {}

  /// Tensor with the given shape and explicit contents (row-major order).
  Tensor(Shape shape, std::vector<float> data)
      : shape_(std::move(shape)), data_(std::move(data)) {
    ODF_CHECK_EQ(static_cast<int64_t>(data_.size()), shape_.numel());
  }

  // -- Factories --------------------------------------------------------

  /// All-ones tensor.
  static Tensor Ones(Shape shape) { return Full(std::move(shape), 1.0f); }

  /// Constant-filled tensor.
  static Tensor Full(Shape shape, float value);

  /// A shape with no storage: numel() is 0 and only shape() may be read.
  /// What an op returns while an autograd Capture records it without
  /// running its kernel (autograd/capture.h).
  static Tensor ShapeOnly(Shape shape) {
    Tensor t;
    t.shape_ = std::move(shape);
    return t;
  }

  /// 2-D identity matrix of size n×n.
  static Tensor Identity(int64_t n);

  /// Rank-0-like scalar (stored as shape {1}).
  static Tensor Scalar(float value) { return Full(Shape({1}), value); }

  /// [0, 1, ..., n-1] as a rank-1 tensor.
  static Tensor Arange(int64_t n);

  /// I.i.d. uniform values in [lo, hi).
  static Tensor RandomUniform(Shape shape, Rng& rng, float lo = 0.0f,
                              float hi = 1.0f);

  /// I.i.d. normal values.
  static Tensor RandomNormal(Shape shape, Rng& rng, float mean = 0.0f,
                             float stddev = 1.0f);

  /// Glorot/Xavier-uniform initialization for a weight of shape
  /// [fan_in, fan_out] (trailing two dims are used for higher ranks).
  static Tensor GlorotUniform(Shape shape, Rng& rng);

  // -- Metadata ---------------------------------------------------------

  const Shape& shape() const { return shape_; }
  int64_t rank() const { return shape_.rank(); }
  int64_t dim(int64_t axis) const { return shape_.dim(axis); }
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  // -- Element access ---------------------------------------------------

  /// Flat (row-major) element access.
  float& operator[](int64_t i) {
    ODF_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }
  float operator[](int64_t i) const {
    ODF_DCHECK(i >= 0 && i < numel());
    return data_[static_cast<size_t>(i)];
  }

  /// 2-D element access (requires rank 2).
  float& At2(int64_t i, int64_t j) {
    ODF_DCHECK(rank() == 2);
    return data_[static_cast<size_t>(i * dim(1) + j)];
  }
  float At2(int64_t i, int64_t j) const {
    ODF_DCHECK(rank() == 2);
    return data_[static_cast<size_t>(i * dim(1) + j)];
  }

  /// 3-D element access (requires rank 3).
  float& At3(int64_t i, int64_t j, int64_t k) {
    ODF_DCHECK(rank() == 3);
    return data_[static_cast<size_t>((i * dim(1) + j) * dim(2) + k)];
  }
  float At3(int64_t i, int64_t j, int64_t k) const {
    ODF_DCHECK(rank() == 3);
    return data_[static_cast<size_t>((i * dim(1) + j) * dim(2) + k)];
  }

  /// General multi-index access.
  float& At(const std::vector<int64_t>& index);
  float At(const std::vector<int64_t>& index) const;

  /// Single-element extraction; requires numel() == 1.
  float Item() const {
    ODF_CHECK_EQ(numel(), 1);
    return data_[0];
  }

  // -- Reshaping (cheap, data is shared by move/copy of the vector) ------

  /// Returns a tensor with the same data and a new shape; numel must match.
  /// One dimension may be -1 and is inferred.
  Tensor Reshape(std::vector<int64_t> dims) const&;
  Tensor Reshape(std::vector<int64_t> dims) &&;

  /// Changes the shape, element count included, in place. Storage is kept:
  /// shrinking frees nothing, so growing back to an element count the
  /// tensor held before allocates nothing, and neither does a shape of no
  /// higher rank than one the tensor has held (the dims are copied into
  /// the ones it holds). Elements past the old count read zero.
  void Resize(const Shape& shape) {
    data_.resize(static_cast<size_t>(shape.numel()));
    shape_ = shape;
  }

  /// Flattens to rank 1.
  Tensor Flatten() const& { return Reshape({numel()}); }
  Tensor Flatten() && { return std::move(*this).Reshape({numel()}); }

  /// Human-readable dump (small tensors only; large ones are abbreviated).
  std::string ToString() const;

 private:
  std::vector<int64_t> ResolveDims(std::vector<int64_t> dims) const;

  Shape shape_;
  std::vector<float> data_;
};

}  // namespace odf

#endif  // ODF_TENSOR_TENSOR_H_
