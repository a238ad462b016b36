#ifndef ODF_NN_LINEAR_H_
#define ODF_NN_LINEAR_H_

#include "autograd/ops.h"
#include "nn/module.h"
#include "util/rng.h"

namespace odf::nn {

/// Fully-connected layer y = x·W + b.
///
/// Accepts rank-2 inputs [B, in] or rank-3 inputs [B, n, in] (the weight is
/// broadcast across the middle dimension via batched matmul).
class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng,
         bool with_bias = true);

  /// Applies the affine map.
  autograd::Var Forward(const autograd::Var& x) const;

  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  bool with_bias_;
  autograd::Var weight_;
  autograd::Var bias_;
};

}  // namespace odf::nn

#endif  // ODF_NN_LINEAR_H_
