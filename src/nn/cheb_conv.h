#ifndef ODF_NN_CHEB_CONV_H_
#define ODF_NN_CHEB_CONV_H_

#include <memory>

#include "autograd/ops.h"
#include "nn/graph_basis.h"
#include "nn/module.h"
#include "util/rng.h"

namespace odf::nn {

/// Computes the `order` Chebyshev taps of the scaled Laplacian applied to
/// node features x [B, n, F] (T_1 = x, T_2 = L̂x, T_s = 2·L̂·T_{s-1} −
/// T_{s-2}) and concatenates them along the feature axis into [B, n,
/// order·F]. Each L̂-application goes through ag::SpMM, so the recurrence
/// runs on the CSR kernel whenever the operator selected the sparse path.
///
/// The recurrence is the hot loop of every graph convolution; consumers
/// that convolve the same (L̂, x) pair — the GCGRU reset/update gates —
/// compute this once and share it.
autograd::Var ChebyshevStack(const std::shared_ptr<const GraphOperator>& op,
                             const autograd::Var& x, int64_t order);

/// Total L̂-applications performed by ChebyshevStack since process start
/// (monotonic; test hook verifying the fused-gate op-count guarantee).
int64_t GraphApplyCount();

/// Cheby-Net spectral graph convolution (paper Eq. 5, Defferrard et al.):
///
///   T_1 = X,  T_2 = L̂·X,  T_s = 2·L̂·T_{s-1} − T_{s-2}
///   Y = Σ_s T_s Θ_s + b
///
/// where L̂ is the scaled Laplacian of the region proximity graph (a
/// constant), X is [B, n, F_in] node features, and the layer has `order`
/// Chebyshev taps with F_out output filters.
class ChebConv : public Module {
 public:
  /// `scaled_laplacian` is the n×n matrix L̂ = 2L/λ_max − I (precomputed once
  /// per graph by the caller — see graph/laplacian.h). Wraps it in a private
  /// GraphOperator; use the shared_ptr overload to share one operator across
  /// layers.
  ChebConv(Tensor scaled_laplacian, int64_t in_features, int64_t out_features,
           int64_t order, Rng& rng, bool with_bias = true);

  /// Shares `op` (dense + CSR L̂) with every other layer holding it.
  ChebConv(std::shared_ptr<const GraphOperator> op, int64_t in_features,
           int64_t out_features, int64_t order, Rng& rng,
           bool with_bias = true);

  /// Generalized form: the tap stack comes from `basis` (Chebyshev,
  /// diffusion, or adaptive — nn/graph_basis.h), whose parameters (if any)
  /// belong to the basis's owner, not this layer. Θ is
  /// [basis->taps()·F_in, F_out], which for a plain Chebyshev basis is the
  /// legacy [order·F_in, F_out] drawn from the same RNG stream.
  ChebConv(std::shared_ptr<const GraphBasis> basis, int64_t in_features,
           int64_t out_features, Rng& rng, bool with_bias = true);

  /// Applies the convolution to [B, n, F_in]; returns [B, n, F_out].
  /// Rank-2 input [n, F_in] is treated as batch 1 and returned rank-2.
  autograd::Var Forward(const autograd::Var& x) const;

  int64_t num_nodes() const { return basis_->nodes(); }
  int64_t in_features() const { return in_features_; }
  int64_t out_features() const { return out_features_; }
  int64_t order() const { return basis_->order(); }
  const std::shared_ptr<const GraphBasis>& basis() const { return basis_; }
  /// The primary operator (L̂ / forward diffusion); null for adaptive.
  const std::shared_ptr<const GraphOperator>& graph_op() const {
    return basis_->primary_op();
  }

 private:
  int64_t in_features_;
  int64_t out_features_;
  bool with_bias_;
  std::shared_ptr<const GraphBasis> basis_;  // tap stack (graph snapshot)
  autograd::Var theta_;                      // [taps * F_in, F_out]
  autograd::Var bias_;                       // [F_out]
};

}  // namespace odf::nn

#endif  // ODF_NN_CHEB_CONV_H_
