#ifndef ODF_AUTOGRAD_OPS_H_
#define ODF_AUTOGRAD_OPS_H_

#include <memory>
#include <vector>

#include "autograd/var.h"
#include "tensor/csr.h"
#include "util/rng.h"

namespace odf::autograd {

// Differentiable ops over Var. Each builds a tape node whose backward pass
// propagates gradients to its inputs (only when some input requires grad).

// -- Arithmetic (numpy-style broadcasting on both sides) -------------------

Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);
Var AddScalar(const Var& a, float s);
Var MulScalar(const Var& a, float s);
Var Neg(const Var& a);
/// Elementwise square (x ⊙ x).
Var Square(const Var& a);

// -- Matrix products -------------------------------------------------------

/// [m,k] x [k,n] -> [m,n].
Var MatMul(const Var& a, const Var& b);
/// Batched matmul with rank-2 broadcast on either side (see tensor op).
Var BatchMatMul(const Var& a, const Var& b);

/// Applies a constant graph operator along the node dimension:
/// y[b, i, f] = Σ_j L̂[i, j] · x[b, j, f] for x of shape [B, n, F] (or
/// [n, F]), through odf::GraphApply, which picks the CSR or dense kernel
/// `op` selected; the gradient w.r.t. x is L̂ᵀ · dy through the same call
/// with `transpose` (L̂ itself is constant).
Var SpMM(std::shared_ptr<const GraphOperator> op, const Var& x);

/// Fused Chebyshev basis: maps x [B, n, F] to [T_1 | T_2 | … | T_order]
/// stacked on the feature axis ([B, n, order·F]), where T_1 = x, T_2 = L̂x,
/// T_s = 2·L̂·T_{s-1} − T_{s-2}. One tape node for the whole recurrence; the
/// backward pass runs the recurrence in reverse with L̂ᵀ. Both directions use
/// the CSR kernel when `op` selected the sparse path.
Var ChebyshevBasis(std::shared_ptr<const GraphOperator> op, const Var& x,
                   int64_t order);

// -- Shape surgery -----------------------------------------------------------

Var Reshape(const Var& a, std::vector<int64_t> dims);
Var Concat(const std::vector<Var>& parts, int64_t axis);
Var Slice(const Var& a, int64_t axis, int64_t start, int64_t len);
Var TransposeLast2(const Var& a);
Var Permute(const Var& a, const std::vector<int64_t>& perm);

// -- Nonlinearities -----------------------------------------------------------

Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Relu(const Var& a);
Var Exp(const Var& a);
/// log(a + eps); eps keeps the op finite at 0.
Var LogEps(const Var& a, float eps = 1e-8f);
/// Softmax along the last axis.
Var SoftmaxLastDim(const Var& a);

/// Fused OD recovery (paper Eq. 8): for factor tensors r [B, N, β, K] and
/// c [B, β, N', K] and a shape-{1} temperature τ, computes
/// softmax_K(τ · Σ_β r ⊙ c) as [B, N, N', K] in one tape node over one
/// batched kernel, replacing the permute + batched-GEMM + scalar-mul +
/// softmax chain. Differentiable in r, c and τ; the serving path calls the
/// same odf::FusedRecover kernel, so tape and compiled forwards match
/// bit-for-bit.
Var FusedRecover(const Var& r, const Var& c, const Var& temperature);

// -- Reductions ----------------------------------------------------------------

/// Sum of all elements -> shape {1}.
Var SumAll(const Var& a);
/// Mean of all elements -> shape {1}.
Var MeanAll(const Var& a);
/// Sum along one axis; `keepdim` keeps the reduced axis with size 1.
Var SumAxis(const Var& a, int64_t axis, bool keepdim);

// -- Regularization / losses -----------------------------------------------------

/// Inverted dropout: at train time zeroes each element with prob `p` and
/// scales survivors by 1/(1-p); identity when `train` is false.
Var Dropout(const Var& a, float p, bool train, Rng& rng);

/// Masked squared error: sum(mask ⊙ (pred - target)²) / normalizer.
/// `mask` and `target` are constants (no gradient).
Var MaskedSquaredError(const Var& pred, const Tensor& target,
                       const Tensor& mask, float normalizer = 1.0f);

/// Squared Frobenius norm as a scalar Var: sum(a ⊙ a).
Var FrobeniusSquared(const Var& a);

/// Graph Dirichlet energy trace(Xᵀ L X) for batched node-feature tensors.
/// `x` has node dimension `node_axis` of size n and `laplacian` is a constant
/// n×n matrix; returns a scalar. Used for the Eq. 11 regularizer.
Var DirichletEnergy(const Var& x, const Tensor& laplacian, int64_t node_axis);

}  // namespace odf::autograd

#endif  // ODF_AUTOGRAD_OPS_H_
