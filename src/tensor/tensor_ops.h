#ifndef ODF_TENSOR_TENSOR_OPS_H_
#define ODF_TENSOR_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"

// Fused multiply-add pinned to the build's scalar contraction policy. On
// targets with hardware FMA, `-ffp-contract` fuses scalar `a*b + c` into one
// rounding — but GCC's vectorizer does not always carry that fusion into
// hand-tiled loops, silently splitting them into mul+add and breaking bit-
// equality against the scalar kernels. This macro forces the fused form
// where scalar code fuses and the split form where it cannot, so "identical
// per-element accumulation order" implies bit-identical results across
// every kernel in a build.
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
namespace odf::fp_detail {
inline float Fmadd(float a, float b, float c) {
  return __builtin_fmaf(a, b, c);
}
}  // namespace odf::fp_detail
#define ODF_FMADD(a, b, c) (::odf::fp_detail::Fmadd((a), (b), (c)))
#else
#define ODF_FMADD(a, b, c) ((a) * (b) + (c))
#endif

// Opts one function out of GCC's -O3 unroll-and-jam (-floop-unroll-and-jam).
// The pass fuses pairs of outer-reduction iterations around a compile-time
// lane loop — the shape of every register-tiled kernel here — and the jammed
// body no longer vectorizes: it keeps the accumulator block on the stack.
// Clang has no such pass. CI fails if a -O3 compile reports the pass
// anywhere in csr.cc, tensor_ops.cc or graph_pool.cc.
#if defined(__GNUC__) && !defined(__clang__)
#define ODF_NO_UNROLL_AND_JAM \
  __attribute__((optimize("no-loop-unroll-and-jam")))
#else
#define ODF_NO_UNROLL_AND_JAM
#endif

namespace odf {

// Pure tensor kernels. These operate on values only; the autograd layer
// (src/autograd) builds differentiable graph nodes on top of them.

// -- Broadcasting -------------------------------------------------------

/// Returns the numpy-style broadcast shape of `a` and `b`; aborts if the
/// shapes are incompatible.
Shape BroadcastShape(const Shape& a, const Shape& b);

/// True when `from` can be broadcast to `to`.
bool IsBroadcastableTo(const Shape& from, const Shape& to);

/// Sums `t` over its broadcast dimensions so the result has shape `target`
/// (the adjoint of broadcasting; used by autograd backward passes).
Tensor ReduceToShape(const Tensor& t, const Shape& target);

// -- Elementwise binary (with broadcasting) ------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);

// -- Scalar ops ----------------------------------------------------------

Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

// -- Elementwise unary ----------------------------------------------------

Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
/// Natural log; inputs must be positive (use AddScalar for smoothing).
Tensor Log(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);

// -- Matrix products ------------------------------------------------------

/// 2-D matrix product: [m,k] x [k,n] -> [m,n].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Batched matrix product with leading-batch broadcasting:
/// [B,m,k] x [B,k,n] -> [B,m,n]; either side may be rank-2 and is broadcast
/// across the batch.
Tensor BatchMatMul(const Tensor& a, const Tensor& b);

// -- Layout ---------------------------------------------------------------

/// Transposes a rank-2 tensor.
Tensor Transpose2D(const Tensor& a);

/// Swaps the last two dimensions of a rank>=2 tensor.
Tensor TransposeLast2(const Tensor& a);

/// General permutation of axes; `perm` must be a permutation of 0..rank-1.
Tensor Permute(const Tensor& a, const std::vector<int64_t>& perm);

/// Concatenates tensors along `axis`; all other dims must match.
Tensor Concat(const std::vector<Tensor>& parts, int64_t axis);

/// Extracts `len` indices starting at `start` along `axis`.
Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t len);

// -- Reductions -----------------------------------------------------------

/// Sum over all elements, returned as a shape-{1} tensor.
Tensor SumAll(const Tensor& a);
/// Mean over all elements, returned as a shape-{1} tensor.
Tensor MeanAll(const Tensor& a);
/// Sum along one axis; `keepdim` keeps the reduced axis with size 1.
Tensor Sum(const Tensor& a, int64_t axis, bool keepdim);
/// Mean along one axis.
Tensor Mean(const Tensor& a, int64_t axis, bool keepdim);
/// Largest element (value only).
float MaxValue(const Tensor& a);
/// Smallest element (value only).
float MinValue(const Tensor& a);

// -- Neural-net helpers -----------------------------------------------------

/// Softmax along the last axis.
Tensor SoftmaxLastDim(const Tensor& a);

/// Squared Frobenius norm (sum of squares) as a float.
float SquaredNorm(const Tensor& a);

/// True when shapes match and elements differ by at most `atol`.
bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f);

// -- Preallocated-output variants ----------------------------------------
//
// Each `FooInto` writes Foo's result into `*out`, which must already hold
// the exact result shape; the kernel allocates no output storage (internal
// scratch such as GEMM packing buffers may still allocate). The allocating
// entry points above delegate to these, so the loop bodies — and therefore
// the floating-point results — are identical on both paths. Unary, scalar
// and binary kernels may alias `out` with an input of `out`'s shape (reads
// are element-aligned with the write); layout and matrix kernels must not.

void AddInto(const Tensor& a, const Tensor& b, Tensor* out);
void SubInto(const Tensor& a, const Tensor& b, Tensor* out);
void MulInto(const Tensor& a, const Tensor& b, Tensor* out);
void AddScalarInto(const Tensor& a, float s, Tensor* out);
void MulScalarInto(const Tensor& a, float s, Tensor* out);
void SigmoidInto(const Tensor& a, Tensor* out);
void TanhInto(const Tensor& a, Tensor* out);
void ReluInto(const Tensor& a, Tensor* out);
void MatMulInto(const Tensor& a, const Tensor& b, Tensor* out);
void BatchMatMulInto(const Tensor& a, const Tensor& b, Tensor* out);
void PermuteInto(const Tensor& a, const std::vector<int64_t>& perm,
                 Tensor* out);
/// Concatenates `count` tensors (given as a pointer array so callers on the
/// serving hot path need no temporary vector) along `axis`.
void ConcatInto(const Tensor* const* parts, size_t count, int64_t axis,
                Tensor* out);
void SliceInto(const Tensor& a, int64_t axis, int64_t start, int64_t len,
               Tensor* out);
void SumInto(const Tensor& a, int64_t axis, bool keepdim, Tensor* out);
void SoftmaxLastDimInto(const Tensor& a, Tensor* out);

// -- Raw GEMM entry (layout kernels) --------------------------------------

/// out (m x n) = a (m x k) · b (k x n), raw row-major pointers; out's prior
/// contents are never read. Runs the one GEMM dispatch behind MatMul and
/// BatchMatMul, so
/// per-element accumulation (k-ascending, one fused chain) is bit-identical
/// to the Tensor entry points. For layout-restructuring kernels (e.g. the wide
/// Chebyshev basis) that operate on scratch buffers rather than Tensors.
void GemmRawInto(const float* a, const float* b, float* out, int64_t m,
                 int64_t k, int64_t n);

// -- Fused OD recovery ----------------------------------------------------
//
// The paper's recover stage in one batched kernel:
//   out[b,o,d,:] = softmax_k( temperature * sum_beta r[b,o,beta,:] *
//                                                    c[b,beta,d,:] )
// with r: [B,N,beta,K], c: [B,beta,N',K] -> out: [B,N,N',K]. Replaces the
// permute + batched-GEMM + scalar-mul + softmax pipeline with a single pass
// per (b,o,d) cell; accumulation over beta is ascending and cells partition
// disjointly across threads, so results are thread-count invariant.

Tensor FusedRecover(const Tensor& r, const Tensor& c, float temperature);
void FusedRecoverInto(const Tensor& r, const Tensor& c, float temperature,
                      Tensor* out);

/// Backward of FusedRecover. `y` is the forward output, `g` the upstream
/// gradient; writes dL/dr and dL/dc (same shapes as r and c, fully
/// overwritten) and returns dL/dtemperature.
float FusedRecoverGrad(const Tensor& r, const Tensor& c, float temperature,
                       const Tensor& y, const Tensor& g, Tensor* dr,
                       Tensor* dc);

}  // namespace odf

#endif  // ODF_TENSOR_TENSOR_OPS_H_
