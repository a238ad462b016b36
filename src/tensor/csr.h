#ifndef ODF_TENSOR_CSR_H_
#define ODF_TENSOR_CSR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace odf {

/// Compressed-sparse-row form of a rank-2 float matrix.
///
/// The α-thresholded Gaussian proximity matrices of the paper (and the
/// Laplacians derived from them) are sparse by construction; this is the
/// storage the sparse graph compute path runs on. Rows are stored in
/// ascending column order, so every kernel that walks a row accumulates in
/// a fixed order regardless of thread count.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Extracts the exact non-zeros of a dense rank-2 tensor.
  static CsrMatrix FromDense(const Tensor& dense);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t nnz() const { return static_cast<int64_t>(values_.size()); }

  /// nnz / (rows · cols); 0 for an empty matrix.
  double Density() const {
    const int64_t total = rows_ * cols_;
    return total == 0 ? 0.0 : static_cast<double>(nnz()) / total;
  }

  /// The transposed matrix (columns become rows, still column-ordered).
  CsrMatrix Transpose() const;

  /// Densifies (tests and debugging).
  Tensor ToDense() const;

  /// Row i occupies [row_ptr()[i], row_ptr()[i+1]) of col_idx()/values().
  const std::vector<int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<int32_t>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }

 private:
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<int64_t> row_ptr_;  // size rows + 1
  std::vector<int32_t> col_idx_;  // size nnz
  std::vector<float> values_;     // size nnz
};

/// Sparse × dense product over the node dimension:
///   out[b, i, f] = Σ_j a[i, j] · x[b, j, f]
/// for x of shape [B, n, F] (or [n, F], treated as batch 1 and returned
/// rank-2), with n == a.cols(). Parallel over batch × output rows; each
/// output element accumulates a's row in ascending column order, so results
/// are bit-identical for every thread count.
Tensor SpMM(const CsrMatrix& a, const Tensor& x);

class GraphOperator;

/// Fused Chebyshev basis of a graph operator: for x [B, n, F] computes all
/// `order` taps of the recurrence T_1 = x, T_2 = L̂x, T_s = 2·L̂·T_{s-1} −
/// T_{s-2} directly into one [B, n, order·F] tensor (tap s occupies feature
/// columns [s·F, (s+1)·F)), with one product per tap on the CSR or dense
/// path chosen by `op` and no intermediate tensors. Deterministic for every
/// thread count.
Tensor ChebyshevBasis(const GraphOperator& op, const Tensor& x, int64_t order);

/// ChebyshevBasis into a preallocated [B, n, order·F] output: the one
/// Chebyshev forward kernel, run by the tape and by the compiled serving
/// plan alike. Taps live in node-major ("wide") [n, B·F] tiles in a
/// per-thread grow-only scratch (at B = 1 x is read in place), so each
/// L̂-product is ONE SpMM or GEMM over a wide operand; each 2·L̂T − T combine
/// is a flat pass, the last one folded into the gather that writes each row
/// of `out` once. Batches whose tiles exceed 128 KiB run in chunks, in
/// parallel across threads. Per element the accumulation is L̂'s row in
/// ascending column order and every combine rounds once, so results depend
/// neither on the thread count nor on B.
void ChebyshevBasisInto(const GraphOperator& op, const Tensor& x,
                        int64_t order, Tensor* out);

/// Adjoint of ChebyshevBasis: given dY [B, n, order·F], returns dX [B, n, F]
/// by running the recurrence in reverse on the same wide tiles, one L̂ᵀ
/// product per step. Bit-identical to that recurrence composed from tensor
/// ops (BatchMatMul with L̂ᵀ, MulScalar, Add, Sub) at every thread count.
Tensor ChebyshevBasisGrad(const GraphOperator& op, const Tensor& grad,
                          int64_t order);

/// Single graph application op · x (or opᵀ · x with `transpose`) for x of
/// shape [B, n, F] or [n, F], into a preallocated output of x's shape: the
/// one owner of the dense-vs-CSR choice for a plain graph product. The tape
/// runs it both ways (ag::SpMM's forward, and its backward with
/// `transpose`) and the compiled serving plan runs its forward (serve
/// kGraphApply, used by the diffusion and correlation bases). The sparse
/// path runs the CSR tiled SpMM behind odf::SpMM, the dense path
/// BatchMatMulInto, so results are bit-identical at every thread count.
void GraphApplyInto(const GraphOperator& op, const Tensor& x, Tensor* out,
                    bool transpose = false);

/// GraphApplyInto into a fresh tensor of x's shape.
Tensor GraphApply(const GraphOperator& op, const Tensor& x,
                  bool transpose = false);

/// A constant square matrix operand — the scaled graph Laplacian L̂ — held
/// in both dense and CSR form (plus both transposes) behind one shared
/// instance, with the compute path chosen once at construction. Every
/// encoder/decoder cell and output head applying the same graph shares one
/// GraphOperator instead of carrying its own dense copy.
///
/// Path selection: `force_sparse` if given, else automatic (sparse iff
/// density ≤ kSparseDensityThreshold).
class GraphOperator {
 public:
  /// Above this density the dense GEMM outruns the CSR kernel.
  /// Measured with order-2 ChebyshevBasisInto at batch 1 on one thread
  /// (AVX-512, Release -O3) over the 8×8 region grid, widening the
  /// proximity cutoff to raise the density. At the shard graph's own
  /// density, 0.165, CSR takes 2.8 µs against 9.9 µs dense at F = 32, and
  /// the two tie at F = 4 (3.0 against 3.4). A later run, once the GEMM
  /// row strips took every product, read 12.8 against 29.6 µs at F = 132
  /// and 21.9 against 51.3 µs at F = 280 (medians of three; compare within
  /// a row, the host ran slower). CSR keeps winning at F ≥ 32 up to density
  /// ≈ 0.4 (F = 280 ties from ≈ 0.39, F = 132 from ≈ 0.45); at F = 4 dense
  /// wins from ≈ 0.25.
  static constexpr double kSparseDensityThreshold = 0.25;

  /// `force_sparse`: -1 = auto (by density), 0 = dense, 1 = sparse.
  static std::shared_ptr<const GraphOperator> Make(Tensor dense,
                                                   int force_sparse = -1);

  int64_t nodes() const { return dense_.dim(0); }
  double density() const { return csr_.Density(); }
  bool use_sparse() const { return use_sparse_; }

  const Tensor& dense() const { return dense_; }
  const Tensor& dense_transpose() const { return dense_t_; }
  const CsrMatrix& csr() const { return csr_; }
  const CsrMatrix& csr_transpose() const { return csr_t_; }

 private:
  GraphOperator() = default;

  Tensor dense_;    // n×n
  Tensor dense_t_;  // n×n, transpose
  CsrMatrix csr_;
  CsrMatrix csr_t_;
  bool use_sparse_ = false;
};

}  // namespace odf

#endif  // ODF_TENSOR_CSR_H_
