#include "tensor/csr.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "tensor/lanes.h"
#include "tensor/tensor_ops.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace odf {
namespace {

// Feature-tile width of the SpMM kernel: the accumulator block lives in
// vector registers across a row's nonzeros, so each x-row visit costs only
// loads and FMAs — no read-modify-write of the output.
constexpr int64_t kFTile = 32;

}  // namespace

CsrMatrix CsrMatrix::FromDense(const Tensor& dense) {
  ODF_CHECK_EQ(dense.rank(), 2);
  CsrMatrix m;
  m.rows_ = dense.dim(0);
  m.cols_ = dense.dim(1);
  ODF_CHECK_LE(m.cols_, static_cast<int64_t>(INT32_MAX));
  m.row_ptr_.assign(static_cast<size_t>(m.rows_) + 1, 0);
  const float* p = dense.data();
  for (int64_t i = 0; i < m.rows_; ++i) {
    const float* row = p + i * m.cols_;
    for (int64_t j = 0; j < m.cols_; ++j) {
      if (row[j] != 0.0f) {
        m.col_idx_.push_back(static_cast<int32_t>(j));
        m.values_.push_back(row[j]);
      }
    }
    m.row_ptr_[static_cast<size_t>(i) + 1] =
        static_cast<int64_t>(m.values_.size());
  }
  return m;
}

CsrMatrix CsrMatrix::Transpose() const {
  CsrMatrix t;
  t.rows_ = cols_;
  t.cols_ = rows_;
  t.row_ptr_.assign(static_cast<size_t>(t.rows_) + 1, 0);
  t.col_idx_.resize(values_.size());
  t.values_.resize(values_.size());
  // Counting sort by column: a stable pass over the row-ordered input
  // leaves each transposed row in ascending column order.
  for (const int32_t j : col_idx_) ++t.row_ptr_[static_cast<size_t>(j) + 1];
  for (size_t i = 1; i < t.row_ptr_.size(); ++i) {
    t.row_ptr_[i] += t.row_ptr_[i - 1];
  }
  std::vector<int64_t> fill(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
  for (int64_t i = 0; i < rows_; ++i) {
    for (int64_t idx = row_ptr_[static_cast<size_t>(i)];
         idx < row_ptr_[static_cast<size_t>(i) + 1]; ++idx) {
      const size_t j = static_cast<size_t>(col_idx_[static_cast<size_t>(idx)]);
      const int64_t dst = fill[j]++;
      t.col_idx_[static_cast<size_t>(dst)] = static_cast<int32_t>(i);
      t.values_[static_cast<size_t>(dst)] = values_[static_cast<size_t>(idx)];
    }
  }
  return t;
}

Tensor CsrMatrix::ToDense() const {
  Tensor dense(Shape({rows_, cols_}));
  for (int64_t i = 0; i < rows_; ++i) {
    for (int64_t idx = row_ptr_[static_cast<size_t>(i)];
         idx < row_ptr_[static_cast<size_t>(i) + 1]; ++idx) {
      dense.At2(i, col_idx_[static_cast<size_t>(idx)]) =
          values_[static_cast<size_t>(idx)];
    }
  }
  return dense;
}

// How the row accumulator acc = Σ_j a[i,j]·x[b,j,:] lands in the output.
enum class SpmmEpilogue {
  kStore,        // out = acc
  kChebCombine,  // out = 2·acc − other     (forward recurrence step)
  kAddTwice,     // out += 2·acc            (reverse recurrence step)
  kAddOther,     // out = acc + other       (final gradient combine)
};

// Accumulates the kW-lane feature window [w0, w0 + kW) of one output row,
// Σ_idx av[idx]·x[ci[idx], w0 + c] over the row's nonzeros [begin, end), and
// writes its lanes from f0 ≥ w0 on through the epilogue. kW is a compile-time
// constant so the accumulator block stays in vector registers across the
// nonzero loop; `xb`, `vrow` and `orow` point at column 0 of their rows.
template <SpmmEpilogue kEp, int64_t kW>
inline void SpmmWindow(int64_t begin, int64_t end, const int32_t* ci,
                       const float* av, const float* __restrict xb,
                       int64_t ldx, int64_t w0, int64_t f0,
                       const float* __restrict vrow, float* __restrict orow) {
  float acc[kW];
  for (int64_t c = 0; c < kW; ++c) acc[c] = 0.0f;
  for (int64_t idx = begin; idx < end; ++idx) {
    const float v = av[idx];
    const float* __restrict xrow =
        xb + static_cast<int64_t>(ci[idx]) * ldx + w0;
    for (int64_t c = 0; c < kW; ++c) acc[c] = ODF_FMADD(v, xrow[c], acc[c]);
  }
  for (int64_t c = 0; c < kW; ++c) {
    const int64_t col = w0 + c;
    if (col < f0) continue;
    if constexpr (kEp == SpmmEpilogue::kStore) {
      orow[col] = acc[c];
    } else if constexpr (kEp == SpmmEpilogue::kChebCombine) {
      orow[col] = 2.0f * acc[c] - vrow[col];
    } else if constexpr (kEp == SpmmEpilogue::kAddTwice) {
      orow[col] += 2.0f * acc[c];
    } else {
      orow[col] = acc[c] + vrow[col];
    }
  }
}

// SpmmWindow at the runtime power-of-two width w ≤ kW.
template <SpmmEpilogue kEp, int64_t kW = 2 * kFTile>
inline void SpmmWindowOfWidth(int64_t w, int64_t begin, int64_t end,
                              const int32_t* ci, const float* av,
                              const float* xb, int64_t ldx, int64_t w0,
                              int64_t f0, const float* vrow, float* orow) {
  if constexpr (kW > 1) {
    if (w < kW) {
      SpmmWindowOfWidth<kEp, kW / 2>(w, begin, end, ci, av, xb, ldx, w0, f0,
                                     vrow, orow);
      return;
    }
  }
  SpmmWindow<kEp, kW>(begin, end, ci, av, xb, ldx, w0, f0, vrow, orow);
}

// GCC's -O3 unroll-and-jam fuses pairs of nonzero iterations in SpmmWindow
// around its lane loop. The jammed body no longer vectorizes and keeps the
// accumulator block on the stack: on the 64-node shard graph the kernel ran
// 4.5–7.6× slower than with the pass off. The row driver below, into which
// the windows inline, opts out (ODF_NO_UNROLL_AND_JAM, tensor_ops.h).
//
// Output rows t ∈ [t0, t1) of the flattened (batch, row) range, in lane
// windows of compile-time width: kFTile-lane windows over [0, bulk), then
// at most two power-of-two windows over the rest. With AVX2 or AVX-512 a
// pass over a row's nonzeros costs about the same at 32 or 64 lanes (the
// FMA chains' latency bounds it), so once f ≥ 2·kFTile a ragged tail joins
// the last full window as one 2·kFTile-lane window. A tail window ends at
// column f and may start before the lanes left to write; its leading lanes
// repeat earlier windows' arithmetic in registers and are not stored. So
// every window reads only columns [0, f) of x, and every output element
// keeps one ascending-column fused chain.
template <SpmmEpilogue kEp>
ODF_NO_UNROLL_AND_JAM void SpmmRows(const CsrMatrix& a, int64_t f,
                                    const float* x, int64_t ldx,
                                    const float* other, int64_t ldother,
                                    float* out, int64_t ldo, int64_t t0,
                                    int64_t t1) {
  const int64_t rows = a.rows();
  const int64_t cols = a.cols();
  const int64_t* rp = a.row_ptr().data();
  const int32_t* ci = a.col_idx().data();
  const float* av = a.values().data();
  int64_t bulk = f / kFTile * kFTile;
  if (bulk != f && bulk >= 2 * kFTile) bulk -= kFTile;
  int64_t tail[2][2] = {};  // (width, first lane) of each tail window
  int64_t tails = 0;
  for (int64_t f0 = bulk; f0 < f; ++tails) {
    const uint64_t rest = static_cast<uint64_t>(f - f0);
    int64_t w = static_cast<int64_t>(std::bit_ceil(rest));
    if (f >= kFTile) w = std::max(w, kFTile);
    if (w > f) w = static_cast<int64_t>(std::bit_floor(rest));
    tail[tails][0] = w;
    tail[tails][1] = std::min(f0, f - w);
    f0 = tail[tails][1] + w;
  }
  for (int64_t t = t0; t < t1; ++t) {
    const int64_t b = t / rows;
    const int64_t i = t % rows;
    const float* xb = x + b * cols * ldx;
    float* orow = out + (b * rows + i) * ldo;
    const float* vrow =
        other != nullptr ? other + (b * rows + i) * ldother : nullptr;
    const int64_t begin = rp[i];
    const int64_t end = rp[i + 1];
    for (int64_t f0 = 0; f0 < bulk; f0 += kFTile) {
      SpmmWindow<kEp, kFTile>(begin, end, ci, av, xb, ldx, f0, f0, vrow,
                              orow);
    }
    int64_t f0 = bulk;
    for (int64_t s = 0; s < tails; ++s) {
      SpmmWindowOfWidth<kEp>(tail[s][0], begin, end, ci, av, xb, ldx,
                             tail[s][1], f0, vrow, orow);
      f0 = tail[s][1] + tail[s][0];
    }
  }
}

// Core CSR × dense kernel over strided row views. `x`, `other` and `out`
// address row (b, i) at base + (b·n + i)·ld — so a feature-column slice of a
// larger tensor can be read or written in place (ld = the enclosing row
// width). `other` is only dereferenced by the epilogues that use it.
// Accumulation per output element is in ascending column order of `a`,
// independent of thread count.
template <SpmmEpilogue kEp>
void SpmmTiled(const CsrMatrix& a, int64_t batch, int64_t f, const float* x,
               int64_t ldx, const float* other, int64_t ldother, float* out,
               int64_t ldo) {
  if (f == 0 || batch == 0) return;
  // Multiply-adds per output row: the mean row's nonzeros times f.
  const int64_t row_work = a.nnz() * f / std::max<int64_t>(1, a.rows());
  ParallelFor(batch * a.rows(), row_work, [&](int64_t t0, int64_t t1) {
    SpmmRows<kEp>(a, f, x, ldx, other, ldother, out, ldo, t0, t1);
  });
}

namespace {

// The CSR product behind odf::SpMM and GraphApplyInto's sparse path:
// out[b] = a · x[b] for `batch` dense [a.cols(), f] operands.
void SpmmInto(const CsrMatrix& a, int64_t batch, int64_t f, const float* x,
              float* out) {
  ODF_TRACE_SCOPE("kernel/", "spmm", "kernel");
  static Histogram& spmm_hist =
      MetricsRegistry::Global().GetHistogram("spmm.seconds");
  ScopedTimer timer(spmm_hist);
  if (MetricsEnabled()) {
    static Counter& calls = MetricsRegistry::Global().GetCounter("spmm.calls");
    calls.Add(1);
  }
  SpmmTiled<SpmmEpilogue::kStore>(a, batch, f, x, f, nullptr, 0, out, f);
}

// Row-wise strided copy: dst row (b·n + i)·ld_dst ⟵ src row (b·n + i)·ld_src,
// f floats each.
void CopyRows(int64_t rows, int64_t f, const float* src, int64_t ld_src,
              float* dst, int64_t ld_dst) {
  ParallelFor(rows, f, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      std::memcpy(dst + t * ld_dst, src + t * ld_src,
                  static_cast<size_t>(f) * sizeof(float));
    }
  });
}

// Per-thread scratch for ChebyshevBasisInto's wide taps (grow-only).
float* ChebWideScratch(int64_t len) {
  thread_local std::vector<float> buf;
  if (static_cast<int64_t>(buf.size()) < len) {
    buf.resize(static_cast<size_t>(len));
  }
  return buf.data();
}

}  // namespace

Tensor SpMM(const CsrMatrix& a, const Tensor& x) {
  const bool squeeze = x.rank() == 2;
  ODF_CHECK(x.rank() == 2 || x.rank() == 3);
  const int64_t batch = squeeze ? 1 : x.dim(0);
  const int64_t n = squeeze ? x.dim(0) : x.dim(1);
  const int64_t f = squeeze ? x.dim(1) : x.dim(2);
  ODF_CHECK_EQ(n, a.cols()) << "spmm " << a.rows() << "x" << a.cols()
                            << " x " << x.shape().ToString();
  Tensor out(squeeze ? Shape({a.rows(), f})
                     : Shape({batch, a.rows(), f}));
  SpmmInto(a, batch, f, x.data(), out.data());
  return out;
}

void ChebyshevBasisInto(const GraphOperator& op, const Tensor& x,
                        int64_t order, Tensor* out) {
  ODF_TRACE_SCOPE("kernel/", "cheb_basis", "kernel");
  static Histogram& cheb_hist =
      MetricsRegistry::Global().GetHistogram("cheb_basis.seconds");
  ScopedTimer timer(cheb_hist);
  ODF_CHECK_GT(order, 0);
  ODF_CHECK_EQ(x.rank(), 3);
  const int64_t batch = x.dim(0);
  const int64_t n = x.dim(1);
  const int64_t f = x.dim(2);
  ODF_CHECK_EQ(n, op.nodes());
  ODF_CHECK(out->rank() == 3 && out->dim(0) == batch && out->dim(1) == n &&
            out->dim(2) == order * f);
  const int64_t ld = order * f;
  const float* px = x.data();
  float* po = out->data();
  const int64_t wide = batch * f;
  if (order == 1 || wide == 0) {
    CopyRows(batch * n, f, px, f, po, ld);  // T_1 = x
    return;
  }

  // Every tap lives in node-major ("wide") layout, tap s as an [n, wide]
  // tile with tile(s)[i, b·f + c] = T_{s+1}[b, i, c]: each L̂-product is one
  // product with a wide operand, and `out` is written once, row by row,
  // after the last tap. Each tile is padded by 128 bytes: when n·wide
  // floats fill a multiple of 4 KiB, unpadded taps 4K-alias row for row,
  // which cost 20–30% on the dense path. With one batch element the wide
  // layout is x's own [n, f] layout, so tap 0 reads x in place and its tile
  // stays unused.
  const int64_t tile = n * wide + 32;
  float* scratch = ChebWideScratch(order * tile);
  const auto tap = [&](int64_t s) -> float* { return scratch + s * tile; };
  // Both layout passes below visit the rows (b, i) in blocks of
  // kLayoutRows nodes, every batch element within a block: a tile's rows
  // lie `wide` floats apart, and at power-of-two widths a whole column of
  // them maps to a few cache sets, so a pass over all n nodes per batch
  // element evicts each line before the next element reuses it.
  constexpr int64_t kLayoutRows = 16;
  const auto for_each_row = [&](auto fn) {
    for (int64_t i0 = 0; i0 < n; i0 += kLayoutRows) {
      const int64_t i1 = std::min(n, i0 + kLayoutRows);
      for (int64_t b = 0; b < batch; ++b) {
        for (int64_t i = i0; i < i1; ++i) fn(b, i);
      }
    }
  };
  const float* t0 = px;
  if (batch > 1) {
    WithLaneWidth(f, [&](auto lanes) {
      constexpr int64_t F = decltype(lanes)::value;
      float* dst = tap(0);
      for_each_row([&](int64_t b, int64_t i) {
        CopyLanes<F>(px + (b * n + i) * f, dst + i * wide + b * f, f);
      });
    });
    t0 = tap(0);
  }
  const auto prev = [&](int64_t s) -> const float* {
    return s == 0 ? t0 : tap(s);
  };

  // T_2 = L̂·T_1, then T_s = 2·L̂·T_{s-1} − T_{s-2}.
  if (op.use_sparse()) {
    SpmmTiled<SpmmEpilogue::kStore>(op.csr(), 1, wide, t0, wide, nullptr, 0,
                                    tap(1), wide);
    for (int64_t s = 2; s < order; ++s) {
      SpmmTiled<SpmmEpilogue::kChebCombine>(op.csr(), 1, wide, tap(s - 1),
                                            wide, prev(s - 2), wide, tap(s),
                                            wide);
    }
  } else {
    // Dense graph: one [n,n] x [n,wide] GEMM per tap keeps the full
    // register-tile accumulator block hot — far higher throughput than the
    // row-chained SpMM on a dense operator. Zero-skip transparency plus the
    // shared fused-accumulation policy (ODF_FMADD) makes the result bit-
    // identical to the CSR path. The 2·(L̂T) − T_{s-2} combine runs as one
    // flat pass over the tile; 2·x is exact, so the subtraction rounds once
    // either way and matches the SpMM's fused epilogue bit-for-bit.
    for (int64_t s = 1; s < order; ++s) {
      float* __restrict cur = tap(s);
      GemmRawInto(op.dense().data(), prev(s - 1), cur, n, n, wide);
      if (s >= 2) {
        const float* __restrict p2 = prev(s - 2);
        for (int64_t e = 0; e < n * wide; ++e) cur[e] = 2.0f * cur[e] - p2[e];
      }
    }
  }

  // Each output row (b, i) gathers its f lanes of every tap at once, so
  // `out` is written once.
  WithLaneWidth(f, [&](auto lanes) {
    constexpr int64_t F = decltype(lanes)::value;
    for_each_row([&](int64_t b, int64_t i) {
      float* orow = po + (b * n + i) * ld;
      CopyLanes<F>(px + (b * n + i) * f, orow, f);
      for (int64_t s = 1; s < order; ++s) {
        CopyLanes<F>(tap(s) + i * wide + b * f, orow + s * f, f);
      }
    });
  });
}

Tensor ChebyshevBasis(const GraphOperator& op, const Tensor& x,
                      int64_t order) {
  ODF_CHECK_GT(order, 0);
  ODF_CHECK_EQ(x.rank(), 3);
  Tensor out(Shape({x.dim(0), x.dim(1), order * x.dim(2)}));
  ChebyshevBasisInto(op, x, order, &out);
  return out;
}

Tensor ChebyshevBasisGrad(const GraphOperator& op, const Tensor& grad,
                          int64_t order) {
  ODF_TRACE_SCOPE("kernel/", "cheb_basis_grad", "kernel");
  static Histogram& cheb_grad_hist =
      MetricsRegistry::Global().GetHistogram("cheb_basis_grad.seconds");
  ScopedTimer timer(cheb_grad_hist);
  ODF_CHECK_GT(order, 0);
  ODF_CHECK_EQ(grad.rank(), 3);
  const int64_t batch = grad.dim(0);
  const int64_t n = grad.dim(1);
  ODF_CHECK_EQ(n, op.nodes());
  ODF_CHECK_EQ(grad.dim(2) % order, 0);
  const int64_t f = grad.dim(2) / order;
  if (order == 1) return grad;
  const int64_t ld = order * f;
  Tensor gx(Shape({batch, n, f}));
  if (f == 0) return gx;

  // Reverse recurrence over tap gradients G_s (slice s−1 of a working
  // copy):  G_{s-1} += 2·L̂ᵀ·G_s,  G_{s-2} −= G_s  for s = order..3, then
  // dX = G_1 + L̂ᵀ·G_2.
  Tensor g = grad;
  float* pg = g.data();

  if (op.use_sparse()) {
    const CsrMatrix& at = op.csr_transpose();
    for (int64_t s = order; s >= 3; --s) {
      SpmmTiled<SpmmEpilogue::kAddTwice>(at, batch, f, pg + (s - 1) * f, ld,
                                         nullptr, 0, pg + (s - 2) * f, ld);
      float* psub = pg + (s - 3) * f;
      const float* pgs = pg + (s - 1) * f;
      ParallelFor(batch * n, f, [&](int64_t t0, int64_t t1) {
        for (int64_t t = t0; t < t1; ++t) {
          for (int64_t c = 0; c < f; ++c) psub[t * ld + c] -= pgs[t * ld + c];
        }
      });
    }
    SpmmTiled<SpmmEpilogue::kAddOther>(at, batch, f, pg + f, ld, pg, ld,
                                       gx.data(), f);
    return gx;
  }

  // Dense path: contiguous copies of the slices feed the GEMM.
  auto slice_copy = [&](int64_t s) {
    Tensor t(Shape({batch, n, f}));
    CopyRows(batch * n, f, pg + s * f, ld, t.data(), f);
    return t;
  };
  for (int64_t s = order; s >= 3; --s) {
    const Tensor lt = BatchMatMul(op.dense_transpose(), slice_copy(s - 1));
    const float* plt = lt.data();
    float* padd = pg + (s - 2) * f;
    float* psub = pg + (s - 3) * f;
    const float* pgs = pg + (s - 1) * f;
    ParallelFor(batch * n, f, [&](int64_t t0, int64_t t1) {
      for (int64_t t = t0; t < t1; ++t) {
        for (int64_t c = 0; c < f; ++c) {
          padd[t * ld + c] += 2.0f * plt[t * f + c];
          psub[t * ld + c] -= pgs[t * ld + c];
        }
      }
    });
  }
  const Tensor lt = BatchMatMul(op.dense_transpose(), slice_copy(1));
  const Tensor g1 = slice_copy(0);
  const float* plt = lt.data();
  const float* pg1 = g1.data();
  float* pgx = gx.data();
  ParallelFor(batch * n * f, 1, [&](int64_t e0, int64_t e1) {
    for (int64_t e = e0; e < e1; ++e) pgx[e] = pg1[e] + plt[e];
  });
  return gx;
}

void GraphApplyInto(const GraphOperator& op, const Tensor& x, Tensor* out,
                    bool transpose) {
  ODF_TRACE_SCOPE("kernel/", "graph_apply", "kernel");
  ODF_CHECK(x.rank() == 2 || x.rank() == 3);
  const int64_t batch = x.rank() == 2 ? 1 : x.dim(0);
  const int64_t n = x.dim(-2);
  const int64_t f = x.dim(-1);
  ODF_CHECK_EQ(n, op.nodes());
  ODF_CHECK(out->shape() == x.shape());
  if (op.use_sparse()) {
    SpmmInto(transpose ? op.csr_transpose() : op.csr(), batch, f, x.data(),
             out->data());
  } else {
    BatchMatMulInto(transpose ? op.dense_transpose() : op.dense(), x, out);
  }
}

Tensor GraphApply(const GraphOperator& op, const Tensor& x, bool transpose) {
  Tensor out(x.shape());
  GraphApplyInto(op, x, &out, transpose);
  return out;
}

std::shared_ptr<const GraphOperator> GraphOperator::Make(Tensor dense,
                                                         int force_sparse) {
  ODF_CHECK_EQ(dense.rank(), 2);
  ODF_CHECK_EQ(dense.dim(0), dense.dim(1));
  auto op = std::shared_ptr<GraphOperator>(new GraphOperator());
  op->dense_ = std::move(dense);
  op->csr_ = CsrMatrix::FromDense(op->dense_);
  op->csr_t_ = op->csr_.Transpose();
  op->dense_t_ = Transpose2D(op->dense_);
  op->use_sparse_ = force_sparse < 0
                       ? op->csr_.Density() <= kSparseDensityThreshold
                       : force_sparse >= 1;
  return op;
}

}  // namespace odf
