#include "tensor/csr.h"

#include <algorithm>
#include <bit>

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

namespace {

// Accumulates the kW-lane feature window [w0, w0 + kW) of one output row,
// Σ_idx av[idx]·x[ci[idx], w0 + c] over the row's nonzeros [begin, end), and
// stores its lanes from f0 ≥ w0 on. kW is a compile-time constant so the
// accumulator block stays in vector registers across the nonzero loop; `xb`
// and `orow` point at column 0 of their rows, x's rows `ldx` floats apart.
template <int64_t kW>
inline void SpmmWindow(int64_t begin, int64_t end, const int32_t* ci,
                       const float* av, const float* __restrict xb,
                       int64_t ldx, int64_t w0, int64_t f0,
                       float* __restrict orow) {
  float acc[kW];
  for (int64_t c = 0; c < kW; ++c) acc[c] = 0.0f;
  for (int64_t idx = begin; idx < end; ++idx) {
    const float v = av[idx];
    const float* __restrict xrow =
        xb + static_cast<int64_t>(ci[idx]) * ldx + w0;
    for (int64_t c = 0; c < kW; ++c) acc[c] = ODF_FMADD(v, xrow[c], acc[c]);
  }
  for (int64_t c = 0; c < kW; ++c) {
    if (w0 + c >= f0) orow[w0 + c] = acc[c];
  }
}

// SpmmWindow at the runtime power-of-two width w ≤ kW.
template <int64_t kW = 2 * kFTile>
inline void SpmmWindowOfWidth(int64_t w, int64_t begin, int64_t end,
                              const int32_t* ci, const float* av,
                              const float* xb, int64_t ldx, int64_t w0,
                              int64_t f0, float* orow) {
  if constexpr (kW > 1) {
    if (w < kW) {
      SpmmWindowOfWidth<kW / 2>(w, begin, end, ci, av, xb, ldx, w0, f0, orow);
      return;
    }
  }
  SpmmWindow<kW>(begin, end, ci, av, xb, ldx, w0, f0, orow);
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
ODF_NO_UNROLL_AND_JAM void SpmmRows(const CsrMatrix& a, int64_t f,
                                    const float* x, float* out, int64_t t0,
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
    const float* xb = x + t / rows * cols * f;
    float* orow = out + t * f;
    const int64_t begin = rp[t % rows];
    const int64_t end = rp[t % rows + 1];
    for (int64_t f0 = 0; f0 < bulk; f0 += kFTile) {
      SpmmWindow<kFTile>(begin, end, ci, av, xb, f, f0, f0, orow);
    }
    int64_t f0 = bulk;
    for (int64_t s = 0; s < tails; ++s) {
      SpmmWindowOfWidth(tail[s][0], begin, end, ci, av, xb, f, tail[s][1], f0,
                        orow);
      f0 = tail[s][1] + tail[s][0];
    }
  }
}

// Core CSR × dense kernel: out[b] = a · x[b] for `batch` row-major
// [a.cols(), f] operands. Accumulation per output element is in ascending
// column order of `a`, independent of thread count.
void SpmmTiled(const CsrMatrix& a, int64_t batch, int64_t f, const float* x,
               float* out) {
  if (f == 0 || batch == 0) return;
  // Multiply-adds per output row: the mean row's nonzeros times f.
  const int64_t row_work = a.nnz() * f / std::max<int64_t>(1, a.rows());
  ParallelFor(batch * a.rows(), row_work, [&](int64_t t0, int64_t t1) {
    SpmmRows(a, f, x, out, t0, t1);
  });
}

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
  SpmmTiled(a, batch, f, x, out);
}

// Per-thread grow-only scratch for the Chebyshev recurrence's wide tiles.
// Growth does not zero-fill: every float a kernel reads is written first.
float* ChebWideScratch(int64_t len) {
  thread_local std::unique_ptr<float[]> buf;
  thread_local int64_t capacity = 0;
  if (capacity < len) {
    buf = std::make_unique_for_overwrite<float[]>(static_cast<size_t>(len));
    capacity = len;
  }
  return buf.get();
}

// `count` node-major ("wide") [n, B·F] tiles in the per-thread scratch,
// tile(s)[i, b·f + c] = tap s[b, i, c], each padded by 128 bytes: unpadded
// 4 KiB multiples 4K-alias row for row, 20–30% slower on the dense path.
struct WideTiles {
  WideTiles(const GraphOperator& op, int64_t batch, int64_t f, int64_t count)
      : op(op), batch(batch), f(f), data(ChebWideScratch(count * stride)) {}

  float* tile(int64_t s) const { return data + s * stride; }

  // dst = L̂·src (L̂ᵀ·src with `transpose`) as ONE wide product: the one
  // dense-vs-CSR choice. Both paths chain L̂'s row in ascending column order
  // (the GEMM's zero terms leave that chain unchanged), so they agree.
  void Apply(bool transpose, const float* src, float* dst) const {
    if (op.use_sparse()) {
      SpmmTiled(transpose ? op.csr_transpose() : op.csr(), 1, batch * f, src,
                dst);
    } else {
      GemmRawInto((transpose ? op.dense_transpose() : op.dense()).data(), src,
                  dst, n, n, batch * f);
    }
  }

  // Calls fn(b·n + i, i·B·F + b·F, WithLaneWidth(f)'s lanes) for every row
  // (b, i), in blocks of 16 nodes with every batch element within a block:
  // at power-of-two widths a tile column maps to a few cache sets, so a pass
  // over all n nodes per element evicts lines the next element reuses.
  template <typename Fn>
  void ForEachRow(Fn fn) const {
    const int64_t nb = batch, nn = n, nf = f, wide = batch * f;
    WithLaneWidth(nf, [&](auto lanes) {
      for (int64_t i0 = 0; i0 < nn; i0 += 16) {
        const int64_t i1 = std::min(nn, i0 + 16);
        for (int64_t b = 0; b < nb; ++b) {
          for (int64_t i = i0; i < i1; ++i) {
            fn(b * nn + i, i * wide + b * nf, lanes);
          }
        }
      }
    });
  }

  const GraphOperator& op;
  const int64_t batch;
  const int64_t f;
  const int64_t n = op.nodes();
  const int64_t size = n * batch * f;  // floats per tile
  const int64_t stride = size + 32;
  float* const data;
};

// Floats of wide tiles per pass of the recurrence (128 KiB); larger batches
// run in chunks so the layout passes find their tiles in cache. Unchunked,
// [16, 64, 132] order 2 took twice as long per element as batch 8; 2^15
// matched or beat 2^12…2^17 on most rows of the shard-graph kernel sweep.
constexpr int64_t kWideChunkFloats = int64_t{1} << 15;

// Calls fn(b0, count) over near-equal batch ranges whose tiles fit
// kWideChunkFloats (one element at least), as parallel tasks with their
// products inline; a lone chunk splits its products instead.
template <typename Fn>
void ForEachWideChunk(int64_t batch, int64_t per_element, Fn fn) {
  const int64_t fit = std::max<int64_t>(1, kWideChunkFloats / per_element);
  const int64_t chunks = (batch + fit - 1) / fit;
  const int64_t count = (batch + chunks - 1) / chunks;
  ParallelFor(chunks, kMinChunkWork, [&](int64_t c0, int64_t c1) {
    for (int64_t c = c0; c < c1; ++c) {
      fn(c * count, std::min(count, batch - c * count));
    }
  });
}

// ChebyshevBasisInto on one chunk (order ≥ 2). With one batch element the
// wide layout is x's own, so tap 0 reads x in place.
void ChebForwardChunk(const GraphOperator& op, const float* x, int64_t batch,
                      int64_t f, int64_t order, float* out) {
  const WideTiles tiles(op, batch, f, order);
  const float* t0 = x;
  if (batch > 1) {
    float* dst = tiles.tile(0);
    tiles.ForEachRow([&](int64_t row, int64_t at, auto lanes) {
      CopyLanes<decltype(lanes)::value>(x + row * f, dst + at, f);
    });
    t0 = dst;
  }
  const auto prev = [&](int64_t s) { return s == 0 ? t0 : tiles.tile(s); };

  // T_2 = L̂·T_1, then T_s = 2·L̂·T_{s-1} − T_{s-2}: a flat combine pass per
  // tap, but the last tap's runs in the gather. 2·x is exact, so the
  // subtraction rounds once either way.
  const int64_t last = order - 1;
  for (int64_t s = 1; s <= last; ++s) {
    float* __restrict cur = tiles.tile(s);
    tiles.Apply(/*transpose=*/false, prev(s - 1), cur);
    if (s >= 2 && s < last) {
      const float* __restrict p2 = prev(s - 2);
      for (int64_t e = 0; e < tiles.size; ++e) cur[e] = 2.0f * cur[e] - p2[e];
    }
  }

  // Each row of `out` gathers every tap once, folding in the last tap's
  // combine (x's own row is T_{s-2} at order 3). Locals, not `tiles` members
  // reloaded after each store, keep the row loops fast (1.7× at F = 4).
  const float* const taps = tiles.data;
  const int64_t stride = tiles.stride;
  const int64_t ld = order * f;
  const bool fold = last >= 2;
  const int64_t copied = fold ? last - 1 : last;
  tiles.ForEachRow([&](int64_t row, int64_t at, auto lanes) {
    constexpr int64_t F = decltype(lanes)::value;
    float* orow = out + row * ld;
    CopyLanes<F>(x + row * f, orow, f);
    for (int64_t s = 1; s <= copied; ++s) {
      CopyLanes<F>(taps + s * stride + at, orow + s * f, f);
    }
    if (fold) {
      const float* tl = taps + last * stride + at;
      const float* p2 = last == 2 ? x + row * f : tl - 2 * stride;
      MapLanes<F>(orow + last * f, f,
                  [&](int64_t c) { return 2.0f * tl[c] - p2[c]; });
    }
  });
}

// ChebyshevBasisGrad on one chunk (order ≥ 2): grad's taps 1…order−1 go
// into tiles 1…order−1, and tile 0 takes each step's product L̂ᵀ·G_s.
void ChebGradChunk(const GraphOperator& op, const float* grad, int64_t batch,
                   int64_t f, int64_t order, float* gx) {
  const WideTiles tiles(op, batch, f, order);
  float* const taps = tiles.data;
  const int64_t stride = tiles.stride;
  tiles.ForEachRow([&](int64_t row, int64_t at, auto lanes) {
    for (int64_t s = 1; s < order; ++s) {
      CopyLanes<decltype(lanes)::value>(grad + (row * order + s) * f,
                                        taps + s * stride + at, f);
    }
  });
  // s = order−1…2: G_{s-1} += 2·L̂ᵀ·G_s, G_{s-2} −= G_s (G_0's at the end).
  float* __restrict prod = tiles.tile(0);
  for (int64_t s = order - 1; s >= 1; --s) {
    tiles.Apply(/*transpose=*/true, tiles.tile(s), prod);
    if (s == 1) break;
    float* __restrict g1 = tiles.tile(s - 1);
    for (int64_t e = 0; e < tiles.size; ++e) g1[e] += 2.0f * prod[e];
    if (s >= 3) {
      float* __restrict g2 = tiles.tile(s - 2);
      const float* __restrict gs = tiles.tile(s);
      for (int64_t e = 0; e < tiles.size; ++e) g2[e] -= gs[e];
    }
  }

  // dX = (G_0 − G_2) + L̂ᵀ·G_1, each row of dX written once.
  tiles.ForEachRow([&](int64_t row, int64_t at, auto lanes) {
    constexpr int64_t F = decltype(lanes)::value;
    const float* g0 = grad + row * order * f;
    const float* p1 = taps + at;
    if (order == 2) {
      MapLanes<F>(gx + row * f, f, [&](int64_t c) { return g0[c] + p1[c]; });
    } else {
      const float* g2 = p1 + 2 * stride;
      MapLanes<F>(gx + row * f, f,
                  [&](int64_t c) { return (g0[c] - g2[c]) + p1[c]; });
    }
  });
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
  if (order == 1) {
    std::copy_n(x.data(), x.numel(), out->data());  // T_1 = x
    return;
  }
  if (batch * f == 0) return;
  ForEachWideChunk(batch, order * n * f, [&](int64_t b0, int64_t count) {
    ChebForwardChunk(op, x.data() + b0 * n * f, count, f, order,
                     out->data() + b0 * n * order * f);
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
  Tensor gx(Shape({batch, n, f}));
  if (batch * f == 0) return gx;
  ForEachWideChunk(batch, order * n * f, [&](int64_t b0, int64_t count) {
    ChebGradChunk(op, grad.data() + b0 * n * order * f, count, f, order,
                  gx.data() + b0 * n * f);
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
