#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "tensor/fast_math.h"
#include "tensor/lanes.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace odf {
namespace {

// -- Parallel substrate tuning --------------------------------------------
//
// Every kernel below keeps one invariant: the arithmetic performed for a
// given output element (operation order included) depends only on the
// problem shape, never on the thread count. ParallelFor partitions disjoint
// output ranges, so ODF_THREADS=1 and ODF_THREADS=N produce bit-identical
// tensors (asserted by substrate_test). Each call states its work per item
// (multiply-adds, or elements touched) and odf::ParallelFor sizes the chunks.

// GEMM panel width: every product runs through the row strips below, over
// kNR-wide column panels of B. A 4-row strip holds its accumulators in 8
// zmm registers on AVX-512 and in 8 ymm on AVX2. SSE builds take the same
// 16 lanes (16 xmm accumulators) rather than 8: at one thread 8 lanes ran
// the products wider than 16 columns 1.1–1.8× slower than 16 lanes did.
#if defined(__AVX512F__)
constexpr int64_t kNR = 32;
#else
constexpr int64_t kNR = 16;
#endif
// Row block of a tall A (GemmPanels). It sets the traversal order and the
// thread split, never a per-element sum.
constexpr int64_t kMC = 64;

// The kernels in this block are the fp32 GEMM substrate (tape and compiled
// plan share them, so plan-vs-tape bit-identity is structural).

// Number of j-tiles of width kNR covering n columns.
int64_t NumJTiles(int64_t n) { return (n + kNR - 1) / kNR; }

// Copies columns [j0, j0 + pw) of `b` (k x n) into `dst` as a k x pw
// row-major panel, zero-padded past n, so a strip reads whole pw-wide rows
// of B however narrow its live columns are.
void PadB(const float* b, int64_t k, int64_t n, int64_t j0, int64_t pw,
          float* dst) {
  const int64_t width = std::min(pw, n - j0);
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* src = b + kk * n + j0;
    float* row = dst + kk * pw;
    for (int64_t j = 0; j < width; ++j) row[j] = src[j];
    for (int64_t j = width; j < pw; ++j) row[j] = 0.0f;
  }
}

// Per-thread scratch for the B copies (the small-N pad and the n % kNR tail
// panel), grown on demand and never shrunk. Gemm fills it on the calling
// thread before any chunk reads it; the caller runs no other work while it
// waits on the chunks, so no second call can reuse the buffer mid-read.
// Every element a kernel reads is written first, so the buffer is never
// zero-initialized.
float* BScratch(int64_t size) {
  thread_local std::unique_ptr<float[]> buf;
  thread_local int64_t capacity = 0;
  if (capacity < size) {
    buf = std::make_unique_for_overwrite<float[]>(static_cast<size_t>(size));
    capacity = size;
  }
  return buf.get();
}

// Widest output for the row-strip kernel's small-N regime. The serving
// models' weight matmuls are all this narrow (n = buckets, filters or
// hidden size): B's rows are padded to one vector of kSmallNPad lanes for
// n <= 8 and of 16 lanes above that (B itself at n == 8 or 16). Padding
// lanes are computed but never stored, so the width is pure layout, not
// rounding. The 8-lane pad with 8-row strips replaced a 16-lane pad with
// 4-row strips, which spent half or more of each FMA on padding and held
// four accumulator chains. Against it (4-core AVX-512 Xeon, -O3, one
// thread pinned to one core, medians of 7 interleaved runs) 8192 × 21 × 8
// went from 157 to 40 µs (0.25×) on AVX-512, 4096 × 24 × 7 to 0.50× and a
// shard unit's 4096 × 8 × 4 to 0.26×; an AVX2 build ran these 0.25–0.45×
// and an SSE one, whose 16 xmm accumulators spill, 0.23–0.58×, so no ISA
// keeps the old layout.
constexpr int64_t kSmallNMax = 16;
constexpr int64_t kSmallNPad = 8;

// Tallest A whose column panels, not its row blocks, are split across
// threads: such an A is at most four 4-row strips, too few to share out.
// It sets only the thread split, never an element's sum.
constexpr int64_t kShortAMax = 16;

// Row-strip kernel over one column panel of B read in place: `bp` points at
// a k x P panel with leading dimension `ldb` (B itself where its columns
// fill the panel, a zero-padded scratch copy otherwise), and columns
// [cj0, cj0+nr) of C's `rows` rows receive the result. No per-call packing
// or allocation. R rows at a time hold R·P accumulators. The rows past the
// last full strip run in strips of R/2, R/4, … 1 when P is kSmallNPad, and
// one at a time when P is wider, where a 2-row strip measured slower than
// two single rows. Accumulators start at +0 and C is only written: each
// live element is its k-ascending chain under the pinned contraction,
// whatever strip height computed it; lanes >= nr are computed in registers
// but never stored. Each row is stored with one CopyLanes<NR> (lanes.h): NR
// is nr at compile time, or 0 for a runtime width. Rows are independent, so
// callers may split the row range or the column panels across threads
// without changing any element. The kernel opts out of unroll-and-jam,
// which spilled the accumulators of the kNR-wide strips, and the wide
// strips pair k steps in source instead, which they had gained from the
// pass (AVX-512, -O3, one thread, median of 5 interleaved runs: m = 16,
// k = 132, n = 32 went from 2.08 to 1.41 µs; n ≤ 16 products held level).
// The 8 × 8 strips take one k step at a time: paired, 8192 × 21 × 8 ran
// 1.3–1.4× slower.
template <int64_t P, int64_t R, int64_t NR>
ODF_NO_UNROLL_AND_JAM void GemmStrip(const float* a, const float* bp,
                                     int64_t ldb, float* c, int64_t ldc,
                                     int64_t rows, int64_t k, int64_t cj0,
                                     int64_t nr) {
  int64_t i = 0;
  for (; i + R <= rows; i += R) {
    float acc[R][P] = {};
    const float* ar = a + i * k;
    int64_t kk = 0;
    if constexpr (P > kSmallNPad && R > 1) {
      // Two k steps per iteration, each lane's chain still in ascending k.
      for (; kk + 2 <= k; kk += 2) {
        const float* b0 = bp + kk * ldb;
        const float* b1 = b0 + ldb;
        float v[R], w[R];
        for (int64_t r = 0; r < R; ++r) {
          v[r] = ar[r * k + kk];
          w[r] = ar[r * k + kk + 1];
        }
        for (int64_t j = 0; j < P; ++j) {
          for (int64_t r = 0; r < R; ++r) {
            acc[r][j] =
                ODF_FMADD(w[r], b1[j], ODF_FMADD(v[r], b0[j], acc[r][j]));
          }
        }
      }
    }
    for (; kk < k; ++kk) {
      const float* brow = bp + kk * ldb;
      float v[R];
      for (int64_t r = 0; r < R; ++r) v[r] = ar[r * k + kk];
      for (int64_t j = 0; j < P; ++j) {
        for (int64_t r = 0; r < R; ++r) {
          acc[r][j] = ODF_FMADD(v[r], brow[j], acc[r][j]);
        }
      }
    }
    for (int64_t r = 0; r < R; ++r) {
      CopyLanes<NR>(acc[r], c + (i + r) * ldc + cj0, nr);
    }
  }
  if constexpr (R > 1) {
    if (i < rows) {
      constexpr int64_t kTail = P > kSmallNPad ? 1 : R / 2;
      GemmStrip<P, kTail, NR>(a + i * k, bp, ldb, c + i * ldc, ldc, rows - i,
                              k, cj0, nr);
    }
  }
}

// Row strips over B's kNR-wide column panels, read in place; only the
// n % kNR tail panel is padded, once per call. A short A splits the panels
// across threads; a taller one splits its blocks of kMC rows, and each
// block runs against every panel, so its A rows stay in cache while the
// panels stream past. A whole block per item keeps a product of one block
// (every batch-1 serving product) on the calling thread, where a finer
// row split cost more in fork and join than it saved. Panels and rows
// write disjoint parts of C, so any partition is bit-identical.
void GemmPanels(const float* pa, const float* pb, float* po, int64_t m,
                int64_t k, int64_t n) {
  const int64_t tiles = NumJTiles(n);
  const int64_t tail_j0 = n / kNR * kNR;
  float* tail = nullptr;
  if (tail_j0 < n) {
    tail = BScratch(k * kNR);
    PadB(pb, k, n, tail_j0, kNR, tail);
  }
  auto panels = [&](int64_t i0, int64_t rows, int64_t t0, int64_t t1) {
    for (int64_t jt = t0; jt < t1; ++jt) {
      const int64_t j0 = jt * kNR;
      if (j0 == tail_j0) {
        GemmStrip<kNR, 4, 0>(pa + i0 * k, tail, kNR, po + i0 * n, n, rows, k,
                             j0, n - j0);
      } else {
        GemmStrip<kNR, 4, kNR>(pa + i0 * k, pb + j0, n, po + i0 * n, n, rows,
                               k, j0, kNR);
      }
    }
  };
  if (m <= kShortAMax) {
    ParallelFor(tiles, m * k * kNR, [&](int64_t t0, int64_t t1) {
      panels(0, m, t0, t1);
    });
    return;
  }
  ParallelFor((m + kMC - 1) / kMC, std::min(kMC, m) * k * n,
              [&](int64_t b0, int64_t b1) {
                for (int64_t b = b0; b < b1; ++b) {
                  panels(b * kMC, std::min(kMC, m - b * kMC), 0, tiles);
                }
              });
}

// Small-N products (n <= P): R-row strips against B's rows padded to P
// lanes (B itself when n == P), each row stored at width NR (0: runtime
// n). Threads split the rows by whole kMC blocks, as GemmPanels does, so
// a one-block product stays on the calling thread and every chunk but the
// last is a whole number of strips.
template <int64_t P, int64_t R, int64_t NR>
void GemmRowBlocks(const float* pa, const float* pb, float* po, int64_t m,
                   int64_t k, int64_t n) {
  const float* bp = pb;
  if (n != P) {
    float* pad = BScratch(k * P);
    PadB(pb, k, n, 0, P, pad);
    bp = pad;
  }
  ParallelFor((m + kMC - 1) / kMC, std::min(kMC, m) * k * n,
              [&](int64_t b0, int64_t b1) {
                const int64_t i0 = b0 * kMC;
                const int64_t i1 = std::min(m, b1 * kMC);
                GemmStrip<P, R, NR>(pa + i0 * k, bp, P, po + i0 * n, n,
                                    i1 - i0, k, 0, n);
              });
}

// The one GEMM dispatch: writes C (m x n) = A (m x k) * B (k x n) and never
// reads C's prior contents. Every product runs through the row strips: n <=
// kSmallNPad as 8-row strips against B padded to 8 lanes, n <= kSmallNMax
// as 4-row strips against 16 lanes, and wider n against B's kNR-wide
// column panels. Each sums every output element over k in ascending order
// from +0 under the pinned contraction, so a product gives the same bits
// at every thread count, and whether its rows arrive as one matrix or as a
// batch flattened into one.
void Gemm(const float* pa, const float* pb, float* po, int64_t m, int64_t k,
          int64_t n) {
  if (n <= kSmallNPad) {
    WithLaneWidth(n, [&](auto width) {
      GemmRowBlocks<kSmallNPad, 8, decltype(width)::value>(pa, pb, po, m, k,
                                                           n);
    });
  } else if (n < kSmallNMax) {
    GemmRowBlocks<kSmallNMax, 4, 0>(pa, pb, po, m, k, n);
  } else if (n == kSmallNMax) {
    GemmRowBlocks<kSmallNMax, 4, kSmallNMax>(pa, pb, po, m, k, n);
  } else {
    GemmPanels(pa, pb, po, m, k, n);
  }
}

}  // namespace

void GemmRawInto(const float* a, const float* b, float* out, int64_t m,
                 int64_t k, int64_t n) {
  Gemm(a, b, out, m, k, n);
}

namespace {

// Floats in the row-bias path's repeated tile: at least 241 (a whole number
// of rows of cols < 16), so its inner loop spans many 16-lane vectors.
constexpr int64_t kBiasTile = 256;

// Iterates over a broadcast binary op. `out[i] = fn(a[ai], b[bi])` where the
// flat indices ai/bi are computed with broadcast-aware strides. `out` must
// already hold the broadcast result shape; the allocating BroadcastBinary
// wrapper below shares this exact loop body, so both paths are bit-identical.
template <typename Fn>
void BroadcastBinaryInto(const Tensor& a, const Tensor& b, Tensor* out,
                         Fn fn) {
  if (a.shape() == b.shape()) {
    ODF_CHECK(out->shape() == a.shape());
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out->data();
    ParallelFor(a.numel(), 1, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) po[i] = fn(pa[i], pb[i]);
    });
    return;
  }
  if (b.rank() == 1 && a.rank() > 1 && a.dim(-1) == b.dim(0) &&
      out->shape() == a.shape()) {
    // Row bias: b spans a's last axis, so each row of a meets all of b in
    // order — the odometer's element pairing, one row at a time.
    const int64_t cols = b.dim(0);
    const int64_t rows = cols == 0 ? 0 : a.numel() / cols;
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out->data();
    if (cols > 0 && cols < kBiasTile / 16) {
      // A row narrower than one 16-lane vector: repeat b over as many whole
      // rows as fit in kBiasTile floats and pair a's flat spans with that
      // tile, so the loop runs vector-wide instead of cols at a time.
      float tile[kBiasTile];
      const int64_t span = kBiasTile / cols * cols;
      for (int64_t j = 0; j < span; ++j) tile[j] = pb[j % cols];
      const float* pt = tile;
      const int64_t total = a.numel();
      ParallelFor((total + span - 1) / span, span,
                  [pa, pt, po, span, total, fn](int64_t s0, int64_t s1) {
                    const int64_t end = std::min(total, s1 * span);
                    for (int64_t i = s0 * span; i < end; i += span) {
                      const int64_t len = std::min(span, end - i);
                      for (int64_t j = 0; j < len; ++j) {
                        po[i + j] = fn(pa[i + j], pt[j]);
                      }
                    }
                  });
      return;
    }
    // Captures by value and bumps row pointers: at narrow rows the
    // by-reference form measured slower.
    ParallelFor(rows, cols, [pa, pb, po, cols, fn](int64_t r0, int64_t r1) {
      const float* ar = pa + r0 * cols;
      float* orow = po + r0 * cols;
      for (int64_t r = r0; r < r1; ++r, ar += cols, orow += cols) {
        for (int64_t j = 0; j < cols; ++j) orow[j] = fn(ar[j], pb[j]);
      }
    });
    return;
  }
  const Shape out_shape = BroadcastShape(a.shape(), b.shape());
  ODF_CHECK(out->shape() == out_shape);
  const int64_t rank = out_shape.rank();

  // Broadcast strides: stride 0 on broadcast dimensions.
  auto broadcast_strides = [&](const Shape& s) {
    std::vector<int64_t> strides(static_cast<size_t>(rank), 0);
    const auto own = s.Strides();
    const int64_t offset = rank - s.rank();
    for (int64_t i = 0; i < s.rank(); ++i) {
      if (s.dim(i) != 1) {
        strides[static_cast<size_t>(offset + i)] = own[static_cast<size_t>(i)];
      }
    }
    return strides;
  };
  const auto sa = broadcast_strides(a.shape());
  const auto sb = broadcast_strides(b.shape());

  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  ParallelFor(out->numel(), 1, [&](int64_t begin, int64_t end) {
    // Seed the odometer (and the broadcast source offsets) from the chunk's
    // first flat index, then walk incrementally.
    std::vector<int64_t> index(static_cast<size_t>(rank), 0);
    int64_t ai = 0;
    int64_t bi = 0;
    int64_t rem = begin;
    for (int64_t d = rank - 1; d >= 0; --d) {
      const size_t du = static_cast<size_t>(d);
      index[du] = rem % out_shape.dim(d);
      rem /= out_shape.dim(d);
      ai += index[du] * sa[du];
      bi += index[du] * sb[du];
    }
    for (int64_t flat = begin; flat < end; ++flat) {
      po[flat] = fn(pa[ai], pb[bi]);
      // Odometer increment.
      for (int64_t d = rank - 1; d >= 0; --d) {
        const size_t du = static_cast<size_t>(d);
        ++index[du];
        ai += sa[du];
        bi += sb[du];
        if (index[du] < out_shape.dim(d)) break;
        ai -= sa[du] * out_shape.dim(d);
        bi -= sb[du] * out_shape.dim(d);
        index[du] = 0;
      }
    }
  });
}

template <typename Fn>
Tensor BroadcastBinary(const Tensor& a, const Tensor& b, Fn fn) {
  Tensor out(BroadcastShape(a.shape(), b.shape()));
  BroadcastBinaryInto(a, b, &out, fn);
  return out;
}

template <typename Fn>
void UnaryInto(const Tensor& a, Tensor* out, Fn fn) {
  ODF_CHECK(out->shape() == a.shape());
  const float* pa = a.data();
  float* po = out->data();
  ParallelFor(a.numel(), 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) po[i] = fn(pa[i]);
  });
}

template <typename Fn>
Tensor Unary(const Tensor& a, Fn fn) {
  Tensor out(a.shape());
  UnaryInto(a, &out, fn);
  return out;
}

}  // namespace

Shape BroadcastShape(const Shape& a, const Shape& b) {
  const int64_t rank = std::max(a.rank(), b.rank());
  std::vector<int64_t> dims(static_cast<size_t>(rank), 1);
  for (int64_t i = 0; i < rank; ++i) {
    const int64_t da = i < rank - a.rank() ? 1 : a.dim(i - (rank - a.rank()));
    const int64_t db = i < rank - b.rank() ? 1 : b.dim(i - (rank - b.rank()));
    ODF_CHECK(da == db || da == 1 || db == 1)
        << "incompatible broadcast: " << a.ToString() << " vs "
        << b.ToString();
    dims[static_cast<size_t>(i)] = da == 1 ? db : da;  // 1 stretches, 0 stays
  }
  return Shape(dims);
}

bool IsBroadcastableTo(const Shape& from, const Shape& to) {
  if (from.rank() > to.rank()) return false;
  const int64_t offset = to.rank() - from.rank();
  for (int64_t i = 0; i < from.rank(); ++i) {
    if (from.dim(i) != 1 && from.dim(i) != to.dim(offset + i)) return false;
  }
  return true;
}

Tensor ReduceToShape(const Tensor& t, const Shape& target) {
  if (t.shape() == target) return t;
  ODF_CHECK(IsBroadcastableTo(target, t.shape()))
      << t.shape().ToString() << " cannot reduce to " << target.ToString();
  Tensor cur = t;
  // First sum away leading extra dimensions.
  while (cur.rank() > target.rank()) cur = Sum(cur, 0, /*keepdim=*/false);
  // Then sum (keepdim) any axis where the target is 1 but cur is larger.
  for (int64_t i = 0; i < target.rank(); ++i) {
    if (target.dim(i) == 1 && cur.dim(i) != 1) {
      cur = Sum(cur, i, /*keepdim=*/true);
    }
  }
  ODF_CHECK(cur.shape() == target);
  return cur;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x + y; });
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x - y; });
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BroadcastBinary(a, b, [](float x, float y) { return x * y; });
}

Tensor AddScalar(const Tensor& a, float s) {
  return Unary(a, [s](float x) { return x + s; });
}
Tensor MulScalar(const Tensor& a, float s) {
  return Unary(a, [s](float x) { return x * s; });
}

Tensor Neg(const Tensor& a) {
  return Unary(a, [](float x) { return -x; });
}
Tensor Exp(const Tensor& a) {
  return Unary(a, [](float x) { return FastExp(x); });
}
Tensor Log(const Tensor& a) {
  return Unary(a, [](float x) { return std::log(x); });
}
Tensor Tanh(const Tensor& a) {
  return Unary(a, [](float x) { return FastTanh(x); });
}
Tensor Sigmoid(const Tensor& a) {
  return Unary(a, [](float x) { return FastSigmoid(x); });
}
Tensor Relu(const Tensor& a) {
  return Unary(a, [](float x) { return x > 0 ? x : 0.0f; });
}

void AddInto(const Tensor& a, const Tensor& b, Tensor* out) {
  BroadcastBinaryInto(a, b, out, [](float x, float y) { return x + y; });
}
void SubInto(const Tensor& a, const Tensor& b, Tensor* out) {
  BroadcastBinaryInto(a, b, out, [](float x, float y) { return x - y; });
}
void MulInto(const Tensor& a, const Tensor& b, Tensor* out) {
  BroadcastBinaryInto(a, b, out, [](float x, float y) { return x * y; });
}
void AddScalarInto(const Tensor& a, float s, Tensor* out) {
  UnaryInto(a, out, [s](float x) { return x + s; });
}
void MulScalarInto(const Tensor& a, float s, Tensor* out) {
  UnaryInto(a, out, [s](float x) { return x * s; });
}
void SigmoidInto(const Tensor& a, Tensor* out) {
  UnaryInto(a, out, [](float x) { return FastSigmoid(x); });
}
void TanhInto(const Tensor& a, Tensor* out) {
  UnaryInto(a, out, [](float x) { return FastTanh(x); });
}
void ReluInto(const Tensor& a, Tensor* out) {
  UnaryInto(a, out, [](float x) { return x > 0 ? x : 0.0f; });
}

void MatMulInto(const Tensor& a, const Tensor& b, Tensor* out) {
  ODF_TRACE_SCOPE("kernel/", "gemm", "kernel");
  static Histogram& gemm_hist =
      MetricsRegistry::Global().GetHistogram("gemm.seconds");
  ScopedTimer timer(gemm_hist);
  if (MetricsEnabled()) {
    static Counter& calls = MetricsRegistry::Global().GetCounter("gemm.calls");
    calls.Add(1);
  }
  ODF_CHECK_EQ(a.rank(), 2);
  ODF_CHECK_EQ(b.rank(), 2);
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  const int64_t n = b.dim(1);
  ODF_CHECK_EQ(k, b.dim(0)) << "matmul " << a.shape().ToString() << " x "
                            << b.shape().ToString();
  ODF_CHECK(out->rank() == 2 && out->dim(0) == m && out->dim(1) == n)
      << "matmul output " << out->shape().ToString();
  Gemm(a.data(), b.data(), out->data(), m, k, n);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  ODF_CHECK_EQ(a.rank(), 2);
  ODF_CHECK_EQ(b.rank(), 2);
  Tensor out(Shape({a.dim(0), b.dim(1)}));
  MatMulInto(a, b, &out);
  return out;
}

void BatchMatMulInto(const Tensor& a, const Tensor& b, Tensor* out) {
  if (a.rank() == 2 && b.rank() == 2) {
    MatMulInto(a, b, out);
    return;
  }
  ODF_TRACE_SCOPE("kernel/", "batch_gemm", "kernel");
  static Histogram& bgemm_hist =
      MetricsRegistry::Global().GetHistogram("batch_gemm.seconds");
  ScopedTimer timer(bgemm_hist);
  if (MetricsEnabled()) {
    static Counter& calls =
        MetricsRegistry::Global().GetCounter("batch_gemm.calls");
    calls.Add(1);
  }
  ODF_CHECK(a.rank() == 2 || a.rank() == 3);
  ODF_CHECK(b.rank() == 2 || b.rank() == 3);
  const int64_t batch = a.rank() == 3 ? a.dim(0) : b.dim(0);
  if (a.rank() == 3 && b.rank() == 3) {
    ODF_CHECK_EQ(a.dim(0), b.dim(0));
  }
  const int64_t m = a.dim(-2);
  const int64_t k = a.dim(-1);
  const int64_t n = b.dim(-1);
  ODF_CHECK_EQ(k, b.dim(-2)) << "bmm " << a.shape().ToString() << " x "
                             << b.shape().ToString();
  ODF_CHECK(out->rank() == 3 && out->dim(0) == batch && out->dim(1) == m &&
            out->dim(2) == n)
      << "bmm output " << out->shape().ToString();
  const int64_t a_step = a.rank() == 3 ? m * k : 0;
  const int64_t b_step = b.rank() == 3 ? k * n : 0;
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  if (b_step == 0) {
    // One shared right operand: [batch, m, k] x [k, n] is one
    // [batch·m, k] x [k, n] product, each row's sum unchanged.
    Gemm(pa, pb, po, batch * m, k, n);
    return;
  }
  ParallelFor(batch, m * k * n, [&](int64_t b0, int64_t b1) {
    for (int64_t bi = b0; bi < b1; ++bi) {
      Gemm(pa + bi * a_step, pb + bi * b_step, po + bi * m * n, m, k, n);
    }
  });
}

Tensor BatchMatMul(const Tensor& a, const Tensor& b) {
  if (a.rank() == 2 && b.rank() == 2) return MatMul(a, b);
  const int64_t batch = a.rank() == 3 ? a.dim(0) : b.dim(0);
  Tensor out(Shape({batch, a.dim(-2), b.dim(-1)}));
  BatchMatMulInto(a, b, &out);
  return out;
}

Tensor Transpose2D(const Tensor& a) {
  ODF_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.dim(0);
  const int64_t n = a.dim(1);
  Tensor out(Shape({n, m}));
  const float* pa = a.data();
  float* po = out.data();
  // Cache-blocked 32x32 tiles, parallel over source row-tiles (each writes
  // a disjoint column band of the output).
  constexpr int64_t kTile = 32;
  const int64_t row_tiles = (m + kTile - 1) / kTile;
  ParallelFor(row_tiles, kTile * n, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t i0 = t * kTile;
      const int64_t i1 = std::min(m, i0 + kTile);
      for (int64_t j0 = 0; j0 < n; j0 += kTile) {
        const int64_t j1 = std::min(n, j0 + kTile);
        for (int64_t i = i0; i < i1; ++i) {
          for (int64_t j = j0; j < j1; ++j) po[j * m + i] = pa[i * n + j];
        }
      }
    }
  });
  return out;
}

Tensor TransposeLast2(const Tensor& a) {
  ODF_CHECK_GE(a.rank(), 2);
  if (a.rank() == 2) return Transpose2D(a);
  std::vector<int64_t> perm(static_cast<size_t>(a.rank()));
  for (int64_t i = 0; i < a.rank(); ++i) perm[static_cast<size_t>(i)] = i;
  std::swap(perm[static_cast<size_t>(a.rank() - 1)],
            perm[static_cast<size_t>(a.rank() - 2)]);
  return Permute(a, perm);
}

void PermuteInto(const Tensor& a, const std::vector<int64_t>& perm,
                 Tensor* out) {
  ODF_CHECK_EQ(static_cast<int64_t>(perm.size()), a.rank());
  const int64_t rank = a.rank();
  ODF_CHECK_EQ(out->rank(), rank);
  for (int64_t d = 0; d < rank; ++d) {
    ODF_CHECK_EQ(out->dim(d), a.dim(perm[static_cast<size_t>(d)]));
  }
  const std::vector<int64_t>& new_dims = out->shape().dims();
  const float* pa = a.data();
  float* po = out->data();

  // Axes the permutation leaves in place at the tail are contiguous in both
  // layouts, so every path below moves the tail as one chunk (a pure
  // relabeling: any traversal gives these bytes).
  int64_t outer_rank = rank;
  int64_t chunk = 1;
  while (outer_rank > 0 &&
         perm[static_cast<size_t>(outer_rank - 1)] == outer_rank - 1) {
    --outer_rank;
    chunk *= new_dims[static_cast<size_t>(outer_rank)];
  }

  // The last two axes ahead of the tail swap, the rest stay: a batch of
  // cache-blocked 2-D transposes whose elements are chunks (single floats
  // when nothing follows the swapped axes), each copied at compile-time
  // length where WithLaneWidth has one.
  bool swap = outer_rank >= 2 &&
              perm[static_cast<size_t>(outer_rank - 2)] == outer_rank - 1 &&
              perm[static_cast<size_t>(outer_rank - 1)] == outer_rank - 2;
  for (int64_t d = 0; d < outer_rank - 2 && swap; ++d) {
    swap = perm[static_cast<size_t>(d)] == d;
  }
  if (swap) {
    const int64_t rows = a.dim(outer_rank - 2);
    const int64_t cols = a.dim(outer_rank - 1);
    const int64_t slice = rows * cols * chunk;
    const int64_t slices = slice == 0 ? 0 : a.numel() / slice;
    constexpr int64_t kTile = 32;
    auto transpose = [&](auto width) {
      constexpr int64_t W = decltype(width)::value;
      ParallelFor(slices, slice, [&](int64_t s0, int64_t s1) {
        for (int64_t s = s0; s < s1; ++s) {
          const float* src = pa + s * slice;
          float* dst = po + s * slice;
          for (int64_t i0 = 0; i0 < rows; i0 += kTile) {
            const int64_t i1 = std::min(rows, i0 + kTile);
            for (int64_t j0 = 0; j0 < cols; j0 += kTile) {
              const int64_t j1 = std::min(cols, j0 + kTile);
              for (int64_t i = i0; i < i1; ++i) {
                for (int64_t j = j0; j < j1; ++j) {
                  CopyLanes<W>(src + (i * cols + j) * chunk,
                               dst + (j * rows + i) * chunk, chunk);
                }
              }
            }
          }
        }
      });
    };
    if (chunk == 1) {
      transpose(std::integral_constant<int64_t, 1>());
    } else {
      WithLaneWidth(chunk, transpose);
    }
    return;
  }

  // Otherwise the odometer walks the leading axes, one chunk per step.
  const auto in_strides = a.shape().Strides();
  std::vector<int64_t> src_strides(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    src_strides[i] = in_strides[static_cast<size_t>(perm[i])];
  }
  const int64_t chunks = chunk == 0 ? 0 : a.numel() / chunk;
  ParallelFor(chunks, chunk, [&](int64_t begin, int64_t end) {
    // Seed the odometer and source offset from the first chunk index.
    std::vector<int64_t> index(static_cast<size_t>(outer_rank), 0);
    int64_t src = 0;
    int64_t rem = begin;
    for (int64_t d = outer_rank - 1; d >= 0; --d) {
      const size_t du = static_cast<size_t>(d);
      index[du] = rem % new_dims[du];
      rem /= new_dims[du];
      src += index[du] * src_strides[du];
    }
    for (int64_t c = begin; c < end; ++c) {
      for (int64_t j = 0; j < chunk; ++j) po[c * chunk + j] = pa[src + j];
      for (int64_t d = outer_rank - 1; d >= 0; --d) {
        const size_t du = static_cast<size_t>(d);
        ++index[du];
        src += src_strides[du];
        if (index[du] < new_dims[du]) break;
        src -= src_strides[du] * new_dims[du];
        index[du] = 0;
      }
    }
  });
}

Tensor Permute(const Tensor& a, const std::vector<int64_t>& perm) {
  ODF_CHECK_EQ(static_cast<int64_t>(perm.size()), a.rank());
  std::vector<int64_t> new_dims(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) new_dims[i] = a.dim(perm[i]);
  Tensor out{Shape(new_dims)};
  PermuteInto(a, perm, &out);
  return out;
}

void ConcatInto(const Tensor* const* parts, size_t count, int64_t axis,
                Tensor* out) {
  ODF_CHECK_GT(count, 0u);
  const Tensor& first = *parts[0];
  if (axis < 0) axis += first.rank();
  ODF_CHECK_GE(axis, 0);
  ODF_CHECK_LT(axis, first.rank());
  int64_t concat_dim = 0;
  for (size_t p = 0; p < count; ++p) {
    ODF_CHECK_EQ(parts[p]->rank(), first.rank());
    for (int64_t d = 0; d < first.rank(); ++d) {
      if (d != axis) {
        ODF_CHECK_EQ(parts[p]->dim(d), first.dim(d));
      }
    }
    concat_dim += parts[p]->dim(axis);
  }
  ODF_CHECK_EQ(out->rank(), first.rank());
  for (int64_t d = 0; d < first.rank(); ++d) {
    ODF_CHECK_EQ(out->dim(d), d == axis ? concat_dim : first.dim(d));
  }

  // outer = product of dims before axis; inner = product after axis.
  int64_t outer = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= first.dim(d);
  int64_t inner = 1;
  for (int64_t d = axis + 1; d < first.rank(); ++d) inner *= first.dim(d);

  int64_t dest_offset = 0;
  const int64_t out_row = concat_dim * inner;
  for (size_t p = 0; p < count; ++p) {
    const int64_t p_row = parts[p]->dim(axis) * inner;
    for (int64_t o = 0; o < outer; ++o) {
      const float* src = parts[p]->data() + o * p_row;
      float* dst = out->data() + o * out_row + dest_offset;
      std::copy(src, src + p_row, dst);
    }
    dest_offset += p_row;
  }
}

Tensor Concat(const std::vector<Tensor>& parts, int64_t axis) {
  ODF_CHECK(!parts.empty());
  const Tensor& first = parts.front();
  const int64_t resolved = axis < 0 ? axis + first.rank() : axis;
  ODF_CHECK_GE(resolved, 0);
  ODF_CHECK_LT(resolved, first.rank());
  int64_t concat_dim = 0;
  std::vector<const Tensor*> ptrs(parts.size());
  for (size_t p = 0; p < parts.size(); ++p) {
    ptrs[p] = &parts[p];
    concat_dim += parts[p].dim(resolved);
  }
  std::vector<int64_t> dims = first.shape().dims();
  dims[static_cast<size_t>(resolved)] = concat_dim;
  Tensor out{Shape(dims)};
  ConcatInto(ptrs.data(), ptrs.size(), resolved, &out);
  return out;
}

void SliceInto(const Tensor& a, int64_t axis, int64_t start, int64_t len,
               Tensor* out) {
  if (axis < 0) axis += a.rank();
  ODF_CHECK_GE(axis, 0);
  ODF_CHECK_LT(axis, a.rank());
  ODF_CHECK_GE(start, 0);
  ODF_CHECK_GE(len, 0);
  ODF_CHECK_LE(start + len, a.dim(axis));
  ODF_CHECK_EQ(out->rank(), a.rank());
  for (int64_t d = 0; d < a.rank(); ++d) {
    ODF_CHECK_EQ(out->dim(d), d == axis ? len : a.dim(d));
  }
  int64_t outer = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= a.dim(d);
  int64_t inner = 1;
  for (int64_t d = axis + 1; d < a.rank(); ++d) inner *= a.dim(d);
  const int64_t src_row = a.dim(axis) * inner;
  const int64_t dst_row = len * inner;
  for (int64_t o = 0; o < outer; ++o) {
    const float* src = a.data() + o * src_row + start * inner;
    float* dst = out->data() + o * dst_row;
    std::copy(src, src + dst_row, dst);
  }
}

Tensor Slice(const Tensor& a, int64_t axis, int64_t start, int64_t len) {
  const int64_t resolved = axis < 0 ? axis + a.rank() : axis;
  ODF_CHECK_GE(resolved, 0);
  ODF_CHECK_LT(resolved, a.rank());
  std::vector<int64_t> dims = a.shape().dims();
  dims[static_cast<size_t>(resolved)] = len;
  Tensor out{Shape(dims)};
  SliceInto(a, resolved, start, len, &out);
  return out;
}

Tensor SumAll(const Tensor& a) {
  // Serial on purpose: a single double accumulator keeps the reduction
  // order (and therefore the rounding) fixed for every thread count.
  double total = 0;
  for (int64_t i = 0; i < a.numel(); ++i) total += a[i];
  return Tensor::Scalar(static_cast<float>(total));
}

Tensor MeanAll(const Tensor& a) {
  ODF_CHECK_GT(a.numel(), 0);
  return Tensor::Scalar(SumAll(a).Item() / static_cast<float>(a.numel()));
}

void SumInto(const Tensor& a, int64_t axis, bool keepdim, Tensor* out) {
  if (axis < 0) axis += a.rank();
  ODF_CHECK_GE(axis, 0);
  ODF_CHECK_LT(axis, a.rank());
  int64_t outer = 1;
  for (int64_t d = 0; d < axis; ++d) outer *= a.dim(d);
  const int64_t mid = a.dim(axis);
  int64_t inner = 1;
  for (int64_t d = axis + 1; d < a.rank(); ++d) inner *= a.dim(d);

  std::vector<int64_t> dims = a.shape().dims();
  if (keepdim) {
    dims[static_cast<size_t>(axis)] = 1;
  } else {
    dims.erase(dims.begin() + axis);
    if (dims.empty()) dims.push_back(1);
  }
  ODF_CHECK(out->shape() == Shape(dims));
  const float* pa = a.data();
  float* po = out->data();
  // The loops below accumulate; start from a fresh Tensor's zeros.
  std::fill(po, po + out->numel(), 0.0f);
  if (outer > 1) {
    // Each outer slice owns a disjoint output range.
    ParallelFor(outer, mid * inner, [&](int64_t o0, int64_t o1) {
      for (int64_t o = o0; o < o1; ++o) {
        for (int64_t m = 0; m < mid; ++m) {
          const float* src = pa + (o * mid + m) * inner;
          float* dst = po + o * inner;
          for (int64_t i = 0; i < inner; ++i) dst[i] += src[i];
        }
      }
    });
  } else {
    // Single outer slice: split the contiguous inner range instead; each
    // chunk still accumulates over `mid` in ascending order.
    ParallelFor(inner, mid, [&](int64_t i0, int64_t i1) {
      for (int64_t m = 0; m < mid; ++m) {
        const float* src = pa + m * inner;
        for (int64_t i = i0; i < i1; ++i) po[i] += src[i];
      }
    });
  }
}

Tensor Sum(const Tensor& a, int64_t axis, bool keepdim) {
  const int64_t resolved = axis < 0 ? axis + a.rank() : axis;
  ODF_CHECK_GE(resolved, 0);
  ODF_CHECK_LT(resolved, a.rank());
  std::vector<int64_t> dims = a.shape().dims();
  if (keepdim) {
    dims[static_cast<size_t>(resolved)] = 1;
  } else {
    dims.erase(dims.begin() + resolved);
    if (dims.empty()) dims.push_back(1);
  }
  Tensor out{Shape(dims)};
  SumInto(a, resolved, keepdim, &out);
  return out;
}

Tensor Mean(const Tensor& a, int64_t axis, bool keepdim) {
  const int64_t resolved = axis < 0 ? axis + a.rank() : axis;
  const float denom = static_cast<float>(a.dim(resolved));
  return MulScalar(Sum(a, axis, keepdim), 1.0f / denom);
}

float MaxValue(const Tensor& a) {
  ODF_CHECK_GT(a.numel(), 0);
  float best = a[0];
  for (int64_t i = 1; i < a.numel(); ++i) best = std::max(best, a[i]);
  return best;
}

float MinValue(const Tensor& a) {
  ODF_CHECK_GT(a.numel(), 0);
  float best = a[0];
  for (int64_t i = 1; i < a.numel(); ++i) best = std::min(best, a[i]);
  return best;
}

void SoftmaxLastDimInto(const Tensor& a, Tensor* result) {
  ODF_CHECK_GE(a.rank(), 1);
  const int64_t inner = a.dim(-1);
  ODF_CHECK_GT(inner, 0);
  const int64_t outer = a.numel() / inner;
  ODF_CHECK(result->shape() == a.shape());
  const float* in = a.data();
  float* out = result->data();
  ParallelFor(outer, inner, [&](int64_t o0, int64_t o1) {
    for (int64_t o = o0; o < o1; ++o) {
      const float* src = in + o * inner;
      float* dst = out + o * inner;
      float max_v = src[0];
      for (int64_t i = 1; i < inner; ++i) max_v = std::max(max_v, src[i]);
      float total = 0;
      for (int64_t i = 0; i < inner; ++i) {
        dst[i] = FastExp(src[i] - max_v);
        total += dst[i];
      }
      const float inv = 1.0f / total;
      for (int64_t i = 0; i < inner; ++i) dst[i] *= inv;
    }
  });
}

Tensor SoftmaxLastDim(const Tensor& a) {
  Tensor out(a.shape());
  SoftmaxLastDimInto(a, &out);
  return out;
}

float SquaredNorm(const Tensor& a) {
  // Serial for the same determinism reason as SumAll.
  double total = 0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    total += static_cast<double>(a[i]) * a[i];
  }
  return static_cast<float>(total);
}

bool AllClose(const Tensor& a, const Tensor& b, float atol) {
  if (a.shape() != b.shape()) return false;
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (std::fabs(a[i] - b[i]) > atol) return false;
  }
  return true;
}

namespace {

// Destination cells per register block of FusedRecoverInto: 16·K floats,
// four AVX-512 vectors at the shard units' K = 4, seven at K = 7.
constexpr int64_t kRecoverBlockCells = 16;

// Per-thread scratch for FusedRecoverInto: a row's r-tiles, then (at a
// runtime K only) the block and its per-cell arrays.
float* RecoverScratch(int64_t len) {
  thread_local std::vector<float> buf;
  if (static_cast<int64_t>(buf.size()) < len) {
    buf.resize(static_cast<size_t>(len));
  }
  return buf.data();
}

// One block of `cells` destination cells of one (batch, origin) row, at
// histogram depth K (0: the runtime `k`) and C cells (0: the runtime
// `cells`). `tiles` holds the row's r-tile of every beta term (stride
// kRecoverBlockCells·k), `c` the block's first destination factor at beta 0
// (stride `c_stride` per beta). The scores accumulate over ascending beta
// in a local block, run the softmax passes there and are stored once.
// Every element keeps the per-cell reference's operands and order
// (ascending-beta accumulate, temperature scale, max-subtract, FastExp,
// ascending-k total, inverse scale), so the result is bit-identical to it.
// At compile-time K and C every loop has a constant trip count, so the
// block can stay in registers. GCC's -O3 unroll-and-jam fuses pairs of beta
// iterations here, which timed no faster (AVX-512, one thread), so the
// block opts out like the other lane-tiled kernels.
template <int64_t K, int64_t C>
ODF_NO_UNROLL_AND_JAM void RecoverBlock(const float* tiles, const float* c,
                                        int64_t c_stride, int64_t beta,
                                        int64_t k_rt, int64_t cells_rt,
                                        float temperature, float* spill,
                                        float* __restrict dst) {
  const int64_t k = K > 0 ? K : k_rt;
  const int64_t cells = C > 0 ? C : cells_rt;
  const int64_t len = cells * k;
  const int64_t tile_stride = kRecoverBlockCells * k;
  constexpr int64_t kLocal = K > 0 ? K * kRecoverBlockCells : 1;
  float acc_local[kLocal];
  float sub_local[kLocal];
  float tot_local[kRecoverBlockCells];
  float* __restrict acc = K > 0 ? acc_local : spill;
  float* __restrict sub = K > 0 ? sub_local : spill + tile_stride;
  float* __restrict tot = K > 0 ? tot_local : spill + 2 * tile_stride;
  for (int64_t j = 0; j < len; ++j) acc[j] = 0.0f;
  for (int64_t bb = 0; bb < beta; ++bb) {
    const float* __restrict t = tiles + bb * tile_stride;
    const float* __restrict cv = c + bb * c_stride;
    for (int64_t j = 0; j < len; ++j) acc[j] = ODF_FMADD(t[j], cv[j], acc[j]);
  }
  for (int64_t j = 0; j < len; ++j) acc[j] *= temperature;
  for (int64_t cell = 0; cell < cells; ++cell) {
    const float* sc = acc + cell * k;
    float max_v = sc[0];
    for (int64_t kk = 1; kk < k; ++kk) max_v = std::max(max_v, sc[kk]);
    for (int64_t kk = 0; kk < k; ++kk) sub[cell * k + kk] = max_v;
  }
  for (int64_t j = 0; j < len; ++j) acc[j] = FastExp(acc[j] - sub[j]);
  // IEEE division is exact per lane, so one batched divide loop changes no
  // bit against the per-cell reciprocal.
  for (int64_t cell = 0; cell < cells; ++cell) {
    const float* sc = acc + cell * k;
    float total = 0;
    for (int64_t kk = 0; kk < k; ++kk) total += sc[kk];
    tot[cell] = total;
  }
  for (int64_t cell = 0; cell < cells; ++cell) tot[cell] = 1.0f / tot[cell];
  for (int64_t cell = 0; cell < cells; ++cell) {
    for (int64_t kk = 0; kk < k; ++kk) sub[cell * k + kk] = tot[cell];
  }
  for (int64_t j = 0; j < len; ++j) dst[j] = acc[j] * sub[j];
}

// FusedRecoverInto's (batch, origin) rows [r0, r1) at histogram depth K
// (0: the runtime `k`). Each row builds the r-tile of every beta term once
// (r[b,o,bb,:] repeated over one block's cells), then runs its destination
// cells block by block: whole blocks at compile-time length, then a
// shorter last block.
template <int64_t K>
void RecoverRows(const float* pr, const float* pc, float temperature,
                 float* po, int64_t n, int64_t beta, int64_t m, int64_t k_rt,
                 int64_t r0, int64_t r1) {
  const int64_t k = K > 0 ? K : k_rt;
  const int64_t row_len = m * k;
  const int64_t tile_stride = kRecoverBlockCells * k;
  float* tiles = RecoverScratch(beta * tile_stride +
                                (K > 0 ? 0 : 2 * tile_stride +
                                                 kRecoverBlockCells));
  float* spill = tiles + beta * tile_stride;
  for (int64_t row = r0; row < r1; ++row) {
    for (int64_t bb = 0; bb < beta; ++bb) {
      const float* rv = pr + (row * beta + bb) * k;
      float* tile = tiles + bb * tile_stride;
      if constexpr (K > 0) {
        // Sixteen register moves of K floats, each from r itself: doubling
        // the prefix instead loads what it just stored, and at compile-time
        // K that stalled store forwarding made the whole kernel 4–6× slower.
        for (int64_t cell = 0; cell < kRecoverBlockCells; ++cell) {
          std::memcpy(tile + cell * K, rv, K * sizeof(float));
        }
      } else {
        // Copy r once, then double the filled prefix (16 = 2^4 copies):
        // five runtime-length copies, not sixteen.
        std::memcpy(tile, rv, static_cast<size_t>(k) * sizeof(float));
        for (int64_t len = k; len < tile_stride; len *= 2) {
          std::memcpy(tile + len, tile,
                      static_cast<size_t>(len) * sizeof(float));
        }
      }
    }
    const float* cb = pc + row / n * beta * row_len;
    float* dst = po + row * row_len;
    int64_t d0 = 0;
    for (; d0 + kRecoverBlockCells <= m; d0 += kRecoverBlockCells) {
      RecoverBlock<K, kRecoverBlockCells>(tiles, cb + d0 * k, row_len, beta,
                                          k, kRecoverBlockCells, temperature,
                                          spill, dst + d0 * k);
    }
    if (d0 < m) {
      RecoverBlock<K, 0>(tiles, cb + d0 * k, row_len, beta, k, m - d0,
                         temperature, spill, dst + d0 * k);
    }
  }
}

}  // namespace

void FusedRecoverInto(const Tensor& r, const Tensor& c, float temperature,
                      Tensor* out) {
  ODF_TRACE_SCOPE("kernel/", "fused_recover", "kernel");
  static Histogram& hist =
      MetricsRegistry::Global().GetHistogram("fused_recover.seconds");
  ScopedTimer timer(hist);
  if (MetricsEnabled()) {
    static Counter& calls =
        MetricsRegistry::Global().GetCounter("fused_recover.calls");
    calls.Add(1);
  }
  ODF_CHECK_EQ(r.rank(), 4);
  ODF_CHECK_EQ(c.rank(), 4);
  const int64_t b = r.dim(0);
  const int64_t n = r.dim(1);
  const int64_t beta = r.dim(2);
  const int64_t k = r.dim(3);
  ODF_CHECK_EQ(c.dim(0), b);
  ODF_CHECK_EQ(c.dim(1), beta);
  const int64_t m = c.dim(2);
  ODF_CHECK_EQ(c.dim(3), k);
  ODF_CHECK(out->rank() == 4 && out->dim(0) == b && out->dim(1) == n &&
            out->dim(2) == m && out->dim(3) == k);
  ODF_CHECK_GT(k, 0);
  // Histogram depth k is small (single digits in the paper's setups), so
  // per-cell k-loops are too short for the vectorizer. Each (batch, origin)
  // row instead owns an m·k contiguous slice of both `out` and the
  // destination factor `c`, and RecoverRows runs it in register blocks of
  // whole cells against k-periodic r-tiles. The depths that reach it — 4
  // (the shard units) and 7 (the paper's histogram) — run compile-time
  // instances; every other k runs the runtime-k one.
  const float* pr = r.data();
  const float* pc = c.data();
  float* po = out->data();
  ParallelFor(b * n, m * k * beta, [&](int64_t r0, int64_t r1) {
    switch (k) {
      case 4:
        return RecoverRows<4>(pr, pc, temperature, po, n, beta, m, k, r0, r1);
      case 7:
        return RecoverRows<7>(pr, pc, temperature, po, n, beta, m, k, r0, r1);
      default:
        return RecoverRows<0>(pr, pc, temperature, po, n, beta, m, k, r0, r1);
    }
  });
}

Tensor FusedRecover(const Tensor& r, const Tensor& c, float temperature) {
  ODF_CHECK_EQ(r.rank(), 4);
  ODF_CHECK_EQ(c.rank(), 4);
  Tensor out(Shape({r.dim(0), r.dim(1), c.dim(2), r.dim(3)}));
  FusedRecoverInto(r, c, temperature, &out);
  return out;
}

float FusedRecoverGrad(const Tensor& r, const Tensor& c, float temperature,
                       const Tensor& y, const Tensor& g, Tensor* dr,
                       Tensor* dc) {
  ODF_TRACE_SCOPE("kernel/", "fused_recover_grad", "kernel");
  const int64_t b = r.dim(0);
  const int64_t n = r.dim(1);
  const int64_t beta = r.dim(2);
  const int64_t k = r.dim(3);
  const int64_t m = c.dim(2);
  ODF_CHECK(y.shape() == Shape({b, n, m, k}));
  ODF_CHECK(g.shape() == y.shape());
  ODF_CHECK(dr->shape() == r.shape());
  ODF_CHECK(dc->shape() == c.shape());
  const float* pr = r.data();
  const float* pc = c.data();
  const float* py = y.data();
  const float* pg = g.data();

  // ds = y * (g - sum_k g*y): the softmax adjoint per (b,o,d) cell, i.e. the
  // gradient with respect to the pre-softmax scores.
  Tensor s(y.shape());
  float* ps = s.data();
  const int64_t cells = b * n * m;
  ParallelFor(cells, k, [&](int64_t c0, int64_t c1) {
    for (int64_t cell = c0; cell < c1; ++cell) {
      const float* yrow = py + cell * k;
      const float* grow = pg + cell * k;
      float* srow = ps + cell * k;
      float dot = 0;
      for (int64_t kk = 0; kk < k; ++kk) dot += grow[kk] * yrow[kk];
      for (int64_t kk = 0; kk < k; ++kk) {
        srow[kk] = yrow[kk] * (grow[kk] - dot);
      }
    }
  });

  // dr[b,o,beta,k] = temperature * sum_d s[b,o,d,k] * c[b,beta,d,k]; rows
  // (b,o) own disjoint output blocks.
  float* pdr = dr->data();
  ParallelFor(b * n, beta * m * k, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t bi = t / n;
      const float* srow = ps + t * m * k;
      float* drow = pdr + t * beta * k;
      for (int64_t bb = 0; bb < beta; ++bb) {
        const float* cbase = pc + (bi * beta + bb) * m * k;
        for (int64_t kk = 0; kk < k; ++kk) {
          float acc = 0;
          for (int64_t d = 0; d < m; ++d) {
            acc += srow[d * k + kk] * cbase[d * k + kk];
          }
          drow[bb * k + kk] = temperature * acc;
        }
      }
    }
  });

  // dc[b,beta,d,k] = temperature * sum_o s[b,o,d,k] * r[b,o,beta,k];
  // (b,d) pairs own disjoint columns of dc.
  float* pdc = dc->data();
  ParallelFor(b * m, beta * n * k, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t bi = t / m;
      const int64_t d = t % m;
      for (int64_t bb = 0; bb < beta; ++bb) {
        float* drow = pdc + ((bi * beta + bb) * m + d) * k;
        for (int64_t kk = 0; kk < k; ++kk) {
          float acc = 0;
          for (int64_t o = 0; o < n; ++o) {
            acc += ps[((bi * n + o) * m + d) * k + kk] *
                   pr[((bi * n + o) * beta + bb) * k + kk];
          }
          drow[kk] = temperature * acc;
        }
      }
    }
  });

  // dtau = sum over cells of (pre-temperature scores) . ds; serial double
  // accumulation keeps the reduction order fixed (same rationale as SumAll).
  double dtau = 0;
  for (int64_t cell = 0; cell < cells; ++cell) {
    const int64_t bi = cell / (n * m);
    const int64_t o = (cell / m) % n;
    const int64_t d = cell % m;
    const float* rrow = pr + (bi * n + o) * beta * k;
    const float* crow = pc + (bi * beta * m + d) * k;
    const float* srow = ps + cell * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      float q = 0;
      for (int64_t bb = 0; bb < beta; ++bb) {
        q += rrow[bb * k + kk] * crow[bb * m * k + kk];
      }
      dtau += static_cast<double>(q) * srow[kk];
    }
  }
  return static_cast<float>(dtau);
}

}  // namespace odf
