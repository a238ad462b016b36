// Tests for the sparse graph compute path: CsrMatrix storage, the SpMM
// kernel, the ag::SpMM autograd op, and sparse/dense parity of the
// Chebyshev graph layers on random α-thresholded graphs.

#include <cstring>

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "graph/laplacian.h"
#include "nn/cheb_conv.h"
#include "nn/gcgru.h"
#include "tensor/csr.h"
#include "tensor/tensor_ops.h"
#include "util/thread_pool.h"

#include "pool_guard.h"

namespace odf {
namespace {

namespace ag = odf::autograd;

// Symmetric zero-diagonal weights where each edge survives an α-threshold
// with probability `keep` (the paper's thresholded Gaussian proximity).
Tensor RandomThresholdedWeights(int64_t n, double keep, Rng& rng) {
  Tensor w(Shape({n, n}));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(keep)) {
        const float v = 0.05f + static_cast<float>(rng.Uniform());
        w.At2(i, j) = v;
        w.At2(j, i) = v;
      }
    }
  }
  return w;
}

// Asserts |a - b| <= rel_tol · max(1, |a|, |b|) elementwise.
void ExpectRelClose(const Tensor& a, const Tensor& b, float rel_tol) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float scale =
        std::max(1.0f, std::max(std::fabs(a[i]), std::fabs(b[i])));
    ASSERT_LE(std::fabs(a[i] - b[i]), rel_tol * scale)
        << "element " << i << ": " << a[i] << " vs " << b[i];
  }
}

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(CsrMatrixTest, RoundTripTransposeAndDensity) {
  Rng rng(11);
  Tensor w = RandomThresholdedWeights(17, 0.3, rng);
  CsrMatrix csr = CsrMatrix::FromDense(w);
  EXPECT_EQ(csr.rows(), 17);
  EXPECT_EQ(csr.cols(), 17);
  EXPECT_GT(csr.nnz(), 0);
  EXPECT_NEAR(csr.Density(),
              static_cast<double>(csr.nnz()) / (17.0 * 17.0), 1e-12);
  EXPECT_TRUE(BitIdentical(csr.ToDense(), w));
  EXPECT_TRUE(BitIdentical(csr.Transpose().ToDense(), Transpose2D(w)));
  // Rows must be in ascending column order (the determinism contract).
  for (int64_t i = 0; i < csr.rows(); ++i) {
    for (int64_t idx = csr.row_ptr()[static_cast<size_t>(i)] + 1;
         idx < csr.row_ptr()[static_cast<size_t>(i) + 1]; ++idx) {
      EXPECT_LT(csr.col_idx()[static_cast<size_t>(idx - 1)],
                csr.col_idx()[static_cast<size_t>(idx)]);
    }
  }
}

TEST(CsrMatrixTest, EmptyMatrixHasNoEdges) {
  Tensor zero(Shape({6, 6}));
  CsrMatrix csr = CsrMatrix::FromDense(zero);
  EXPECT_EQ(csr.nnz(), 0);
  EXPECT_EQ(csr.Density(), 0.0);
  Tensor x = Tensor::Ones(Shape({2, 6, 3}));
  Tensor y = SpMM(csr, x);
  EXPECT_EQ(y.shape(), Shape({2, 6, 3}));
  EXPECT_FLOAT_EQ(SquaredNorm(y), 0.0f);
}

TEST(SpMMKernelTest, MatchesDenseBatchMatMul) {
  Rng rng(12);
  // Feature widths straddle the kFTile=32 register tile: sub-tile, exact
  // tile, tile + ragged edge.
  for (const int64_t f : {1, 7, 31, 32, 33, 64, 70}) {
    for (const double keep : {0.0, 0.1, 0.5, 1.0}) {
      const int64_t n = 29;
      Tensor w = RandomThresholdedWeights(n, keep, rng);
      CsrMatrix csr = CsrMatrix::FromDense(w);
      Tensor x = Tensor::RandomNormal(Shape({3, n, f}), rng);
      ExpectRelClose(SpMM(csr, x), BatchMatMul(w, x), 1e-5f);
      // Rank-2 input: batch of one, returned rank-2.
      Tensor x2 = Tensor::RandomNormal(Shape({n, f}), rng);
      ExpectRelClose(SpMM(csr, x2), MatMul(w, x2), 1e-5f);
    }
  }
}

TEST(SpMMKernelTest, BitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  Rng rng(13);
  Tensor w = RandomThresholdedWeights(64, 0.2, rng);
  CsrMatrix csr = CsrMatrix::FromDense(w);
  Tensor x = Tensor::RandomNormal(Shape({2, 64, 40}), rng);
  ThreadPool::Global().Resize(1);
  Tensor serial = SpMM(csr, x);
  ThreadPool::Global().Resize(4);
  Tensor parallel = SpMM(csr, x);
  EXPECT_TRUE(BitIdentical(serial, parallel));
}

TEST(SpMMOpTest, GradCheckSparseAndDense) {
  Rng rng(14);
  Tensor lap = ScaledLaplacian(Laplacian(RandomThresholdedWeights(5, 0.4, rng)));
  for (const int force : {0, 1}) {
    auto op = GraphOperator::Make(lap, force);
    EXPECT_EQ(op->use_sparse(), force == 1);
    std::vector<ag::Var> inputs = {
        ag::Var(Tensor::RandomNormal(Shape({2, 5, 3}), rng),
                /*requires_grad=*/true)};
    auto fn = [&](const std::vector<ag::Var>& in) {
      return ag::SumAll(ag::Square(ag::SpMM(op, in[0])));
    };
    auto result = ag::GradCheck(fn, inputs, /*eps=*/1e-3, /*tol=*/2e-2);
    EXPECT_TRUE(result.ok) << "force_sparse=" << force << " element "
                           << result.worst_element << " err "
                           << result.max_abs_error;
  }
}

TEST(SpMMOpTest, SparseGradientMatchesDense) {
  Rng rng(15);
  Tensor lap =
      ScaledLaplacian(Laplacian(RandomThresholdedWeights(23, 0.15, rng)));
  Tensor x0 = Tensor::RandomNormal(Shape({2, 23, 9}), rng);
  Tensor grads[2];
  Tensor values[2];
  for (const int force : {0, 1}) {
    auto op = GraphOperator::Make(lap, force);
    ag::Var x(x0, /*requires_grad=*/true);
    ag::Var loss = ag::SumAll(ag::Square(ag::SpMM(op, x)));
    loss.Backward();
    values[force] = loss.value();
    grads[force] = x.grad();
  }
  ExpectRelClose(values[0], values[1], 1e-5f);
  ExpectRelClose(grads[0], grads[1], 1e-5f);
}

// The fused basis and its gradient must equal, byte for byte, the tap-by-tap
// recurrences composed from BatchMatMul, MulScalar, Add and Sub: forward
// T_s = 2·L̂·T_{s-1} − T_{s-2}, and in reverse G_{s-1} += 2·L̂ᵀ·G_s,
// G_{s-2} −= G_s, dX = G_0 + L̂ᵀ·G_1. Every element of both kernels keeps
// the product's ascending-column chain, and every combine rounds once as
// the composed ops do. The table covers every layout edge of the node-major
// kernels: one batch element (the forward reads tap 0 in place), order 1
// (copy only), 2 (no combine) and 3 (the combine folded into the gather),
// one node, F = 33 crossing the 32-wide SpMM tile and F = 132, whose
// batch-16 tiles run in several chunks. Scaling L̂'s rows makes it
// asymmetric, so a gradient that applied L̂ where L̂ᵀ belongs would show.
TEST(ChebyshevBasisTest, MatchesUnfusedRecurrence) {
  Rng rng(22);
  for (const int64_t n : {1, 13}) {
    Tensor lap =
        ScaledLaplacian(Laplacian(RandomThresholdedWeights(n, 0.3, rng)));
    for (int64_t i = 0; i < n; ++i) {
      const float scale = 0.5f + static_cast<float>(rng.Uniform());
      for (int64_t j = 0; j < n; ++j) lap.At2(i, j) *= scale;
    }
    const Tensor lap_t = Transpose2D(lap);
    for (const int64_t batch : {1, 3, 16}) {
      for (const int64_t f : {1, 7, 33, 132}) {
        const Tensor x = Tensor::RandomNormal(Shape({batch, n, f}), rng);
        const Tensor dy4 =
            Tensor::RandomNormal(Shape({batch, n, 4 * f}), rng);
        for (const int64_t order : {1, 2, 3, 4}) {
          std::vector<Tensor> taps = {x, BatchMatMul(lap, x)};
          for (int64_t s = 2; s < order; ++s) {
            taps.push_back(Sub(MulScalar(BatchMatMul(lap, taps.back()), 2.0f),
                               taps[static_cast<size_t>(s - 2)]));
          }
          taps.resize(static_cast<size_t>(order));
          const Tensor want = Concat(taps, 2);

          const Tensor dy = Slice(dy4, 2, 0, order * f);
          std::vector<Tensor> g;
          for (int64_t s = 0; s < order; ++s) {
            g.push_back(Slice(dy, 2, s * f, f));
          }
          for (int64_t s = order - 1; s >= 2; --s) {
            const auto u = static_cast<size_t>(s);
            g[u - 1] =
                Add(g[u - 1], MulScalar(BatchMatMul(lap_t, g[u]), 2.0f));
            g[u - 2] = Sub(g[u - 2], g[u]);
          }
          const Tensor want_grad =
              order == 1 ? dy : Add(g[0], BatchMatMul(lap_t, g[1]));
          for (const int force : {0, 1}) {
            SCOPED_TRACE(::testing::Message()
                         << "n=" << n << " batch=" << batch << " F=" << f
                         << " order=" << order << " force_sparse=" << force);
            auto op = GraphOperator::Make(lap, force);
            ASSERT_TRUE(BitIdentical(ChebyshevBasis(*op, x, order), want));
            ASSERT_TRUE(
                BitIdentical(ChebyshevBasisGrad(*op, dy, order), want_grad));
          }
        }
      }
    }
  }
}

// The CSR and dense paths accumulate every output element as one fused
// chain over a's row in ascending column order (the dense GEMM's zero terms
// leave that chain unchanged), so they agree bit for bit — not just to
// tolerance — for the three graph kernels, at 1 and 4 threads. The widths
// cover the Chebyshev layout copies' compile-time widths (1–8) and their
// fallback (9 and up), the 32-lane SpMM tile's edges (below, at and past
// one tile, the tail windows of 70 and the shard GRU width 132); batch 3
// and 16 widen the node-major Chebyshev operand to batch·F, and each
// batched basis and basis gradient must equal its per-slice batch-1 ones
// bit for bit.
TEST(SparseDenseParityTest, GraphKernelsBitIdentical) {
  PoolGuard guard;
  Rng rng(31);
  for (const int64_t n : {1, 8, 13, 16, 29, 58, 64}) {
    for (const double keep : {0.0, 0.1, 0.5, 1.0}) {
      const Tensor lap = ScaledLaplacian(
          Laplacian(RandomThresholdedWeights(n, keep, rng)));
      const auto dense = GraphOperator::Make(lap, 0);
      const auto sparse = GraphOperator::Make(lap, 1);
      for (const int64_t f : {1, 4, 7, 8, 9, 31, 32, 33, 64, 70, 132}) {
        for (const int64_t batch : {1, 3, 16}) {
          const Tensor x = Tensor::RandomNormal(Shape({batch, n, f}), rng);
          const Tensor g4 =
              Tensor::RandomNormal(Shape({batch, n, 4 * f}), rng);
          for (const int threads : {1, 4}) {
            ThreadPool::Global().Resize(threads);
            SCOPED_TRACE(::testing::Message()
                         << "n=" << n << " keep=" << keep << " F=" << f
                         << " batch=" << batch << " threads=" << threads);
            Tensor applied[2] = {Tensor(x.shape()), Tensor(x.shape())};
            GraphApplyInto(*dense, x, &applied[0]);
            GraphApplyInto(*sparse, x, &applied[1]);
            ASSERT_TRUE(BitIdentical(applied[0], applied[1]));
            for (const int64_t order : {1, 2, 3, 4}) {
              SCOPED_TRACE(::testing::Message() << "order=" << order);
              const Tensor basis = ChebyshevBasis(*sparse, x, order);
              ASSERT_TRUE(BitIdentical(ChebyshevBasis(*dense, x, order),
                                       basis));
              for (int64_t b = 0; batch > 1 && b < batch; ++b) {
                const Tensor xb = Slice(x, 0, b, 1);
                const Tensor want = Slice(basis, 0, b, 1);
                ASSERT_TRUE(BitIdentical(ChebyshevBasis(*dense, xb, order),
                                         want))
                    << "dense slice " << b;
                ASSERT_TRUE(BitIdentical(ChebyshevBasis(*sparse, xb, order),
                                         want))
                    << "sparse slice " << b;
              }
              const Tensor g = Slice(g4, 2, 0, order * f);
              const Tensor grad = ChebyshevBasisGrad(*sparse, g, order);
              ASSERT_TRUE(
                  BitIdentical(ChebyshevBasisGrad(*dense, g, order), grad));
              for (int64_t b = 0; batch > 1 && b < batch; ++b) {
                const Tensor gb = Slice(g, 0, b, 1);
                const Tensor want = Slice(grad, 0, b, 1);
                ASSERT_TRUE(BitIdentical(ChebyshevBasisGrad(*dense, gb, order),
                                         want))
                    << "dense gradient slice " << b;
                ASSERT_TRUE(BitIdentical(
                                ChebyshevBasisGrad(*sparse, gb, order), want))
                    << "sparse gradient slice " << b;
              }
            }
          }
        }
      }
    }
  }
}

TEST(ChebyshevBasisTest, GradCheckSparseAndDense) {
  Rng rng(23);
  Tensor lap =
      ScaledLaplacian(Laplacian(RandomThresholdedWeights(5, 0.4, rng)));
  for (const int force : {0, 1}) {
    auto op = GraphOperator::Make(lap, force);
    std::vector<ag::Var> inputs = {
        ag::Var(Tensor::RandomNormal(Shape({2, 5, 2}), rng),
                /*requires_grad=*/true)};
    auto fn = [&](const std::vector<ag::Var>& in) {
      return ag::SumAll(ag::Square(ag::ChebyshevBasis(op, in[0], 4)));
    };
    auto result = ag::GradCheck(fn, inputs, /*eps=*/1e-3, /*tol=*/2e-2);
    EXPECT_TRUE(result.ok) << "force_sparse=" << force << " element "
                           << result.worst_element << " err "
                           << result.max_abs_error;
  }
}

// No-edge graph: L̂ = −I after scaling, but a literally all-zero operator
// must also follow the recurrence (T_3 = −T_1 when L̂ = 0, not 0).
TEST(ChebyshevBasisTest, ZeroOperatorFollowsRecurrence) {
  Tensor zero(Shape({4, 4}));
  Rng rng(24);
  Tensor x = Tensor::RandomNormal(Shape({1, 4, 3}), rng);
  for (const int force : {0, 1}) {
    auto op = GraphOperator::Make(zero, force);
    Tensor basis = ChebyshevBasis(*op, x, 3);
    ExpectRelClose(Slice(basis, 2, 0, 3), x, 0.0f);
    EXPECT_FLOAT_EQ(SquaredNorm(Slice(basis, 2, 3, 3)), 0.0f);  // T_2 = 0
    ExpectRelClose(Slice(basis, 2, 6, 3), Neg(x), 0.0f);        // T_3 = −x
  }
}

// Forward and parameter/input gradients of a ChebConv must agree between the
// CSR and dense paths on random α-thresholded graphs — including the no-edge
// graph (L̂ = −I) and the fully connected one.
TEST(SparseDenseParityTest, ChebConvForwardAndBackward) {
  Rng graph_rng(16);
  for (const double keep : {0.0, 0.1, 0.5, 1.0}) {
    const int64_t n = 19;
    Tensor lap = ScaledLaplacian(
        Laplacian(RandomThresholdedWeights(n, keep, graph_rng)));
    Tensor x0 = Tensor::RandomNormal(Shape({2, n, 4}), graph_rng);

    Tensor out[2];
    Tensor x_grad[2];
    std::vector<Tensor> param_grads[2];
    for (const int force : {0, 1}) {
      Rng rng(99);  // identical parameter draws for both paths
      nn::ChebConv conv(GraphOperator::Make(lap, force), 4, 6, /*order=*/3,
                        rng);
      ag::Var x(x0, /*requires_grad=*/true);
      ag::Var y = conv.Forward(x);
      out[force] = y.value();
      ag::Var loss = ag::SumAll(ag::Square(y));
      loss.Backward();
      x_grad[force] = x.grad();
      for (const ag::Var& p : conv.Parameters()) {
        param_grads[force].push_back(p.grad());
      }
    }
    ExpectRelClose(out[0], out[1], 1e-5f);
    ExpectRelClose(x_grad[0], x_grad[1], 1e-5f);
    ASSERT_EQ(param_grads[0].size(), param_grads[1].size());
    for (size_t i = 0; i < param_grads[0].size(); ++i) {
      ExpectRelClose(param_grads[0][i], param_grads[1][i], 1e-5f);
    }
  }
}

TEST(SparseDenseParityTest, GcGruStepForwardAndBackward) {
  Rng graph_rng(17);
  for (const double keep : {0.0, 0.2, 1.0}) {
    const int64_t n = 11;
    Tensor lap = ScaledLaplacian(
        Laplacian(RandomThresholdedWeights(n, keep, graph_rng)));
    Tensor x0 = Tensor::RandomNormal(Shape({2, n, 3}), graph_rng);

    Tensor out[2];
    std::vector<Tensor> param_grads[2];
    for (const int force : {0, 1}) {
      Rng rng(77);
      nn::GcGruCell cell(GraphOperator::Make(lap, force), 3, 5, /*order=*/2,
                         rng);
      ag::Var x = ag::Var::Constant(x0);
      ag::Var h = cell.InitialState(2);
      h = cell.Step(x, h);
      h = cell.Step(x, h);
      out[force] = h.value();
      ag::Var loss = ag::SumAll(ag::Square(h));
      loss.Backward();
      for (const ag::Var& p : cell.Parameters()) {
        param_grads[force].push_back(p.grad());
      }
    }
    ExpectRelClose(out[0], out[1], 1e-5f);
    ASSERT_EQ(param_grads[0].size(), param_grads[1].size());
    for (size_t i = 0; i < param_grads[0].size(); ++i) {
      ExpectRelClose(param_grads[0][i], param_grads[1][i], 1e-5f);
    }
  }
}

TEST(SparseDenseParityTest, TrainingStepBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  Rng graph_rng(18);
  Tensor lap = ScaledLaplacian(
      Laplacian(RandomThresholdedWeights(32, 0.15, graph_rng)));
  Tensor x0 = Tensor::RandomNormal(Shape({2, 32, 6}), graph_rng);

  Tensor out[2];
  Tensor grad[2];
  for (const int threads : {1, 4}) {
    ThreadPool::Global().Resize(threads);
    Rng rng(55);
    nn::GcGruCell cell(GraphOperator::Make(lap, /*force_sparse=*/1), 6, 8,
                       /*order=*/3, rng);
    ag::Var x = ag::Var::Constant(x0);
    ag::Var h = cell.Step(x, cell.InitialState(2));
    const int idx = threads == 1 ? 0 : 1;
    out[idx] = h.value();
    ag::Var loss = ag::SumAll(ag::Square(h));
    loss.Backward();
    grad[idx] = cell.Parameters()[0].grad();
  }
  EXPECT_TRUE(BitIdentical(out[0], out[1]));
  EXPECT_TRUE(BitIdentical(grad[0], grad[1]));
}

// The fused reset/update gate shares one Chebyshev basis: a Step must apply
// L̂ exactly 2·(order−1) times (gate basis + candidate basis), not the
// 3·(order−1) of three independent convolutions.
TEST(FusedGateTest, StepDoesOneChebyshevRecurrencePerGatePair) {
  Rng rng(19);
  Tensor lap =
      ScaledLaplacian(Laplacian(RandomThresholdedWeights(7, 0.5, rng)));
  const int64_t order = 4;
  nn::GcGruCell cell(GraphOperator::Make(lap), 2, 3, order, rng);
  ag::Var x = ag::Var::Constant(Tensor::RandomNormal(Shape({1, 7, 2}), rng));
  ag::Var h = cell.InitialState(1);
  const int64_t before = nn::GraphApplyCount();
  h = cell.Step(x, h);
  const int64_t applies = nn::GraphApplyCount() - before;
  EXPECT_EQ(applies, 2 * (order - 1));
}

TEST(GraphOperatorTest, PathSelectionPolicy) {
  Rng rng(20);
  Tensor sparse_lap =
      ScaledLaplacian(Laplacian(RandomThresholdedWeights(40, 0.05, rng)));
  Tensor dense_lap =
      ScaledLaplacian(Laplacian(RandomThresholdedWeights(40, 0.9, rng)));

  // Automatic: density against kSparseDensityThreshold.
  EXPECT_TRUE(GraphOperator::Make(sparse_lap)->use_sparse());
  EXPECT_FALSE(GraphOperator::Make(dense_lap)->use_sparse());

  // The rule is density <= threshold: a 4×4 operator with 4 non-zeros sits
  // exactly on it and takes CSR; one more non-zero tips it to dense.
  Tensor boundary = Tensor::Identity(4);
  ASSERT_EQ(GraphOperator::Make(boundary)->density(),
            GraphOperator::kSparseDensityThreshold);
  EXPECT_TRUE(GraphOperator::Make(boundary)->use_sparse());
  boundary.At2(0, 1) = 0.5f;
  EXPECT_FALSE(GraphOperator::Make(boundary)->use_sparse());

  // Explicit force beats density.
  EXPECT_FALSE(GraphOperator::Make(sparse_lap, 0)->use_sparse());
  EXPECT_TRUE(GraphOperator::Make(dense_lap, 1)->use_sparse());
}

// -- Raw GEMM entry under gradcheck ------------------------------------------
//
// GemmRawInto runs the Chebyshev basis's dense taps over scratch buffers
// rather than Tensors. The gradcheck objective recomputes it at every
// finite-difference evaluation point and asserts it is bit-identical to the
// tape's MatMul, so the raw entry is pinned to the differentiated op across
// a whole neighborhood of inputs, not just one sample.

TEST(RawKernelGradCheckTest, GemmRawBitIdenticalToTapeMatMul) {
  Rng rng(31);
  const int64_t m = 4, k = 3, n = 5;
  std::vector<ag::Var> inputs = {
      ag::Var(Tensor::RandomNormal(Shape({m, k}), rng), /*requires_grad=*/true),
      ag::Var(Tensor::RandomNormal(Shape({k, n}), rng),
              /*requires_grad=*/true)};
  auto fn = [&](const std::vector<ag::Var>& in) {
    ag::Var y = ag::MatMul(in[0], in[1]);
    Tensor raw(Shape({m, n}));
    GemmRawInto(in[0].value().data(), in[1].value().data(), raw.data(), m, k,
                n);
    EXPECT_TRUE(BitIdentical(raw, y.value()));
    return ag::SumAll(ag::Square(y));
  };
  auto result = ag::GradCheck(fn, inputs, /*eps=*/1e-3, /*tol=*/2e-2);
  EXPECT_TRUE(result.ok) << "element " << result.worst_element << " err "
                         << result.max_abs_error;
}

TEST(GraphOperatorTest, FactoryBuildsScaledLaplacian) {
  Rng rng(21);
  Tensor w = RandomThresholdedWeights(13, 0.3, rng);
  auto op = MakeScaledLaplacianOperator(w);
  EXPECT_EQ(op->nodes(), 13);
  EXPECT_TRUE(BitIdentical(op->dense(), ScaledLaplacian(Laplacian(w))));
  EXPECT_TRUE(BitIdentical(op->csr().ToDense(), op->dense()));
  EXPECT_TRUE(
      BitIdentical(op->csr_transpose().ToDense(), op->dense_transpose()));
}

}  // namespace
}  // namespace odf
