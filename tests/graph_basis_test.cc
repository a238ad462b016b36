// Tests for the selectable graph-operator families (nn/graph_basis.h):
// dual-direction diffusion, Chebyshev + demand-correlation second
// component, and the learned adaptive adjacency.
//
// Coverage: each basis's Stack matches an unfused reference built from the
// raw kernels; adaptive embedding gradients and the diffusion-tap backward
// pass finite-difference gradcheck; Stack is bit-identical across thread
// counts. Plan-vs-tape parity for every operator family lives in the
// configuration table of tests/serving_test.cc.

#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "graph/laplacian.h"
#include "nn/cheb_conv.h"
#include "nn/graph_basis.h"
#include "tensor/csr.h"
#include "tensor/tensor_ops.h"
#include "util/thread_pool.h"

#include "pool_guard.h"

namespace odf {
namespace {

namespace ag = odf::autograd;

bool BitIdentical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Applies `op` with the same kernel the tape's ag::SpMM forward uses, so
// references built from it stay comparable at tight tolerance.
Tensor ApplyOp(const std::shared_ptr<const GraphOperator>& op,
               const Tensor& x) {
  return op->use_sparse() ? SpMM(op->csr(), x) : BatchMatMul(op->dense(), x);
}

// Random connected proximity-like matrix: symmetric, zero diagonal.
Tensor RandomProximity(int64_t n, Rng& rng) {
  Tensor w = Tensor::RandomUniform(Shape({n, n}), rng, 0.1f, 1.0f);
  for (int64_t i = 0; i < n; ++i) {
    w.At2(i, i) = 0.0f;
    for (int64_t j = i + 1; j < n; ++j) w.At2(j, i) = w.At2(i, j);
  }
  return w;
}

void ExpectTapsEqual(const Tensor& stack, const std::vector<Tensor>& parts) {
  ASSERT_FALSE(parts.empty());
  const int64_t batch = parts[0].dim(0);
  const int64_t n = parts[0].dim(1);
  const int64_t f = parts[0].dim(2);
  ASSERT_EQ(stack.shape(),
            Shape({batch, n, static_cast<int64_t>(parts.size()) * f}));
  for (size_t t = 0; t < parts.size(); ++t) {
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t i = 0; i < n; ++i) {
        for (int64_t j = 0; j < f; ++j) {
          ASSERT_NEAR(stack.At3(b, i, static_cast<int64_t>(t) * f + j),
                      parts[t].At3(b, i, j), 1e-5f)
              << "tap " << t << " at (" << b << ", " << i << ", " << j << ")";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Stack semantics vs unfused references.
// ---------------------------------------------------------------------

TEST(GraphBasisTest, DiffusionStackMatchesUnfusedReference) {
  Rng rng(31);
  const int64_t n = 5, f = 2;
  const Tensor w = RandomProximity(n, rng);
  const auto [fwd, bwd] = MakeDiffusionOperators(w);
  const auto basis = nn::GraphBasis::Diffusion(fwd, bwd, /*order=*/3);
  ASSERT_EQ(basis->taps(), 5);  // x, P x, P² x, Pᵀ-walk x, (Pᵀ-walk)² x

  const Tensor x = Tensor::RandomNormal(Shape({2, n, f}), rng);
  const Tensor stack = basis->Stack(ag::Var::Constant(x)).value();

  // Tap order: identity, forward powers, then backward powers.
  std::vector<Tensor> parts{x};
  parts.push_back(ApplyOp(fwd, x));
  parts.push_back(ApplyOp(fwd, parts.back()));
  parts.push_back(ApplyOp(bwd, x));
  parts.push_back(ApplyOp(bwd, parts.back()));
  ExpectTapsEqual(stack, parts);
}

TEST(GraphBasisTest, ChebCorrStackIsChebyshevStackPlusCorrelationTail) {
  Rng rng(32);
  const int64_t n = 5, f = 3;
  const auto op = MakeScaledLaplacianOperator(RandomProximity(n, rng));
  const auto corr = MakeScaledLaplacianOperator(RandomProximity(n, rng));
  const auto basis = nn::GraphBasis::Chebyshev(op, /*order=*/3, corr);
  ASSERT_EQ(basis->taps(), 5);  // 3 primary + 2 correlation (tap 1 shared)

  const Tensor x = Tensor::RandomNormal(Shape({2, n, f}), rng);
  const Tensor stack = basis->Stack(ag::Var::Constant(x)).value();

  // Primary taps are exactly the fused Chebyshev stack…
  const Tensor main = nn::ChebyshevStack(op, ag::Var::Constant(x), 3).value();
  ASSERT_EQ(stack.dim(2), main.dim(2) + 2 * f);
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < main.dim(2); ++j) {
        ASSERT_EQ(stack.At3(b, i, j), main.At3(b, i, j));
      }
    }
  }
  // …and the tail is the Chebyshev recurrence over the correlation graph,
  // sharing tap 1 (identity) with the primary component.
  const Tensor c1 = ApplyOp(corr, x);
  Tensor c2 = ApplyOp(corr, c1);
  for (int64_t i = 0; i < c2.numel(); ++i) c2[i] = 2.0f * c2[i] - x[i];
  for (int64_t b = 0; b < 2; ++b) {
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < f; ++j) {
        ASSERT_NEAR(stack.At3(b, i, 3 * f + j), c1.At3(b, i, j), 1e-5f);
        ASSERT_NEAR(stack.At3(b, i, 4 * f + j), c2.At3(b, i, j), 1e-5f);
      }
    }
  }
}

TEST(GraphBasisTest, AdaptiveStackUsesSoftmaxReluAdjacency) {
  Rng rng(33);
  const int64_t n = 4, f = 2;
  const auto basis = nn::GraphBasis::Adaptive(n, /*embed_dim=*/3,
                                              /*order=*/3, rng);
  ASSERT_EQ(basis->taps(), 3);

  const Tensor a = SoftmaxLastDim(Relu(
      MatMul(basis->origin_embedding().value(),
             TransposeLast2(basis->destination_embedding().value()))));
  ASSERT_EQ(a.shape(), Shape({n, n}));
  for (int64_t i = 0; i < n; ++i) {  // softmax rows sum to 1
    float row = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
      EXPECT_GE(a.At2(i, j), 0.0f);
      row += a.At2(i, j);
    }
    EXPECT_NEAR(row, 1.0f, 1e-5f);
  }

  const Tensor x = Tensor::RandomNormal(Shape({2, n, f}), rng);
  const Tensor stack = basis->Stack(ag::Var::Constant(x)).value();
  const Tensor t1 = BatchMatMul(a, x);
  Tensor t2 = BatchMatMul(a, t1);
  for (int64_t i = 0; i < t2.numel(); ++i) t2[i] = 2.0f * t2[i] - x[i];
  ExpectTapsEqual(stack, {x, t1, t2});
}

// ---------------------------------------------------------------------
// Gradients (satellite 4).
// ---------------------------------------------------------------------

// The adaptive embeddings are real trainable parameters: analytic
// gradients through softmax(relu(E_o·E_dᵀ)) and the tap recurrence must
// match finite differences.
TEST(GraphBasisGradTest, AdaptiveEmbeddingGradcheck) {
  Rng rng(41);
  const int64_t n = 4, f = 2;
  const auto basis = nn::GraphBasis::Adaptive(n, /*embed_dim=*/3,
                                              /*order=*/3, rng);
  const Tensor x = Tensor::RandomNormal(Shape({1, n, f}), rng, 0.0f, 0.7f);
  // Random weights break the symmetry of a plain sum (softmax rows summing
  // to 1 would otherwise zero parts of the adjacency gradient).
  const Tensor weights =
      Tensor::RandomNormal(Shape({1, n, basis->taps() * f}), rng, 0.0f, 1.0f);

  std::vector<ag::Var> inputs{basis->origin_embedding(),
                              basis->destination_embedding()};
  const auto fn = [&](const std::vector<ag::Var>&) {
    return ag::SumAll(ag::Mul(basis->Stack(ag::Var::Constant(x)),
                              ag::Var::Constant(weights)));
  };
  const ag::GradCheckResult result = ag::GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << "worst |Δ| " << result.max_abs_error
                         << " at input " << result.worst_input << " element "
                         << result.worst_element;
}

// Diffusion taps propagate gradients through both walk directions.
TEST(GraphBasisGradTest, DiffusionStackInputGradcheck) {
  Rng rng(42);
  const int64_t n = 4, f = 2;
  const auto [fwd, bwd] = MakeDiffusionOperators(RandomProximity(n, rng));
  const auto basis = nn::GraphBasis::Diffusion(fwd, bwd, /*order=*/3);
  const Tensor weights = Tensor::RandomNormal(
      Shape({1, n, basis->taps() * f}), rng, 0.0f, 1.0f);

  std::vector<ag::Var> inputs{
      ag::Var(Tensor::RandomNormal(Shape({1, n, f}), rng, 0.0f, 0.7f),
              /*requires_grad=*/true)};
  const auto fn = [&](const std::vector<ag::Var>& in) {
    return ag::SumAll(ag::Mul(basis->Stack(in[0]), ag::Var::Constant(weights)));
  };
  const ag::GradCheckResult result = ag::GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << "worst |Δ| " << result.max_abs_error
                         << " at element " << result.worst_element;
}

// ---------------------------------------------------------------------
// Thread-count bit-identity (satellite 4).
// ---------------------------------------------------------------------

TEST(GraphBasisTest, StackBitIdenticalAcrossThreadCounts) {
  Rng rng(51);
  const int64_t n = 6, f = 3;
  const Tensor w = RandomProximity(n, rng);
  const auto [fwd, bwd] = MakeDiffusionOperators(w);
  Rng adaptive_rng(52);
  const std::vector<std::shared_ptr<nn::GraphBasis>> bases{
      nn::GraphBasis::Chebyshev(MakeScaledLaplacianOperator(w), 3),
      nn::GraphBasis::Chebyshev(MakeScaledLaplacianOperator(w), 3,
                                MakeScaledLaplacianOperator(
                                    RandomProximity(n, rng))),
      nn::GraphBasis::Diffusion(fwd, bwd, 3),
      nn::GraphBasis::Adaptive(n, 4, 3, adaptive_rng)};
  const Tensor x = Tensor::RandomNormal(Shape({3, n, f}), rng);

  PoolGuard guard;
  for (size_t i = 0; i < bases.size(); ++i) {
    SCOPED_TRACE("basis " + std::to_string(i));
    ThreadPool::Global().Resize(1);
    const Tensor serial = bases[i]->Stack(ag::Var::Constant(x)).value();
    ThreadPool::Global().Resize(4);
    const Tensor parallel = bases[i]->Stack(ag::Var::Constant(x)).value();
    EXPECT_TRUE(BitIdentical(serial, parallel))
        << "Stack diverged across thread counts";
  }
}

}  // namespace
}  // namespace odf
