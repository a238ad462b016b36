#include "autograd/ops.h"

#include <gtest/gtest.h>

#include "autograd/capture.h"
#include "autograd/gradcheck.h"
#include "autograd/var.h"

namespace odf::autograd {
namespace {

Var Leaf(Tensor t) { return Var(std::move(t), /*requires_grad=*/true); }

TEST(VarTest, LeafBasics) {
  Var v = Leaf(Tensor::Arange(3));
  EXPECT_TRUE(v.requires_grad());
  EXPECT_EQ(v.shape(), Shape({3}));
  EXPECT_EQ(v.grad().numel(), 3);
  EXPECT_EQ(v.grad()[0], 0.0f);
}

TEST(VarTest, SharedReferenceSemantics) {
  Var a = Leaf(Tensor::Scalar(2.0f));
  Var b = a;  // alias
  Var loss = Mul(a, b);
  loss.Backward();
  // d(a*a)/da = 2a = 4, accumulated through both uses.
  EXPECT_FLOAT_EQ(a.grad()[0], 4.0f);
  EXPECT_FLOAT_EQ(b.grad()[0], 4.0f);
}

TEST(VarTest, BackwardThroughAdd) {
  Var a = Leaf(Tensor::Scalar(1.0f));
  Var b = Leaf(Tensor::Scalar(2.0f));
  Var loss = Add(a, b);
  loss.Backward();
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0f);
  EXPECT_FLOAT_EQ(b.grad()[0], 1.0f);
}

TEST(VarTest, NoTapeWithoutRequiresGrad) {
  Var a = Var::Constant(Tensor::Scalar(1.0f));
  Var b = Var::Constant(Tensor::Scalar(2.0f));
  Var c = Mul(a, b);
  EXPECT_FALSE(c.requires_grad());
  EXPECT_TRUE(c.node()->parents.empty());
}

TEST(VarTest, DiamondGraphAccumulates) {
  // loss = x*x + x  => dloss/dx = 2x + 1.
  Var x = Leaf(Tensor::Scalar(3.0f));
  Var loss = Add(Mul(x, x), x);
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 7.0f);
}

TEST(VarTest, ReusedSubgraph) {
  // y = x + 1; loss = y*y => dloss/dx = 2(x+1).
  Var x = Leaf(Tensor::Scalar(2.0f));
  Var y = AddScalar(x, 1.0f);
  Var loss = Mul(y, y);
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 6.0f);
}

TEST(VarTest, ZeroGradResets) {
  Var x = Leaf(Tensor::Scalar(2.0f));
  Var loss = Mul(x, x);
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 4.0f);
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad()[0], 0.0f);
}

// -- Gradcheck-based op coverage ------------------------------------------

TEST(GradCheckTest, MulBroadcastBias) {
  Rng rng(1);
  std::vector<Var> inputs = {
      Leaf(Tensor::RandomNormal(Shape({3, 4}), rng)),
      Leaf(Tensor::RandomNormal(Shape({4}), rng))};
  auto fn = [](const std::vector<Var>& in) {
    return SumAll(Mul(in[0], Add(in[1], in[1])));
  };
  auto result = GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << "max err " << result.max_abs_error;
}

TEST(GradCheckTest, MatMulChain) {
  Rng rng(2);
  std::vector<Var> inputs = {
      Leaf(Tensor::RandomNormal(Shape({3, 4}), rng, 0.0f, 0.5f)),
      Leaf(Tensor::RandomNormal(Shape({4, 2}), rng, 0.0f, 0.5f))};
  auto fn = [](const std::vector<Var>& in) {
    return SumAll(Tanh(MatMul(in[0], in[1])));
  };
  auto result = GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << "max err " << result.max_abs_error;
}

TEST(GradCheckTest, BatchMatMulBothRanks) {
  Rng rng(3);
  std::vector<Var> inputs = {
      Leaf(Tensor::RandomNormal(Shape({2, 3, 4}), rng, 0.0f, 0.5f)),
      Leaf(Tensor::RandomNormal(Shape({4, 2}), rng, 0.0f, 0.5f))};
  auto fn = [](const std::vector<Var>& in) {
    return SumAll(Sigmoid(BatchMatMul(in[0], in[1])));
  };
  auto result = GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << "max err " << result.max_abs_error;
}

TEST(GradCheckTest, SoftmaxCrossEntropyLike) {
  Rng rng(4);
  std::vector<Var> inputs = {
      Leaf(Tensor::RandomNormal(Shape({2, 5}), rng))};
  auto fn = [](const std::vector<Var>& in) {
    Var probs = SoftmaxLastDim(in[0]);
    return Neg(SumAll(LogEps(probs, 1e-3f)));
  };
  auto result = GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << "max err " << result.max_abs_error;
}

TEST(GradCheckTest, SliceConcatPermute) {
  Rng rng(5);
  std::vector<Var> inputs = {
      Leaf(Tensor::RandomNormal(Shape({2, 4, 3}), rng))};
  auto fn = [](const std::vector<Var>& in) {
    Var left = Slice(in[0], 1, 0, 2);
    Var right = Slice(in[0], 1, 2, 2);
    Var joined = Concat({right, left}, 1);
    Var perm = Permute(joined, {1, 0, 2});
    return SumAll(Square(perm));
  };
  auto result = GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << "max err " << result.max_abs_error;
}

TEST(GradCheckTest, ReshapeTransposeRelu) {
  Rng rng(6);
  std::vector<Var> inputs = {
      Leaf(Tensor::RandomNormal(Shape({3, 4}), rng))};
  auto fn = [](const std::vector<Var>& in) {
    Var r = Reshape(in[0], {2, 6});
    Var t = TransposeLast2(r);
    return SumAll(Relu(t));
  };
  auto result = GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << "max err " << result.max_abs_error;
}

TEST(GradCheckTest, ExpLogMean) {
  Rng rng(7);
  std::vector<Var> inputs = {
      Leaf(Tensor::RandomUniform(Shape({6}), rng, 0.5f, 2.0f))};
  auto fn = [](const std::vector<Var>& in) {
    return MeanAll(Mul(Exp(MulScalar(in[0], 0.3f)), LogEps(in[0], 1e-3f)));
  };
  auto result = GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << "max err " << result.max_abs_error;
}

TEST(GradCheckTest, MaskedSquaredError) {
  Rng rng(8);
  Tensor target = Tensor::RandomNormal(Shape({3, 4}), rng);
  Tensor mask(Shape({3, 4}));
  for (int64_t i = 0; i < mask.numel(); ++i) {
    mask[i] = (i % 3 == 0) ? 1.0f : 0.0f;
  }
  std::vector<Var> inputs = {
      Leaf(Tensor::RandomNormal(Shape({3, 4}), rng))};
  auto fn = [&](const std::vector<Var>& in) {
    return MaskedSquaredError(in[0], target, mask, 5.0f);
  };
  auto result = GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << "max err " << result.max_abs_error;
}

TEST(GradCheckTest, FrobeniusSquared) {
  Rng rng(9);
  std::vector<Var> inputs = {
      Leaf(Tensor::RandomNormal(Shape({4, 3}), rng))};
  auto fn = [](const std::vector<Var>& in) {
    return FrobeniusSquared(in[0]);
  };
  auto result = GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << "max err " << result.max_abs_error;
}

TEST(GradCheckTest, DirichletEnergySymmetricLaplacian) {
  // Path graph 0-1-2 Laplacian.
  Tensor lap(Shape({3, 3}), {1, -1, 0, -1, 2, -1, 0, -1, 1});
  Rng rng(10);
  std::vector<Var> inputs = {
      Leaf(Tensor::RandomNormal(Shape({2, 3, 2}), rng))};
  auto fn = [&](const std::vector<Var>& in) {
    return DirichletEnergy(in[0], lap, /*node_axis=*/1);
  };
  auto result = GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << "max err " << result.max_abs_error;
}

TEST(DirichletEnergyTest, ConstantFeatureHasZeroEnergy) {
  Tensor lap(Shape({3, 3}), {1, -1, 0, -1, 2, -1, 0, -1, 1});
  Var x = Var::Constant(Tensor::Ones(Shape({3, 2})));
  Var e = DirichletEnergy(x, lap, 0);
  EXPECT_NEAR(e.value().Item(), 0.0f, 1e-6f);
}

TEST(DirichletEnergyTest, SmoothSignalLowerEnergy) {
  Tensor lap(Shape({3, 3}), {1, -1, 0, -1, 2, -1, 0, -1, 1});
  Var smooth = Var::Constant(Tensor(Shape({3, 1}), {1.0f, 1.1f, 1.2f}));
  Var rough = Var::Constant(Tensor(Shape({3, 1}), {1.0f, -1.0f, 1.0f}));
  EXPECT_LT(DirichletEnergy(smooth, lap, 0).value().Item(),
            DirichletEnergy(rough, lap, 0).value().Item());
}

TEST(DropoutTest, TrainModeZeroesAndScales) {
  Rng rng(11);
  Var x = Leaf(Tensor::Ones(Shape({1000})));
  Var y = Dropout(x, 0.4f, /*train=*/true, rng);
  int64_t zeros = 0;
  double total = 0;
  for (int64_t i = 0; i < 1000; ++i) {
    const float v = y.value()[i];
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.6f, 1e-5f);
      total += v;
    }
  }
  EXPECT_GT(zeros, 300);
  EXPECT_LT(zeros, 500);
  // Inverted dropout keeps the expectation roughly constant.
  EXPECT_NEAR(total / 1000.0, 1.0, 0.1);
}

TEST(DropoutTest, EvalModeIsIdentity) {
  Rng rng(12);
  Var x = Leaf(Tensor::Arange(5));
  Var y = Dropout(x, 0.5f, /*train=*/false, rng);
  EXPECT_TRUE(AllClose(y.value(), x.value(), 0.0f));
}

TEST(DropoutTest, GradientFlowsThroughMask) {
  Rng rng(13);
  Var x = Leaf(Tensor::Ones(Shape({50})));
  Var y = Dropout(x, 0.5f, /*train=*/true, rng);
  SumAll(y).Backward();
  for (int64_t i = 0; i < 50; ++i) {
    const float v = y.value()[i];
    EXPECT_FLOAT_EQ(x.grad()[i], v);  // grad equals mask scale
  }
}

TEST(BackwardTest, GradAccumulatesAcrossBackwardCalls) {
  Var x = Leaf(Tensor::Scalar(1.0f));
  Var loss1 = Mul(x, x);
  loss1.Backward();
  Var loss2 = Mul(x, x);
  loss2.Backward();
  EXPECT_FLOAT_EQ(x.grad()[0], 4.0f);  // 2 + 2
}

// A capture records each op with its parents, shape, attributes and phase
// label. An op over parameters only runs (its value is folded); an op that
// depends on a batch leaf records its shape and skips its kernel.
TEST(CaptureTest, FoldsConstantsAndSkipsBatchDependentKernels) {
  const Var w = Leaf(Tensor::Full(Shape({3}), 2.0f));
  Recording rec;
  {
    Capture capture;
    ScopedPhase phase("encode");
    const Var x = Var::BatchInput(Tensor::Ones(Shape({1, 3})), 0);
    const Var y = Add(x, MulScalar(w, 3.0f));
    rec = capture.Finish({y});
  }
  EXPECT_EQ(Capture::Active(), nullptr);
  ASSERT_EQ(rec.ops.size(), 4u);
  const char* names[] = {"BatchInput", "Parameter", "MulScalar", "Add"};
  for (size_t i = 0; i < 4; ++i) EXPECT_STREQ(rec.ops[i].op, names[i]);
  EXPECT_TRUE(rec.ops[0].batched);
  EXPECT_EQ(rec.ops[0].input_index, 0);
  EXPECT_FALSE(rec.ops[2].batched);
  EXPECT_EQ(rec.ops[2].attrs.scalar, 3.0f);
  EXPECT_EQ(rec.ops[2].value()[1], 6.0f);
  const CapturedOp& add = rec.ops[3];
  EXPECT_TRUE(add.batched);
  EXPECT_EQ(add.parents, (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(add.shape(), Shape({1, 3}));
  EXPECT_EQ(add.value().numel(), 0);  // kernel skipped
  EXPECT_STREQ(add.phase, "encode");
  EXPECT_EQ(rec.outputs, std::vector<int32_t>{3});
}

}  // namespace
}  // namespace odf::autograd
