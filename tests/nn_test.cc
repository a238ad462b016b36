#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "graph/laplacian.h"
#include "graph/region_graph.h"
#include "nn/cheb_conv.h"
#include "nn/gcgru.h"
#include "nn/graph_pool.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/optimizer.h"
#include "pool_guard.h"
#include "util/thread_pool.h"

namespace odf::nn {
namespace {

namespace ag = odf::autograd;

Tensor TestLaplacian(int rows, int cols) {
  RegionGraph g = RegionGraph::Grid(rows, cols, 1.0);
  Tensor w = g.ProximityMatrix({.sigma = 1.0, .alpha = 1.5});
  return ScaledLaplacian(Laplacian(w));
}

TEST(LinearTest, ShapesAndParamCount) {
  Rng rng(1);
  Linear layer(5, 3, rng);
  EXPECT_EQ(layer.NumParameters(), 5 * 3 + 3);
  ag::Var x = ag::Var::Constant(Tensor::Ones(Shape({2, 5})));
  ag::Var y = layer.Forward(x);
  EXPECT_EQ(y.shape(), Shape({2, 3}));
  // Rank-3 input broadcast.
  ag::Var x3 = ag::Var::Constant(Tensor::Ones(Shape({2, 4, 5})));
  EXPECT_EQ(layer.Forward(x3).shape(), Shape({2, 4, 3}));
}

TEST(LinearTest, NoBiasOption) {
  Rng rng(2);
  Linear layer(4, 4, rng, /*with_bias=*/false);
  EXPECT_EQ(layer.NumParameters(), 16);
  ag::Var zero = ag::Var::Constant(Tensor(Shape({1, 4})));
  EXPECT_FLOAT_EQ(SquaredNorm(layer.Forward(zero).value()), 0.0f);
}

TEST(LinearTest, GradCheck) {
  Rng rng(3);
  Linear layer(3, 2, rng);
  std::vector<ag::Var> inputs = {
      ag::Var(Tensor::RandomNormal(Shape({2, 3}), rng), true)};
  auto fn = [&](const std::vector<ag::Var>& in) {
    return ag::SumAll(ag::Tanh(layer.Forward(in[0])));
  };
  auto result = ag::GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << result.max_abs_error;
}

TEST(GruCellTest, StateShapeAndBounds) {
  Rng rng(4);
  GruCell cell(3, 5, rng);
  ag::Var h = cell.InitialState(2);
  EXPECT_EQ(h.shape(), Shape({2, 5}));
  ag::Var x = ag::Var::Constant(Tensor::RandomNormal(Shape({2, 3}), rng));
  ag::Var h1 = cell.Step(x, h);
  EXPECT_EQ(h1.shape(), Shape({2, 5}));
  // GRU state is a convex combination of tanh outputs: bounded by 1.
  EXPECT_LE(MaxValue(h1.value()), 1.0f);
  EXPECT_GE(MinValue(h1.value()), -1.0f);
}

TEST(GruCellTest, GradFlowsThroughTime) {
  Rng rng(5);
  GruCell cell(2, 3, rng);
  std::vector<ag::Var> inputs = {
      ag::Var(Tensor::RandomNormal(Shape({1, 2}), rng), true)};
  auto fn = [&](const std::vector<ag::Var>& in) {
    ag::Var h = cell.InitialState(1);
    h = cell.Step(in[0], h);
    h = cell.Step(in[0], h);  // reuse input across two steps
    return ag::SumAll(h);
  };
  auto result = ag::GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << result.max_abs_error;
}

TEST(Seq2SeqGruTest, OutputSequenceShapes) {
  Rng rng(6);
  Seq2SeqGru model(4, 8, rng);
  std::vector<ag::Var> inputs;
  for (int t = 0; t < 3; ++t) {
    inputs.push_back(
        ag::Var::Constant(Tensor::RandomNormal(Shape({2, 4}), rng)));
  }
  auto outputs = model.Forward(inputs, 3);
  ASSERT_EQ(outputs.size(), 3u);
  for (const auto& out : outputs) EXPECT_EQ(out.shape(), Shape({2, 4}));
}

TEST(Seq2SeqGruTest, LearnsConstantSequence) {
  // Tiny smoke-training: predict a constant next element.
  Rng rng(7);
  Seq2SeqGru model(2, 8, rng);
  Adam opt(model.Parameters(), 0.02f);
  Tensor target(Shape({1, 2}), {0.7f, -0.3f});
  float first_loss = 0;
  float last_loss = 0;
  for (int it = 0; it < 60; ++it) {
    std::vector<ag::Var> inputs(
        3, ag::Var::Constant(Tensor::Full(Shape({1, 2}), 0.5f)));
    auto outputs = model.Forward(inputs, 1);
    ag::Var loss = ag::MaskedSquaredError(
        outputs[0], target, Tensor::Ones(Shape({1, 2})));
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
    if (it == 0) first_loss = loss.value().Item();
    last_loss = loss.value().Item();
  }
  EXPECT_LT(last_loss, first_loss * 0.1f);
}

TEST(ChebConvTest, ShapeAndParamCount) {
  Rng rng(8);
  Tensor lap = TestLaplacian(2, 3);  // 6 nodes
  ChebConv conv(lap, 4, 5, /*order=*/3, rng);
  EXPECT_EQ(conv.NumParameters(), 3 * 4 * 5 + 5);
  ag::Var x = ag::Var::Constant(Tensor::RandomNormal(Shape({2, 6, 4}), rng));
  EXPECT_EQ(conv.Forward(x).shape(), Shape({2, 6, 5}));
  // Rank-2 convenience path.
  ag::Var x2 = ag::Var::Constant(Tensor::RandomNormal(Shape({6, 4}), rng));
  EXPECT_EQ(conv.Forward(x2).shape(), Shape({6, 5}));
}

TEST(ChebConvTest, Order1IsPerNodeLinear) {
  // With order 1 the conv reduces to a per-node dense layer: the output for
  // a node must not depend on other nodes.
  Rng rng(9);
  Tensor lap = TestLaplacian(2, 2);
  ChebConv conv(lap, 2, 2, /*order=*/1, rng);
  Tensor a = Tensor::RandomNormal(Shape({1, 4, 2}), rng);
  Tensor b = a;
  b.At3(0, 3, 0) += 10.0f;  // perturb only node 3
  Tensor ya = conv.Forward(ag::Var::Constant(a)).value();
  Tensor yb = conv.Forward(ag::Var::Constant(b)).value();
  for (int64_t node = 0; node < 3; ++node) {
    for (int64_t f = 0; f < 2; ++f) {
      EXPECT_FLOAT_EQ(ya.At3(0, node, f), yb.At3(0, node, f));
    }
  }
}

TEST(ChebConvTest, Order2MixesNeighbours) {
  Rng rng(10);
  Tensor lap = TestLaplacian(1, 3);  // path graph 0-1-2
  ChebConv conv(lap, 1, 1, /*order=*/2, rng);
  Tensor a(Shape({1, 3, 1}));
  Tensor b = a;
  b.At3(0, 0, 0) = 1.0f;  // perturb node 0
  Tensor ya = conv.Forward(ag::Var::Constant(a)).value();
  Tensor yb = conv.Forward(ag::Var::Constant(b)).value();
  // Node 1 (a neighbour) must change; order 2 reaches 1 hop.
  EXPECT_NE(ya.At3(0, 1, 0), yb.At3(0, 1, 0));
}

TEST(ChebConvTest, GradCheck) {
  Rng rng(11);
  Tensor lap = TestLaplacian(2, 2);
  ChebConv conv(lap, 2, 3, /*order=*/3, rng);
  std::vector<ag::Var> inputs = {
      ag::Var(Tensor::RandomNormal(Shape({2, 4, 2}), rng, 0.0f, 0.5f), true)};
  auto fn = [&](const std::vector<ag::Var>& in) {
    return ag::SumAll(ag::Tanh(conv.Forward(in[0])));
  };
  auto result = ag::GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << result.max_abs_error;
}

std::shared_ptr<const Clusters> Share(Clusters clusters) {
  return std::make_shared<const Clusters>(std::move(clusters));
}

TEST(GraphPoolTest, AverageKnownValues) {
  Tensor x(Shape({1, 4, 1}), {1.0f, 3.0f, 5.0f, 9.0f});
  auto y = GraphPool(ag::Var::Constant(x), Share({{0, 1}, {2, 3}}),
                     PoolKind::kAverage);
  EXPECT_EQ(y.shape(), Shape({1, 2, 1}));
  EXPECT_FLOAT_EQ(y.value()[0], 2.0f);
  EXPECT_FLOAT_EQ(y.value()[1], 7.0f);
}

TEST(GraphPoolTest, MaxKnownValues) {
  Tensor x(Shape({1, 4, 2}),
           {1.0f, -1.0f, 3.0f, -5.0f, 5.0f, 0.0f, 9.0f, -2.0f});
  auto y =
      GraphPool(ag::Var::Constant(x), Share({{0, 1}, {2, 3}}), PoolKind::kMax);
  EXPECT_FLOAT_EQ(y.value().At3(0, 0, 0), 3.0f);
  EXPECT_FLOAT_EQ(y.value().At3(0, 0, 1), -1.0f);
  EXPECT_FLOAT_EQ(y.value().At3(0, 1, 0), 9.0f);
  EXPECT_FLOAT_EQ(y.value().At3(0, 1, 1), 0.0f);
}

TEST(GraphPoolTest, SingletonClustersIdentity) {
  Rng rng(12);
  Tensor x = Tensor::RandomNormal(Shape({2, 3, 2}), rng);
  auto y = GraphPool(ag::Var::Constant(x), Share({{0}, {1}, {2}}),
                     PoolKind::kAverage);
  EXPECT_TRUE(AllClose(y.value(), x, 0.0f));
}

// Average pooling (register accumulators at feature widths 4, 7 and 8, a
// runtime width otherwise) must give each output row its cluster's rows
// summed from +0 in cluster order and scaled by the inverse cluster size,
// byte for byte, at 1 and 4 threads. Clusters of sizes 1, 2 and 3 come in a
// shuffled node order; the output starts as NaN so a row left unwritten
// shows.
TEST(GraphPoolTest, AverageMatchesPerElementReference) {
  PoolGuard guard;
  Rng rng(12);
  const Clusters clusters = {{0, 3, 4}, {1}, {2, 5}, {7, 6}, {8}};
  const int64_t batch = 9, n = 9;
  const int64_t nc = static_cast<int64_t>(clusters.size());
  for (const int64_t f : {2, 4, 7, 8, 9}) {
    SCOPED_TRACE(::testing::Message() << "F=" << f);
    const Tensor x = Tensor::RandomNormal(Shape({batch, n, f}), rng);
    Tensor want(Shape({batch, nc, f}));
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t c = 0; c < nc; ++c) {
        const auto& cluster = clusters[static_cast<size_t>(c)];
        const float inv = 1.0f / static_cast<float>(cluster.size());
        for (int64_t j = 0; j < f; ++j) {
          float sum = 0.0f;
          for (int64_t i : cluster) sum += x[(b * n + i) * f + j];
          want[(b * nc + c) * f + j] = sum * inv;
        }
      }
    }
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      ThreadPool::Global().Resize(threads);
      Tensor got = Tensor::Full(want.shape(), std::nanf(""));
      GraphPoolForwardInto(x, clusters, PoolKind::kAverage, &got, nullptr);
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            static_cast<size_t>(want.numel()) * sizeof(float)),
                0);
    }
  }
}

TEST(GraphPoolTest, GradCheckAverage) {
  Rng rng(13);
  std::vector<ag::Var> inputs = {
      ag::Var(Tensor::RandomNormal(Shape({2, 4, 3}), rng), true)};
  auto fn = [](const std::vector<ag::Var>& in) {
    auto pooled =
        GraphPool(in[0], Share({{0, 2}, {1, 3}}), PoolKind::kAverage);
    return ag::SumAll(ag::Square(pooled));
  };
  auto result = ag::GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << result.max_abs_error;
}

TEST(GraphPoolTest, GradCheckMax) {
  Rng rng(14);
  std::vector<ag::Var> inputs = {
      ag::Var(Tensor::RandomNormal(Shape({1, 4, 2}), rng), true)};
  auto fn = [](const std::vector<ag::Var>& in) {
    auto pooled =
        GraphPool(in[0], Share({{0, 1}, {2, 3}}), PoolKind::kMax);
    return ag::SumAll(ag::Square(pooled));
  };
  auto result = ag::GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << result.max_abs_error;
}

TEST(GcGruTest, StateShape) {
  Rng rng(15);
  Tensor lap = TestLaplacian(2, 3);
  GcGruCell cell(lap, 2, 4, /*order=*/2, rng);
  ag::Var h = cell.InitialState(3);
  EXPECT_EQ(h.shape(), Shape({3, 6, 4}));
  ag::Var x =
      ag::Var::Constant(Tensor::RandomNormal(Shape({3, 6, 2}), rng));
  EXPECT_EQ(cell.Step(x, h).shape(), Shape({3, 6, 4}));
}

TEST(GcGruTest, GradCheck) {
  Rng rng(16);
  Tensor lap = TestLaplacian(1, 3);
  GcGruCell cell(lap, 1, 2, /*order=*/2, rng);
  std::vector<ag::Var> inputs = {
      ag::Var(Tensor::RandomNormal(Shape({1, 3, 1}), rng, 0.0f, 0.5f), true)};
  auto fn = [&](const std::vector<ag::Var>& in) {
    ag::Var h = cell.InitialState(1);
    h = cell.Step(in[0], h);
    h = cell.Step(in[0], h);
    return ag::SumAll(h);
  };
  auto result = ag::GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << result.max_abs_error;
}

TEST(GcGruTest, GateParameterGradCheck) {
  // Eqs. 7–10: gradients must flow correctly into the Chebyshev gate
  // convolutions (reset S, update U, candidate H̃) through the recurrence,
  // not just into the input.
  Rng rng(19);
  Tensor lap = TestLaplacian(1, 3);
  GcGruCell cell(lap, 1, 2, /*order=*/2, rng);
  ag::Var x = ag::Var::Constant(
      Tensor::RandomNormal(Shape({1, 3, 1}), rng, 0.0f, 0.5f));
  std::vector<ag::Var> inputs = cell.Parameters();
  // Fused reset∥update gate (weights + bias) + candidate conv (weights +
  // bias).
  ASSERT_EQ(inputs.size(), 4u);
  auto fn = [&](const std::vector<ag::Var>&) {
    ag::Var h = cell.InitialState(1);
    h = cell.Step(x, h);
    h = cell.Step(x, h);
    return ag::SumAll(ag::Square(h));
  };
  auto result = ag::GradCheck(fn, inputs, /*eps=*/1e-3, /*tol=*/3e-2);
  EXPECT_TRUE(result.ok) << "gate parameter " << result.worst_input
                         << " element " << result.worst_element << " err "
                         << result.max_abs_error;
}

TEST(Seq2SeqGcGruTest, EndToEndParameterGradCheck) {
  // The full CNRNN seq2seq (encoder + autoregressive decoder + ChebConv
  // output head): every parameter's analytic gradient must match finite
  // differences through the complete unrolled graph.
  Rng rng(20);
  Tensor lap = TestLaplacian(1, 3);
  Seq2SeqGcGru model(lap, 1, 2, /*order=*/2, rng);
  std::vector<ag::Var> sequence;
  for (int t = 0; t < 2; ++t) {
    sequence.push_back(ag::Var::Constant(
        Tensor::RandomNormal(Shape({1, 3, 1}), rng, 0.0f, 0.5f)));
  }
  std::vector<ag::Var> inputs = model.Parameters();
  auto fn = [&](const std::vector<ag::Var>&) {
    auto outputs = model.Forward(sequence, 2);
    ag::Var total = ag::SumAll(ag::Square(outputs[0]));
    return ag::Add(total, ag::SumAll(ag::Square(outputs[1])));
  };
  auto result = ag::GradCheck(fn, inputs, /*eps=*/1e-3, /*tol=*/3e-2);
  EXPECT_TRUE(result.ok) << "parameter " << result.worst_input
                         << " element " << result.worst_element << " err "
                         << result.max_abs_error;
}

TEST(Seq2SeqGcGruTest, OutputShapes) {
  Rng rng(17);
  Tensor lap = TestLaplacian(2, 2);
  Seq2SeqGcGru model(lap, 3, 5, /*order=*/2, rng);
  std::vector<ag::Var> inputs;
  for (int t = 0; t < 4; ++t) {
    inputs.push_back(
        ag::Var::Constant(Tensor::RandomNormal(Shape({2, 4, 3}), rng)));
  }
  auto outputs = model.Forward(inputs, 2);
  ASSERT_EQ(outputs.size(), 2u);
  for (const auto& out : outputs) EXPECT_EQ(out.shape(), Shape({2, 4, 3}));
}

TEST(OptimizerTest, SgdDescendsQuadratic) {
  ag::Var x(Tensor::Scalar(5.0f), true);
  Sgd opt({x}, 0.1f);
  for (int i = 0; i < 100; ++i) {
    opt.ZeroGrad();
    ag::Var loss = ag::Square(x);
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(x.value().Item(), 0.0f, 1e-3f);
}

TEST(OptimizerTest, AdamDescendsIllConditionedQuadratic) {
  ag::Var x(Tensor(Shape({2}), {5.0f, 5.0f}), true);
  Adam opt({x}, 0.1f);
  // loss = 100*x0² + 0.01*x1².
  Tensor scale(Shape({2}), {100.0f, 0.01f});
  for (int i = 0; i < 500; ++i) {
    opt.ZeroGrad();
    ag::Var loss =
        ag::SumAll(ag::Mul(ag::Var::Constant(scale), ag::Square(x)));
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(x.value()[0], 0.0f, 1e-2f);
  EXPECT_LT(std::fabs(x.value()[1]), 5.0f);
}

TEST(OptimizerTest, ClipGradNorm) {
  ag::Var x(Tensor(Shape({2}), {3.0f, 4.0f}), true);
  Sgd opt({x}, 0.1f);
  ag::Var loss = ag::SumAll(ag::Mul(
      ag::Var::Constant(Tensor(Shape({2}), {3.0f, 4.0f})), x));
  loss.Backward();
  const float norm = opt.ClipGradNorm(1.0f);
  EXPECT_FLOAT_EQ(norm, 5.0f);
  EXPECT_NEAR(std::sqrt(SquaredNorm(x.grad())), 1.0f, 1e-5f);
}

TEST(OptimizerTest, StepDecaySchedule) {
  StepDecaySchedule schedule(0.001f, 0.8f, 5);
  EXPECT_FLOAT_EQ(schedule.LearningRate(0), 0.001f);
  EXPECT_FLOAT_EQ(schedule.LearningRate(4), 0.001f);
  EXPECT_FLOAT_EQ(schedule.LearningRate(5), 0.0008f);
  EXPECT_FLOAT_EQ(schedule.LearningRate(10), 0.00064f);
}

TEST(ModuleTest, ParameterAggregation) {
  Rng rng(18);
  GruCell cell(3, 4, rng);
  // 3 gates × ((3+4)*4 weights + 4 bias).
  EXPECT_EQ(cell.NumParameters(), 3 * (7 * 4 + 4));
  auto params = cell.Parameters();
  EXPECT_EQ(params.size(), 6u);  // 3 weights + 3 biases
  cell.ZeroGrad();
  for (const auto& p : params) EXPECT_FLOAT_EQ(SquaredNorm(p.grad()), 0.0f);
}

}  // namespace
}  // namespace odf::nn
