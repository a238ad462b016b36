// Property-based tests: parameterized sweeps asserting invariants across
// shapes, seeds and scales rather than single examples.

#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "core/recovery.h"
#include "graph/coarsen.h"
#include "graph/laplacian.h"
#include "graph/region_graph.h"
#include "metrics/divergence.h"
#include "nn/cheb_conv.h"
#include "nn/graph_pool.h"
#include "nn/optimizer.h"
#include "od/histogram.h"
#include "tensor/linalg.h"
#include "tensor/tensor_ops.h"

namespace odf {
namespace {

namespace ag = odf::autograd;

// ---------------------------------------------------------------------
// Broadcast arithmetic: op results must match scalar loops for any pair of
// broadcastable shapes.
// ---------------------------------------------------------------------

using ShapePair = std::tuple<std::vector<int64_t>, std::vector<int64_t>>;

class BroadcastProperty : public ::testing::TestWithParam<ShapePair> {};

TEST_P(BroadcastProperty, AddMatchesManualBroadcast) {
  const auto& [dims_a, dims_b] = GetParam();
  Rng rng(42);
  Tensor a = Tensor::RandomNormal(Shape(dims_a), rng);
  Tensor b = Tensor::RandomNormal(Shape(dims_b), rng);
  Tensor sum = Add(a, b);
  Tensor diff = Sub(sum, b);
  // (a + b) - b == broadcast of a.
  Tensor a_broadcast = Add(a, Tensor(BroadcastShape(a.shape(), b.shape())));
  EXPECT_TRUE(AllClose(diff, a_broadcast, 1e-5f));
  // Commutativity.
  EXPECT_TRUE(AllClose(sum, Add(b, a), 0.0f));
}

TEST_P(BroadcastProperty, GradCheckThroughBroadcastMul) {
  const auto& [dims_a, dims_b] = GetParam();
  Rng rng(43);
  std::vector<ag::Var> inputs = {
      ag::Var(Tensor::RandomNormal(Shape(dims_a), rng), true),
      ag::Var(Tensor::RandomNormal(Shape(dims_b), rng), true)};
  auto fn = [](const std::vector<ag::Var>& in) {
    return ag::SumAll(ag::Mul(in[0], in[1]));
  };
  auto result = ag::GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << result.max_abs_error;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastProperty,
    ::testing::Values(
        ShapePair({3, 4}, {3, 4}), ShapePair({3, 4}, {4}),
        ShapePair({3, 1}, {1, 4}), ShapePair({2, 3, 4}, {3, 4}),
        ShapePair({2, 1, 4}, {2, 3, 1}), ShapePair({5}, {1}),
        ShapePair({2, 3, 1, 2}, {1, 2, 2})));

// ---------------------------------------------------------------------
// Matmul gradients across shapes.
// ---------------------------------------------------------------------

using MatmulDims = std::tuple<int, int, int, int>;  // batch, m, k, n

class MatmulProperty : public ::testing::TestWithParam<MatmulDims> {};

TEST_P(MatmulProperty, BatchMatmulGradCheck) {
  const auto& [batch, m, k, n] = GetParam();
  Rng rng(44);
  std::vector<ag::Var> inputs = {
      ag::Var(Tensor::RandomNormal(Shape({batch, m, k}), rng, 0.0f, 0.5f),
              true),
      ag::Var(Tensor::RandomNormal(Shape({batch, k, n}), rng, 0.0f, 0.5f),
              true)};
  auto fn = [](const std::vector<ag::Var>& in) {
    return ag::SumAll(ag::Tanh(ag::BatchMatMul(in[0], in[1])));
  };
  auto result = ag::GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << result.max_abs_error;
}

TEST_P(MatmulProperty, AssociativityWithIdentity) {
  const auto& [batch, m, k, n] = GetParam();
  (void)n;
  Rng rng(45);
  Tensor a = Tensor::RandomNormal(Shape({batch, m, k}), rng);
  Tensor eye = Tensor::Identity(k);
  EXPECT_TRUE(AllClose(BatchMatMul(a, eye), a, 1e-5f));
}

INSTANTIATE_TEST_SUITE_P(Dims, MatmulProperty,
                         ::testing::Values(MatmulDims(1, 2, 3, 2),
                                           MatmulDims(2, 3, 1, 4),
                                           MatmulDims(3, 1, 5, 1),
                                           MatmulDims(2, 4, 4, 4)));

// ---------------------------------------------------------------------
// Metric axioms across histogram sizes and random distributions.
// ---------------------------------------------------------------------

class MetricProperty : public ::testing::TestWithParam<int> {};

std::vector<float> RandomHistogram(int k, Rng& rng) {
  std::vector<float> h(static_cast<size_t>(k));
  float total = 0;
  for (auto& v : h) {
    v = static_cast<float>(rng.Uniform()) + 1e-3f;
    total += v;
  }
  for (auto& v : h) v /= total;
  return h;
}

TEST_P(MetricProperty, AxiomsHoldForRandomHistograms) {
  const int k = GetParam();
  Rng rng(static_cast<uint64_t>(k) * 101);
  for (int trial = 0; trial < 30; ++trial) {
    auto a = RandomHistogram(k, rng);
    auto b = RandomHistogram(k, rng);
    // Non-negativity and identity.
    EXPECT_GE(JsDivergence(a.data(), b.data(), k), -1e-9);
    EXPECT_GE(EarthMoversDistance(a.data(), b.data(), k), -1e-9);
    EXPECT_NEAR(EarthMoversDistance(a.data(), a.data(), k), 0.0, 1e-9);
    EXPECT_NEAR(JsDivergence(a.data(), a.data(), k), 0.0, 1e-9);
    // Symmetry of JS and EMD.
    EXPECT_NEAR(JsDivergence(a.data(), b.data(), k),
                JsDivergence(b.data(), a.data(), k), 1e-9);
    EXPECT_NEAR(EarthMoversDistance(a.data(), b.data(), k),
                EarthMoversDistance(b.data(), a.data(), k), 1e-9);
    // EMD bounded by (k-1) (max transport distance).
    EXPECT_LE(EarthMoversDistance(a.data(), b.data(), k),
              static_cast<double>(k - 1) + 1e-9);
    // KL finite thanks to smoothing.
    EXPECT_TRUE(std::isfinite(KlDivergence(a.data(), b.data(), k)));
  }
}

INSTANTIATE_TEST_SUITE_P(BucketCounts, MetricProperty,
                         ::testing::Values(2, 3, 5, 7, 12));

// ---------------------------------------------------------------------
// Graph invariants across grid sizes.
// ---------------------------------------------------------------------

using GridDims = std::tuple<int, int>;

class GraphProperty : public ::testing::TestWithParam<GridDims> {};

TEST_P(GraphProperty, LaplacianInvariants) {
  const auto& [rows, cols] = GetParam();
  RegionGraph g = RegionGraph::Grid(rows, cols, 1.0);
  Tensor w = g.ProximityMatrix({.sigma = 1.0, .alpha = 1.5});
  Tensor lap = Laplacian(w);
  const int64_t n = g.size();
  // Row sums zero; symmetry.
  for (int64_t i = 0; i < n; ++i) {
    float row = 0;
    for (int64_t j = 0; j < n; ++j) {
      row += lap.At2(i, j);
      EXPECT_FLOAT_EQ(lap.At2(i, j), lap.At2(j, i));
    }
    EXPECT_NEAR(row, 0.0f, 1e-4f);
  }
  // Scaled Laplacian spectral radius <= 1 (+ tolerance).
  Tensor scaled = ScaledLaplacian(lap);
  EXPECT_LE(std::fabs(PowerIterationMaxEigenvalue(scaled, 200)),
            1.0f + 1e-2f);
}

TEST_P(GraphProperty, CoarseningPreservesTotalEdgeWeightAcrossClusters) {
  const auto& [rows, cols] = GetParam();
  RegionGraph g = RegionGraph::Grid(rows, cols, 1.0);
  Tensor w = g.ProximityMatrix({.sigma = 1.0, .alpha = 1.5});
  CoarseningLevel level = CoarsenOnce(w);
  // Total coarse weight = total fine weight minus intra-cluster weight.
  double fine_total = 0;
  for (int64_t i = 0; i < w.numel(); ++i) fine_total += w[i];
  double intra = 0;
  for (const auto& cluster : level.clusters) {
    for (int64_t a : cluster) {
      for (int64_t b : cluster) intra += w.At2(a, b);
    }
  }
  double coarse_total = 0;
  for (int64_t i = 0; i < level.coarse_w.numel(); ++i) {
    coarse_total += level.coarse_w[i];
  }
  EXPECT_NEAR(coarse_total, fine_total - intra, 1e-3);
}

TEST_P(GraphProperty, ChebConvEquivariantToNodeRelabeling) {
  // Permuting the graph's nodes and the input consistently must permute
  // the output: the convolution has no hidden dependence on node ids.
  const auto& [rows, cols] = GetParam();
  RegionGraph g = RegionGraph::Grid(rows, cols, 1.0);
  const int64_t n = g.size();
  Tensor w = g.ProximityMatrix({.sigma = 1.0, .alpha = 1.5});
  Tensor lap = ScaledLaplacian(Laplacian(w));

  // A reversal permutation.
  std::vector<int64_t> perm(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = n - 1 - i;
  Tensor lap_perm(Shape({n, n}));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      lap_perm.At2(perm[static_cast<size_t>(i)],
                   perm[static_cast<size_t>(j)]) = lap.At2(i, j);
    }
  }
  Rng rng1(7);
  Rng rng2(7);  // identical weights in both layers
  nn::ChebConv conv(lap, 2, 3, 3, rng1);
  nn::ChebConv conv_perm(lap_perm, 2, 3, 3, rng2);

  Rng data_rng(9);
  Tensor x = Tensor::RandomNormal(Shape({1, n, 2}), data_rng);
  Tensor x_perm(Shape({1, n, 2}));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t f = 0; f < 2; ++f) {
      x_perm.At3(0, perm[static_cast<size_t>(i)], f) = x.At3(0, i, f);
    }
  }
  Tensor y = conv.Forward(ag::Var::Constant(x)).value();
  Tensor y_perm = conv_perm.Forward(ag::Var::Constant(x_perm)).value();
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t f = 0; f < 3; ++f) {
      EXPECT_NEAR(y.At3(0, i, f),
                  y_perm.At3(0, perm[static_cast<size_t>(i)], f), 1e-4f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, GraphProperty,
                         ::testing::Values(GridDims(2, 2), GridDims(2, 3),
                                           GridDims(3, 3), GridDims(4, 5)));

// ---------------------------------------------------------------------
// Recovery invariants across factor shapes.
// ---------------------------------------------------------------------

using FactorDims = std::tuple<int, int, int, int, int>;  // b, n, beta, m, k

class RecoveryProperty : public ::testing::TestWithParam<FactorDims> {};

TEST_P(RecoveryProperty, AlwaysProducesHistograms) {
  const auto& [b, n, beta, m, k] = GetParam();
  Rng rng(11);
  Tensor r = Tensor::RandomNormal(Shape({b, n, beta, k}), rng, 0.0f, 2.0f);
  Tensor c = Tensor::RandomNormal(Shape({b, beta, m, k}), rng, 0.0f, 2.0f);
  Tensor rec =
      RecoverFullTensor(ag::Var::Constant(r), ag::Var::Constant(c)).value();
  ASSERT_EQ(rec.shape(), Shape({b, n, m, k}));
  for (int64_t i = 0; i < rec.numel() / k; ++i) {
    float total = 0;
    for (int64_t bk = 0; bk < k; ++bk) {
      EXPECT_GE(rec[i * k + bk], 0.0f);
      total += rec[i * k + bk];
    }
    EXPECT_NEAR(total, 1.0f, 1e-4f);
  }
}

TEST_P(RecoveryProperty, TemperatureSharpens) {
  const auto& [b, n, beta, m, k] = GetParam();
  Rng rng(12);
  Tensor r = Tensor::RandomNormal(Shape({b, n, beta, k}), rng);
  Tensor c = Tensor::RandomNormal(Shape({b, beta, m, k}), rng);
  auto entropy_at = [&](float temperature) {
    Tensor rec = RecoverFullTensorWithTemperature(
                     ag::Var::Constant(r), ag::Var::Constant(c),
                     ag::Var::Constant(Tensor::Scalar(temperature)))
                     .value();
    double entropy = 0;
    for (int64_t i = 0; i < rec.numel(); ++i) {
      entropy -= rec[i] * std::log(rec[i] + 1e-12f);
    }
    return entropy;
  };
  // Higher temperature scale -> sharper (lower-entropy) histograms.
  EXPECT_LT(entropy_at(8.0f), entropy_at(1.0f));
}

INSTANTIATE_TEST_SUITE_P(FactorShapes, RecoveryProperty,
                         ::testing::Values(FactorDims(1, 2, 1, 2, 3),
                                           FactorDims(2, 3, 2, 4, 7),
                                           FactorDims(3, 5, 4, 5, 2),
                                           FactorDims(1, 1, 1, 1, 7)));

// ---------------------------------------------------------------------
// Histogram-spec invariants across bucket configurations.
// ---------------------------------------------------------------------

using HistSpecDims = std::tuple<int, double>;

class HistogramProperty : public ::testing::TestWithParam<HistSpecDims> {};

TEST_P(HistogramProperty, BucketsPartitionTheSpeedAxis) {
  const auto& [k, width] = GetParam();
  SpeedHistogramSpec spec(k, width);
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const double speed = rng.Uniform(0.0, width * (k + 2));
    const int bucket = spec.BucketOf(speed);
    EXPECT_GE(bucket, 0);
    EXPECT_LT(bucket, k);
    if (bucket < k - 1) {
      EXPECT_GE(speed, bucket * width);
      EXPECT_LT(speed, (bucket + 1) * width);
    } else {
      EXPECT_GE(speed, (k - 1) * width - 1e-9);
    }
  }
  // Built histograms always normalize.
  std::vector<double> speeds;
  for (int i = 0; i < 50; ++i) speeds.push_back(rng.Uniform(0, 30));
  auto hist = spec.Build(speeds);
  float total = 0;
  for (float h : hist) total += h;
  EXPECT_NEAR(total, 1.0f, 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Specs, HistogramProperty,
                         ::testing::Values(HistSpecDims(2, 1.0),
                                           HistSpecDims(7, 3.0),
                                           HistSpecDims(10, 2.5),
                                           HistSpecDims(4, 0.5)));

// ---------------------------------------------------------------------
// GraphPool invariants across cluster structures.
// ---------------------------------------------------------------------

class PoolProperty : public ::testing::TestWithParam<int> {};

TEST_P(PoolProperty, AveragePreservesGlobalMeanForEqualClusters) {
  const int cluster_size = GetParam();
  const int64_t n = 4 * cluster_size;
  Rng rng(14);
  Tensor x = Tensor::RandomNormal(Shape({2, n, 3}), rng);
  const auto clusters =
      std::make_shared<const nn::Clusters>(NaiveClusters(n, cluster_size));
  Tensor pooled =
      nn::GraphPool(ag::Var::Constant(x), clusters, nn::PoolKind::kAverage)
          .value();
  // Equal-size clusters: global mean is preserved exactly.
  EXPECT_NEAR(MeanAll(pooled).Item(), MeanAll(x).Item(), 1e-5f);
}

TEST_P(PoolProperty, MaxDominatesAverage) {
  const int cluster_size = GetParam();
  const int64_t n = 4 * cluster_size;
  Rng rng(15);
  Tensor x = Tensor::RandomNormal(Shape({1, n, 2}), rng);
  const auto clusters =
      std::make_shared<const nn::Clusters>(NaiveClusters(n, cluster_size));
  Tensor avg =
      nn::GraphPool(ag::Var::Constant(x), clusters, nn::PoolKind::kAverage)
          .value();
  Tensor max =
      nn::GraphPool(ag::Var::Constant(x), clusters, nn::PoolKind::kMax)
          .value();
  for (int64_t i = 0; i < avg.numel(); ++i) {
    EXPECT_GE(max[i], avg[i] - 1e-6f);
  }
}

INSTANTIATE_TEST_SUITE_P(ClusterSizes, PoolProperty,
                         ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------
// Optimizer convergence across learning rates (convex quadratic).
// ---------------------------------------------------------------------

using OptSetting = std::tuple<const char*, float>;

class OptimizerProperty : public ::testing::TestWithParam<OptSetting> {};

TEST_P(OptimizerProperty, ConvergesOnConvexQuadratic) {
  const auto& [kind, lr] = GetParam();
  Rng rng(21);
  ag::Var x(Tensor::RandomNormal(Shape({4}), rng, 0.0f, 3.0f), true);
  Tensor target = Tensor::RandomNormal(Shape({4}), rng);
  std::unique_ptr<nn::Optimizer> opt;
  if (std::string(kind) == "sgd") {
    opt = std::make_unique<nn::Sgd>(std::vector<ag::Var>{x}, lr);
  } else {
    opt = std::make_unique<nn::Adam>(std::vector<ag::Var>{x}, lr);
  }
  float loss_value = 0;
  for (int it = 0; it < 2500; ++it) {
    opt->ZeroGrad();
    ag::Var loss = ag::SumAll(
        ag::Square(ag::Sub(x, ag::Var::Constant(target))));
    loss.Backward();
    opt->Step();
    loss_value = loss.value().Item();
  }
  EXPECT_LT(loss_value, 1e-2f) << kind << " lr=" << lr;
}

INSTANTIATE_TEST_SUITE_P(Settings, OptimizerProperty,
                         ::testing::Values(OptSetting("sgd", 0.05f),
                                           OptSetting("sgd", 0.2f),
                                           OptSetting("adam", 0.01f),
                                           OptSetting("adam", 0.05f),
                                           OptSetting("adam", 0.2f)));

// ---------------------------------------------------------------------
// Deep-chain autograd: gradients stay correct through long compositions.
// ---------------------------------------------------------------------

class ChainDepthProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChainDepthProperty, GradCheckThroughDeepChain) {
  const int depth = GetParam();
  Rng rng(22);
  std::vector<ag::Var> inputs = {
      ag::Var(Tensor::RandomNormal(Shape({2, 3}), rng, 0.0f, 0.3f), true),
      ag::Var(Tensor::RandomNormal(Shape({3, 3}), rng, 0.0f, 0.3f), true)};
  auto fn = [depth](const std::vector<ag::Var>& in) {
    ag::Var x = in[0];
    for (int d = 0; d < depth; ++d) {
      x = ag::Tanh(ag::MatMul(x, in[1]));  // reuses in[1] at every layer
    }
    return ag::MeanAll(x);
  };
  auto result = ag::GradCheck(fn, inputs, /*eps=*/1e-3, /*tol=*/3e-2);
  EXPECT_TRUE(result.ok) << "depth " << depth << " err "
                         << result.max_abs_error;
}

INSTANTIATE_TEST_SUITE_P(Depths, ChainDepthProperty,
                         ::testing::Values(1, 3, 8, 16));

// ---------------------------------------------------------------------
// Cluster-ordered graph pooling (paper Eq. 6): finite-difference gradients
// through Graclus-produced cluster orderings — the real hierarchies the
// advanced framework pools over, not hand-picked contiguous clusters —
// for both reductions and across stacked levels.
// ---------------------------------------------------------------------

using PoolSetting = std::tuple<int, int, nn::PoolKind>;

class ClusterPoolProperty : public ::testing::TestWithParam<PoolSetting> {};

TEST_P(ClusterPoolProperty, GradCheckThroughGraclusHierarchy) {
  const auto& [rows, cols, kind] = GetParam();
  Rng rng(31);
  RegionGraph g = RegionGraph::Grid(rows, cols, 1.0);
  Tensor w = g.ProximityMatrix({.sigma = 1.0, .alpha = 1.5});
  const auto levels = BuildCoarseningHierarchy(w, 2);
  ASSERT_EQ(levels.size(), 2u);
  const int64_t n = static_cast<int64_t>(rows) * cols;
  std::vector<ag::Var> inputs = {
      ag::Var(Tensor::RandomNormal(Shape({2, n, 3}), rng), true)};
  auto fn = [&](const std::vector<ag::Var>& in) {
    ag::Var pooled = nn::GraphPool(
        in[0], std::make_shared<const nn::Clusters>(levels[0].clusters), kind);
    pooled = nn::GraphPool(
        pooled, std::make_shared<const nn::Clusters>(levels[1].clusters), kind);
    return ag::SumAll(ag::Square(pooled));
  };
  auto result = ag::GradCheck(fn, inputs);
  EXPECT_TRUE(result.ok) << rows << "x" << cols << " err "
                         << result.max_abs_error;
}

INSTANTIATE_TEST_SUITE_P(
    Grids, ClusterPoolProperty,
    ::testing::Values(PoolSetting{2, 2, nn::PoolKind::kAverage},
                      PoolSetting{2, 3, nn::PoolKind::kMax},
                      PoolSetting{3, 3, nn::PoolKind::kAverage},
                      PoolSetting{3, 3, nn::PoolKind::kMax}));

// ---------------------------------------------------------------------
// Softmax temperature monotonicity across bucket counts.
// ---------------------------------------------------------------------

class SoftmaxProperty : public ::testing::TestWithParam<int> {};

TEST_P(SoftmaxProperty, PreservesArgmaxAndOrdering) {
  const int k = GetParam();
  Rng rng(23);
  Tensor logits = Tensor::RandomNormal(Shape({1, k}), rng, 0.0f, 2.0f);
  Tensor probs = SoftmaxLastDim(logits);
  // Softmax is order-preserving.
  for (int64_t i = 0; i < k; ++i) {
    for (int64_t j = 0; j < k; ++j) {
      if (logits[i] < logits[j]) {
        EXPECT_LT(probs[i], probs[j]);
      }
    }
  }
  // Shift invariance.
  Tensor shifted = SoftmaxLastDim(AddScalar(logits, 123.0f));
  EXPECT_TRUE(AllClose(probs, shifted, 1e-5f));
}

INSTANTIATE_TEST_SUITE_P(Ks, SoftmaxProperty, ::testing::Values(2, 3, 7, 16));

}  // namespace
}  // namespace odf
