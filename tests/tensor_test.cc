#include "tensor/tensor.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "pool_guard.h"
#include "tensor/fast_math.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace odf {
namespace {

TEST(ShapeTest, BasicProperties) {
  Shape s({3, 4, 7});
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.numel(), 84);
  EXPECT_EQ(s.dim(0), 3);
  EXPECT_EQ(s.dim(-1), 7);
  EXPECT_EQ(s.ToString(), "[3, 4, 7]");
  const auto strides = s.Strides();
  EXPECT_EQ(strides[0], 28);
  EXPECT_EQ(strides[1], 7);
  EXPECT_EQ(strides[2], 1);
}

TEST(ShapeTest, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t(Shape({2, 3}));
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FullAndIdentity) {
  Tensor f = Tensor::Full(Shape({2, 2}), 3.5f);
  EXPECT_EQ(f.At2(1, 1), 3.5f);
  Tensor id = Tensor::Identity(3);
  EXPECT_EQ(id.At2(0, 0), 1.0f);
  EXPECT_EQ(id.At2(0, 1), 0.0f);
  EXPECT_EQ(SumAll(id).Item(), 3.0f);
}

TEST(TensorTest, MultiIndexAccess) {
  Tensor t(Shape({2, 3, 4}));
  t.At({1, 2, 3}) = 42.0f;
  EXPECT_EQ(t.At3(1, 2, 3), 42.0f);
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 42.0f);
}

TEST(TensorTest, ReshapeInferred) {
  Tensor t = Tensor::Arange(12);
  Tensor r = t.Reshape({3, -1});
  EXPECT_EQ(r.shape(), Shape({3, 4}));
  EXPECT_EQ(r.At2(2, 3), 11.0f);
  EXPECT_EQ(r.Flatten().shape(), Shape({12}));
}

TEST(TensorTest, RandomReproducible) {
  Rng rng1(7);
  Rng rng2(7);
  Tensor a = Tensor::RandomNormal(Shape({32}), rng1);
  Tensor b = Tensor::RandomNormal(Shape({32}), rng2);
  EXPECT_TRUE(AllClose(a, b, 0.0f));
}

TEST(TensorTest, GlorotUniformWithinBounds) {
  Rng rng(3);
  Tensor w = Tensor::GlorotUniform(Shape({10, 20}), rng);
  const float limit = std::sqrt(6.0f / 30.0f);
  EXPECT_LE(MaxValue(w), limit);
  EXPECT_GE(MinValue(w), -limit);
}

TEST(TensorOpsTest, AddSameShape) {
  Tensor a = Tensor::Arange(4);
  Tensor b = Tensor::Full(Shape({4}), 1.0f);
  Tensor c = Add(a, b);
  EXPECT_EQ(c[0], 1.0f);
  EXPECT_EQ(c[3], 4.0f);
}

TEST(TensorOpsTest, BroadcastAddBias) {
  // [2,3] + [3] row-bias broadcast.
  Tensor a = Tensor::Arange(6).Reshape({2, 3});
  Tensor bias(Shape({3}), {10.0f, 20.0f, 30.0f});
  Tensor c = Add(a, bias);
  EXPECT_EQ(c.At2(0, 0), 10.0f);
  EXPECT_EQ(c.At2(1, 2), 35.0f);
}

TEST(TensorOpsTest, BroadcastOuter) {
  // [2,1] * [1,3] -> [2,3].
  Tensor a(Shape({2, 1}), {2.0f, 3.0f});
  Tensor b(Shape({1, 3}), {1.0f, 10.0f, 100.0f});
  Tensor c = Mul(a, b);
  EXPECT_EQ(c.shape(), Shape({2, 3}));
  EXPECT_EQ(c.At2(0, 1), 20.0f);
  EXPECT_EQ(c.At2(1, 2), 300.0f);
}

// A rank-1 operand spanning the last axis takes the row-bias path (rows
// narrower than 16 floats pair a's flat spans with the bias repeated over
// whole rows); the same operand reshaped to [1, 1, F] takes the general
// odometer. Both must give the same bytes, through the facades, the Into
// kernels and in place, at 1 and 4 threads. The row counts are prime, so
// no repeated tile divides them, and the larger ones split across the pool.
TEST(TensorTest, RowBiasBroadcastMatchesGeneralBroadcast) {
  PoolGuard guard;
  struct Case {
    int64_t batch, n, f;
  };
  std::vector<Case> cases = {{0, 3, 4}, {1, 3, 5}, {16, 64, 33}};
  for (const int64_t f : {1, 2, 4, 7, 8, 15, 16, 17}) {
    cases.push_back({1, 2503, f});
    cases.push_back({7, 1429, f});
  }
  using Facade = Tensor (*)(const Tensor&, const Tensor&);
  using Into = void (*)(const Tensor&, const Tensor&, Tensor*);
  const std::pair<Facade, Into> ops[] = {
      {Add, AddInto}, {Sub, SubInto}, {Mul, MulInto}};
  auto same_bytes = [](const Tensor& x, const Tensor& y) {
    return x.shape() == y.shape() &&
           (x.numel() == 0 ||
            std::memcmp(x.data(), y.data(),
                        static_cast<size_t>(x.numel()) * sizeof(float)) == 0);
  };
  Rng rng(41);
  for (const Case& cs : cases) {
    SCOPED_TRACE(::testing::Message() << "B=" << cs.batch << " n=" << cs.n
                                      << " F=" << cs.f);
    const Tensor a = Tensor::RandomNormal(Shape({cs.batch, cs.n, cs.f}), rng);
    const Tensor row = Tensor::RandomNormal(Shape({cs.f}), rng);
    const Tensor general = row.Reshape({1, 1, cs.f});
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      ThreadPool::Global().Resize(threads);
      for (const auto& [facade, into] : ops) {
        const Tensor want = facade(a, general);
        EXPECT_TRUE(same_bytes(facade(a, row), want));
        Tensor out(a.shape());
        into(a, row, &out);
        EXPECT_TRUE(same_bytes(out, want));
        Tensor in_place = a;
        into(in_place, row, &in_place);
        EXPECT_TRUE(same_bytes(in_place, want));
      }
    }
  }
}

TEST(TensorOpsTest, BroadcastShapeChecks) {
  EXPECT_EQ(BroadcastShape(Shape({2, 1, 4}), Shape({3, 1})),
            Shape({2, 3, 4}));
  EXPECT_TRUE(IsBroadcastableTo(Shape({1, 4}), Shape({5, 4})));
  EXPECT_FALSE(IsBroadcastableTo(Shape({2, 4}), Shape({5, 4})));
}

TEST(TensorOpsTest, ReduceToShapeSumsBroadcastDims) {
  Tensor g = Tensor::Ones(Shape({5, 4}));
  Tensor reduced = ReduceToShape(g, Shape({4}));
  EXPECT_EQ(reduced.shape(), Shape({4}));
  EXPECT_EQ(reduced[0], 5.0f);
  Tensor keep = ReduceToShape(g, Shape({5, 1}));
  EXPECT_EQ(keep.shape(), Shape({5, 1}));
  EXPECT_EQ(keep[0], 4.0f);
}

TEST(TensorOpsTest, MatMulKnownResult) {
  Tensor a(Shape({2, 3}), {1, 2, 3, 4, 5, 6});
  Tensor b(Shape({3, 2}), {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.At2(0, 0), 58.0f);
  EXPECT_EQ(c.At2(0, 1), 64.0f);
  EXPECT_EQ(c.At2(1, 0), 139.0f);
  EXPECT_EQ(c.At2(1, 1), 154.0f);
}

TEST(TensorOpsTest, BatchMatMulMatchesLoopedMatMul) {
  Rng rng(11);
  Tensor a = Tensor::RandomNormal(Shape({4, 3, 5}), rng);
  Tensor b = Tensor::RandomNormal(Shape({4, 5, 2}), rng);
  Tensor c = BatchMatMul(a, b);
  EXPECT_EQ(c.shape(), Shape({4, 3, 2}));
  for (int64_t i = 0; i < 4; ++i) {
    Tensor ai = Slice(a, 0, i, 1).Reshape({3, 5});
    Tensor bi = Slice(b, 0, i, 1).Reshape({5, 2});
    Tensor ci = Slice(c, 0, i, 1).Reshape({3, 2});
    EXPECT_TRUE(AllClose(ci, MatMul(ai, bi), 1e-5f));
  }
}

TEST(TensorOpsTest, BatchMatMulBroadcastLhs) {
  Rng rng(12);
  Tensor a = Tensor::RandomNormal(Shape({3, 5}), rng);
  Tensor b = Tensor::RandomNormal(Shape({4, 5, 2}), rng);
  Tensor c = BatchMatMul(a, b);
  EXPECT_EQ(c.shape(), Shape({4, 3, 2}));
  Tensor b0 = Slice(b, 0, 0, 1).Reshape({5, 2});
  Tensor c0 = Slice(c, 0, 0, 1).Reshape({3, 2});
  EXPECT_TRUE(AllClose(c0, MatMul(a, b0), 1e-5f));
}

TEST(TensorOpsTest, TransposeRoundTrip) {
  Rng rng(5);
  Tensor a = Tensor::RandomNormal(Shape({3, 7}), rng);
  EXPECT_TRUE(AllClose(Transpose2D(Transpose2D(a)), a, 0.0f));
}

TEST(TensorOpsTest, PermuteMatchesManual) {
  Tensor a = Tensor::Arange(24).Reshape({2, 3, 4});
  Tensor p = Permute(a, {2, 0, 1});
  EXPECT_EQ(p.shape(), Shape({4, 2, 3}));
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      for (int64_t k = 0; k < 4; ++k) {
        EXPECT_EQ(p.At3(k, i, j), a.At3(i, j, k));
      }
    }
  }
}

// The middle-axis swap (0,2,1,3) ahead of a contiguous tail of K floats
// runs as a batch of tiled transposes of K-float chunks (a compile-time copy
// at K 4, 7 and 8). Each output element must be its source element, byte
// for byte, at 1 and 4 threads; 37 rows cross the 32-element tile.
TEST(TensorOpsTest, PermuteMiddleSwapMatchesReference) {
  PoolGuard guard;
  Rng rng(43);
  const int64_t batch = 150, rows = 37, cols = 5;
  for (const int64_t k : {1, 4, 7, 8, 9}) {
    SCOPED_TRACE(::testing::Message() << "K=" << k);
    const Tensor a =
        Tensor::RandomNormal(Shape({batch, rows, cols, k}), rng);
    Tensor want(Shape({batch, cols, rows, k}));
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = 0; j < cols; ++j) {
          for (int64_t c = 0; c < k; ++c) {
            want[((b * cols + j) * rows + i) * k + c] =
                a[((b * rows + i) * cols + j) * k + c];
          }
        }
      }
    }
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads);
      ThreadPool::Global().Resize(threads);
      Tensor got = Tensor::Full(want.shape(), std::nanf(""));
      PermuteInto(a, {0, 2, 1, 3}, &got);
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            static_cast<size_t>(want.numel()) * sizeof(float)),
                0);
    }
  }
}

TEST(TensorOpsTest, ConcatAxis0And1) {
  Tensor a = Tensor::Full(Shape({2, 2}), 1.0f);
  Tensor b = Tensor::Full(Shape({1, 2}), 2.0f);
  Tensor c = Concat({a, b}, 0);
  EXPECT_EQ(c.shape(), Shape({3, 2}));
  EXPECT_EQ(c.At2(2, 0), 2.0f);

  Tensor d = Tensor::Full(Shape({2, 3}), 3.0f);
  Tensor e = Concat({a, d}, 1);
  EXPECT_EQ(e.shape(), Shape({2, 5}));
  EXPECT_EQ(e.At2(0, 1), 1.0f);
  EXPECT_EQ(e.At2(0, 4), 3.0f);
}

TEST(TensorOpsTest, SliceMiddleAxis) {
  Tensor a = Tensor::Arange(24).Reshape({2, 3, 4});
  Tensor s = Slice(a, 1, 1, 2);
  EXPECT_EQ(s.shape(), Shape({2, 2, 4}));
  EXPECT_EQ(s.At3(0, 0, 0), a.At3(0, 1, 0));
  EXPECT_EQ(s.At3(1, 1, 3), a.At3(1, 2, 3));
}

TEST(TensorOpsTest, SliceConcatRoundTrip) {
  Rng rng(9);
  Tensor a = Tensor::RandomNormal(Shape({3, 5, 2}), rng);
  Tensor left = Slice(a, 1, 0, 2);
  Tensor right = Slice(a, 1, 2, 3);
  EXPECT_TRUE(AllClose(Concat({left, right}, 1), a, 0.0f));
}

TEST(TensorOpsTest, SumAlongAxes) {
  Tensor a = Tensor::Arange(6).Reshape({2, 3});
  Tensor s0 = Sum(a, 0, false);
  EXPECT_EQ(s0.shape(), Shape({3}));
  EXPECT_EQ(s0[0], 3.0f);
  EXPECT_EQ(s0[2], 7.0f);
  Tensor s1 = Sum(a, 1, true);
  EXPECT_EQ(s1.shape(), Shape({2, 1}));
  EXPECT_EQ(s1[0], 3.0f);
  EXPECT_EQ(s1[1], 12.0f);
  EXPECT_EQ(SumAll(a).Item(), 15.0f);
  EXPECT_FLOAT_EQ(MeanAll(a).Item(), 2.5f);
}

TEST(TensorOpsTest, SoftmaxRowsSumToOne) {
  Rng rng(1);
  Tensor a = Tensor::RandomNormal(Shape({5, 7}), rng, 0.0f, 3.0f);
  Tensor s = SoftmaxLastDim(a);
  for (int64_t r = 0; r < 5; ++r) {
    float total = 0;
    for (int64_t c = 0; c < 7; ++c) {
      EXPECT_GT(s.At2(r, c), 0.0f);
      total += s.At2(r, c);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(TensorOpsTest, SoftmaxNumericallyStableForLargeInputs) {
  Tensor a(Shape({1, 3}), {1000.0f, 1000.0f, 1000.0f});
  Tensor s = SoftmaxLastDim(a);
  for (int64_t i = 0; i < 3; ++i) EXPECT_NEAR(s[i], 1.0f / 3.0f, 1e-6f);
}

TEST(TensorOpsTest, UnaryOps) {
  Tensor a(Shape({3}), {-1.0f, 0.0f, 2.0f});
  EXPECT_EQ(Relu(a)[0], 0.0f);
  EXPECT_EQ(Relu(a)[2], 2.0f);
  EXPECT_NEAR(Sigmoid(a)[1], 0.5f, 1e-6f);
  EXPECT_NEAR(Tanh(a)[2], std::tanh(2.0f), 1e-6f);
  EXPECT_EQ(Neg(a)[2], -2.0f);
}

TEST(TensorOpsTest, SquaredNormAndMinMax) {
  Tensor a(Shape({3}), {1.0f, -2.0f, 2.0f});
  EXPECT_FLOAT_EQ(SquaredNorm(a), 9.0f);
  EXPECT_FLOAT_EQ(MaxValue(a), 2.0f);
  EXPECT_FLOAT_EQ(MinValue(a), -2.0f);
}

// Both arguments must be positive normal floats (true for exp results over
// the sweep range), so ULP distance is plain bit-pattern distance.
int64_t UlpDistance(float a, float b) {
  const int64_t ia = std::bit_cast<int32_t>(a);
  const int64_t ib = std::bit_cast<int32_t>(b);
  return ia > ib ? ia - ib : ib - ia;
}

TEST(FastMathTest, ExpWithinUlpBoundOfStdExp) {
  // Dense sweep of the non-saturating range plus random draws; the kernel
  // documents a max-ULP contract against libm.
  int64_t worst = 0;
  for (float x = -87.0f; x <= 88.0f; x += 1.0f / 128.0f) {
    const float got = FastExp(x);
    const float want = std::exp(x);
    const int64_t ulp = UlpDistance(got, want);
    ASSERT_LE(ulp, kFastExpMaxUlp) << "x=" << x << " got " << got << " want "
                                   << want;
    worst = std::max(worst, ulp);
  }
  Rng rng(31);
  for (int i = 0; i < 20000; ++i) {
    const float x = static_cast<float>(rng.Uniform(-87.0, 88.0));
    ASSERT_LE(UlpDistance(FastExp(x), std::exp(x)), kFastExpMaxUlp)
        << "x=" << x;
  }
  EXPECT_GT(worst, 0);  // the sweep actually exercised inexact cases
}

TEST(FastMathTest, ExpSaturationAndSpecialValues) {
  EXPECT_EQ(FastExp(0.0f), 1.0f);
  EXPECT_EQ(FastExp(89.0f), std::numeric_limits<float>::infinity());
  EXPECT_EQ(FastExp(1000.0f), std::numeric_limits<float>::infinity());
  EXPECT_EQ(FastExp(-88.0f), 0.0f);
  EXPECT_EQ(FastExp(-std::numeric_limits<float>::infinity()), 0.0f);
  EXPECT_TRUE(std::isnan(FastExp(std::nanf(""))));
}

TEST(FastMathTest, SigmoidAndTanhMatchLibm) {
  for (float x = -12.0f; x <= 12.0f; x += 1.0f / 64.0f) {
    EXPECT_NEAR(FastSigmoid(x), 1.0f / (1.0f + std::exp(-x)), 2e-7f)
        << "x=" << x;
    EXPECT_NEAR(FastTanh(x), std::tanh(x), 4e-7f) << "x=" << x;
  }
  EXPECT_EQ(FastTanh(0.0f), 0.0f);
  EXPECT_EQ(FastTanh(20.0f), 1.0f);
  EXPECT_EQ(FastTanh(-20.0f), -1.0f);
  EXPECT_TRUE(std::isnan(FastTanh(std::nanf(""))));
}

}  // namespace
}  // namespace odf
