// Tests of the parallel compute substrate: the GEMM against a naive
// reference over randomized shapes, and thread-count invariance — every
// kernel (and a full training run) must produce the same result for
// ODF_THREADS=1 and ODF_THREADS=4.

#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/advanced_framework.h"
#include "core/trainer.h"
#include "graph/laplacian.h"
#include "nn/optimizer.h"
#include "od/dataset.h"
#include "sim/trip_generator.h"
#include "tensor/csr.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#include "pool_guard.h"

namespace odf {
namespace {

// The GEMM's arithmetic, one element at a time: each output is the sum of
// its products over ascending k from +0 under the pinned contraction
// (ODF_FMADD). Every strip height, lane width and thread split must give
// these bytes exactly.
Tensor NaiveMatMulReference(const Tensor& a, const Tensor& b) {
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  const int64_t n = b.dim(1);
  Tensor out(Shape({m, n}));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc = ODF_FMADD(a.data()[i * k + kk], b.data()[kk * n + j], acc);
      }
      out.data()[i * n + j] = acc;
    }
  }
  return out;
}

bool SameBytes(const Tensor& x, const Tensor& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<size_t>(x.numel()) * sizeof(float)) == 0;
}

TEST(SubstrateGemmTest, RandomizedShapesMatchNaiveReference) {
  PoolGuard guard;
  Rng rng(123);
  // Shapes straddle every regime of the row strips: the n <= 16 pad, the
  // short-A panel split, ragged n % kNR tail panels, several kMC row blocks.
  for (int trial = 0; trial < 40; ++trial) {
    const int64_t m = 1 + rng.UniformInt(130);
    const int64_t k = 1 + rng.UniformInt(300);
    const int64_t n = 1 + rng.UniformInt(130);
    Tensor a = Tensor::RandomNormal(Shape({m, k}), rng);
    Tensor b = Tensor::RandomNormal(Shape({k, n}), rng);
    ThreadPool::Global().Resize(trial % 2 == 0 ? 1 : 4);
    ASSERT_TRUE(SameBytes(MatMul(a, b), NaiveMatMulReference(a, b)))
        << "m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(SubstrateGemmTest, LargeSquareMatchesNaiveReference) {
  PoolGuard guard;
  ThreadPool::Global().Resize(4);
  Rng rng(7);
  Tensor a = Tensor::RandomNormal(Shape({192, 320}), rng);
  Tensor b = Tensor::RandomNormal(Shape({320, 160}), rng);
  EXPECT_TRUE(SameBytes(MatMul(a, b), NaiveMatMulReference(a, b)));
}

// Every product runs through the row strips, and shape alone picks their
// layout: 8-row strips against B padded to 8 lanes for n <= 8, 4-row strips
// against 16 lanes for n <= 16, B's kNR-wide column panels otherwise, with
// only the n % kNR tail panel padded. The small-N strips split their kMC
// (64) row blocks across threads; so does a panel product with more than 16
// rows, while a shorter A splits its panels. Each output element gets the
// bytes of NaiveMatMulReference in every layout, at 1 and 4 threads. A
// rank-2 right operand flattens BatchMatMul into one [batch·m, k] product,
// which lands in another regime than the per-slice MatMul; a rank-3 one runs
// a product per slice. Both must equal the reference of each slice byte for
// byte. Rows put the slice on each side of every edge for every panel width
// a build may use (kNR 16 or 32), and every n <= 8 row stores at a
// compile-time width (4, 7, 8) or a runtime one. The shard unit rows and
// the deep n = 48 one are products a packed kernel once took.
TEST(SubstrateGemmTest, BatchMatMulMatchesPerBatchReference) {
  PoolGuard guard;
  Rng rng(21);
  struct Row {
    const char* regime;
    int64_t m, k, n;
  };
  const Row rows[] = {
      {"n <= 8 strips: n == 1, k == 1, one strip and one row", 9, 1, 1},
      {"n <= 8 strips: n == 3, below one 8-row strip", 7, 13, 3},
      {"n <= 8 strips: n == 4, seven strips, then 4, 2 and 1 rows", 63, 8, 4},
      {"n <= 8 strips: n == 5, m == 1", 1, 21, 5},
      {"n <= 8 strips: n == 7, one row block and one row", 65, 24, 7},
      {"n <= 8 strips: n == 8, B read in place, m == 1", 1, 21, 8},
      {"n <= 8 strips: n == 8, 65 row blocks across threads", 4097, 21, 8},
      {"n == 9: first 16-lane pad", 7, 13, 9},
      {"n == 15: ragged 16-lane pad", 65, 33, 15},
      {"n == 16, k == 1", 63, 1, 16},
      {"n <= 16 strips: m == 1, n == 16, B read in place", 1, 24, 16},
      {"short A below one 4-row strip, one tail panel (kNR 32)", 3, 40, 20},
      {"short A below one 4-row strip, ragged tail panel", 3, 33, 45},
      {"n <= 16 strips: n == 16", 9, 37, 16},
      {"n <= 8 strips: n == 5, one strip and five rows", 13, 20, 5},
      {"n == 17: first panel regime", 10, 23, 17},
      {"short A, two 4-row strips", 8, 31, 40},
      {"short A, one row past the strips", 9, 31, 40},
      {"short A, three 4-row strips", 12, 31, 40},
      {"short A, one row past three strips", 13, 31, 40},
      {"short A: m == 16, its largest", 16, 31, 40},
      {"m == 17: first row-block regime", 17, 31, 40},
      {"short A, n % kNR tail panel", 8, 50, 45},
      {"n <= 16 strips, m == 40", 40, 30, 16},
      {"one row block, n == 17", 40, 30, 17},
      {"n == 32: no tail panel at either width", 40, 30, 32},
      {"n == 33: one-column tail panel at either width", 40, 30, 33},
      {"n == 64: no tail panel at either width", 40, 30, 64},
      {"n == 65: one-column tail panel at either width", 40, 30, 65},
      {"even k", 40, 256, 40},
      {"odd k: one unpaired k step", 40, 257, 40},
      {"ragged n", 40, 70, 50},
      {"m == 2048: 32 row blocks", 2048, 24, 40},
      {"ragged m, two row blocks", 67, 300, 40},
      {"shard unit serving shape", 58, 8, 116},
      {"shard unit serving shape, ragged tail panel", 70, 8, 140},
      {"deep, n == 48", 512, 1024, 48},
  };
  const int64_t batch = 5;
  for (const Row& row : rows) {
    SCOPED_TRACE(row.regime);
    const int64_t m = row.m, k = row.k, n = row.n;
    Tensor a = Tensor::RandomNormal(Shape({batch, m, k}), rng);
    Tensor b3 = Tensor::RandomNormal(Shape({batch, k, n}), rng);
    Tensor w2 = Tensor::RandomNormal(Shape({k, n}), rng);
    std::vector<Tensor> want2, want3;
    for (int64_t bi = 0; bi < batch; ++bi) {
      const Tensor ai = Slice(a, 0, bi, 1).Reshape({m, k});
      const Tensor bi3 = Slice(b3, 0, bi, 1).Reshape({k, n});
      want2.push_back(NaiveMatMulReference(ai, w2));
      want3.push_back(NaiveMatMulReference(ai, bi3));
    }
    for (int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads);
      ThreadPool::Global().Resize(threads);
      const Tensor got2 = BatchMatMul(a, w2);
      const Tensor got3 = BatchMatMul(a, b3);
      for (int64_t bi = 0; bi < batch; ++bi) {
        const Tensor ai = Slice(a, 0, bi, 1).Reshape({m, k});
        const Tensor bi3 = Slice(b3, 0, bi, 1).Reshape({k, n});
        const size_t bytes = static_cast<size_t>(m * n) * sizeof(float);
        const auto slice = static_cast<size_t>(bi);
        EXPECT_EQ(std::memcmp(got2.data() + bi * m * n, want2[slice].data(),
                              bytes),
                  0)
            << "BatchMatMul(a, w2) slice " << bi;
        EXPECT_EQ(std::memcmp(got3.data() + bi * m * n, want3[slice].data(),
                              bytes),
                  0)
            << "BatchMatMul(a, b3) slice " << bi;
        EXPECT_TRUE(SameBytes(MatMul(ai, w2), want2[slice]))
            << "MatMul(a[" << bi << "], w2)";
        EXPECT_TRUE(SameBytes(MatMul(ai, bi3), want3[slice]))
            << "MatMul(a[" << bi << "], b3[" << bi << "])";
      }
    }
  }
}

// Gemm writes C = A·B and never reads C: each entry point gives the same
// bytes into an output pre-filled with NaN as into a zero-filled one, in
// every strip layout (8 lanes, 16 lanes, kNR panels), with a short and a
// tall A.
TEST(SubstrateGemmTest, EntryPointsOverwriteTheirOutput) {
  Rng rng(8);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  struct Dims {
    int64_t m, k, n;
  };
  for (const Dims& d : {Dims{1, 7, 5}, Dims{3, 33, 45}, Dims{9, 37, 16},
                        Dims{12, 31, 40}, Dims{67, 300, 40}}) {
    SCOPED_TRACE(testing::Message()
                 << "m=" << d.m << " k=" << d.k << " n=" << d.n);
    const int64_t batch = 2;
    const Tensor a = Tensor::RandomNormal(Shape({batch, d.m, d.k}), rng);
    const Tensor b3 = Tensor::RandomNormal(Shape({batch, d.k, d.n}), rng);
    const Tensor b = Tensor::RandomNormal(Shape({d.k, d.n}), rng);
    const Tensor a2 = Slice(a, 0, 0, 1).Reshape({d.m, d.k});
    const auto same_bytes = [](const Tensor& x, const Tensor& y) {
      return std::memcmp(x.data(), y.data(),
                         static_cast<size_t>(x.numel()) * sizeof(float)) == 0;
    };

    Tensor raw_zero(Shape({d.m, d.n}));
    Tensor raw_nan = Tensor::Full(Shape({d.m, d.n}), nan);
    GemmRawInto(a2.data(), b.data(), raw_zero.data(), d.m, d.k, d.n);
    GemmRawInto(a2.data(), b.data(), raw_nan.data(), d.m, d.k, d.n);
    EXPECT_TRUE(same_bytes(raw_nan, raw_zero)) << "GemmRawInto";

    Tensor mm_zero(Shape({d.m, d.n}));
    Tensor mm_nan = Tensor::Full(Shape({d.m, d.n}), nan);
    MatMulInto(a2, b, &mm_zero);
    MatMulInto(a2, b, &mm_nan);
    EXPECT_TRUE(same_bytes(mm_nan, mm_zero)) << "MatMulInto";
    EXPECT_TRUE(same_bytes(mm_zero, raw_zero)) << "MatMulInto vs GemmRawInto";

    for (const Tensor* rhs : {&b, &b3}) {
      Tensor bmm_zero(Shape({batch, d.m, d.n}));
      Tensor bmm_nan = Tensor::Full(Shape({batch, d.m, d.n}), nan);
      BatchMatMulInto(a, *rhs, &bmm_zero);
      BatchMatMulInto(a, *rhs, &bmm_nan);
      EXPECT_TRUE(same_bytes(bmm_nan, bmm_zero))
          << "BatchMatMulInto, rank-" << rhs->rank() << " right operand";
    }
  }
}

// Scaled Laplacian of a ring whose nodes also link to their ±4 neighbours:
// a fixed sparse graph (at most 5 nonzeros per row of L̂).
Tensor ChordRingLaplacian(int64_t n) {
  Tensor w(Shape({n, n}));
  for (int64_t i = 0; i < n; ++i) {
    for (const int64_t hop : {int64_t{1}, int64_t{4}}) {
      w.At2(i, (i + hop) % n) = 1.0f;
      w.At2((i + hop) % n, i) = 1.0f;
    }
  }
  return ScaledLaplacian(Laplacian(w));
}

// The substrate's determinism contract: the arithmetic order behind every
// output element depends only on the problem shape, never the thread count,
// so 1-thread and 4-thread runs are bit-identical. One row per kernel. The
// shapes are sized from kMinChunkWork so that every row splits at 4 threads
// (asserted through the pool's chunk counter, so the comparison cannot turn
// into 1 thread against 1 thread) and runs inline at 1 thread.
TEST(SubstrateDeterminismTest, KernelsAreThreadCountInvariant) {
  PoolGuard guard;
  Rng rng(99);
  Tensor a2 = Tensor::RandomNormal(Shape({150, 260}), rng);
  Tensor b2 = Tensor::RandomNormal(Shape({260, 140}), rng);
  Tensor a3 = Tensor::RandomNormal(Shape({12, 40, 24}), rng);
  Tensor b3 = Tensor::RandomNormal(Shape({12, 24, 32}), rng);
  // `big` holds 14 chunks of elementwise work: [8, 64, 64, 7].
  const int64_t big_batch = 14 * kMinChunkWork / (64 * 64 * 7);
  Tensor big = Tensor::RandomNormal(Shape({big_batch, 64, 64, 7}), rng);
  Tensor big_b = Tensor::RandomNormal(big.shape(), rng);

  // Graph operands: four kMC row blocks of the GEMM on the dense path,
  // and a batch wide enough for eight SpMM chunks on the CSR path.
  constexpr int64_t kNodes = 256;
  constexpr int64_t kFeatures = 16;
  const Tensor lap = ChordRingLaplacian(kNodes);
  const auto sparse_op = GraphOperator::Make(lap, /*force_sparse=*/1);
  const auto dense_op = GraphOperator::Make(lap, /*force_sparse=*/0);
  const int64_t row_nnz = sparse_op->csr().nnz() / kNodes;
  const int64_t batch =
      1 + 8 * kMinChunkWork / (kNodes * row_nnz * kFeatures);
  Tensor x = Tensor::RandomNormal(Shape({batch, kNodes, kFeatures}), rng);
  const auto cheb = [&](const GraphOperator& op) {
    Tensor out(Shape({batch, kNodes, 3 * kFeatures}));
    ChebyshevBasisInto(op, x, 3, &out);
    return out;
  };
  const auto apply = [&](const GraphOperator& op) {
    Tensor out(x.shape());
    GraphApplyInto(op, x, &out);
    return out;
  };

  struct Row {
    const char* kernel;
    std::function<Tensor()> run;
  };
  const std::vector<Row> rows = {
      {"MatMul", [&] { return MatMul(a2, b2); }},
      {"BatchMatMul", [&] { return BatchMatMul(a3, b3); }},
      {"Transpose2D", [&] { return Transpose2D(a2); }},
      {"Permute", [&] { return Permute(big, {0, 1, 3, 2}); }},
      {"Sum axis 0", [&] { return Sum(big, 0, /*keepdim=*/false); }},
      {"Sum axis 3", [&] { return Sum(big, 3, /*keepdim=*/false); }},
      {"SoftmaxLastDim", [&] { return SoftmaxLastDim(big); }},
      {"Add", [&] { return Add(big, big_b); }},
      {"Exp", [&] { return Exp(big); }},
      {"SpMM", [&] { return SpMM(sparse_op->csr(), x); }},
      {"ChebyshevBasisInto dense", [&] { return cheb(*dense_op); }},
      {"ChebyshevBasisInto CSR", [&] { return cheb(*sparse_op); }},
      {"GraphApplyInto dense", [&] { return apply(*dense_op); }},
      {"GraphApplyInto CSR", [&] { return apply(*sparse_op); }},
  };

  for (const Row& row : rows) {
    SCOPED_TRACE(row.kernel);
    ThreadPool::Global().Resize(1);
    Tensor serial;
    {
      PoolCounts counts;
      serial = row.run();
      EXPECT_EQ(counts.parallel_fors(), 0u) << "1 thread must run inline";
    }
    ThreadPool::Global().Resize(4);
    PoolCounts counts;
    EXPECT_TRUE(AllClose(row.run(), serial, 0.0f));
    EXPECT_GT(counts.chunks(), 0u) << "4 threads must split";
  }
}

struct AfFixture {
  DatasetSpec spec = MakeNycLike(4, 4, 2, 60);
  OdTensorSeries series;
  ForecastDataset dataset;

  AfFixture()
      : series(BuildSeries()), dataset(&series, 3, 1) {}

  OdTensorSeries BuildSeries() {
    TripGenerator gen(spec.graph, spec.config);
    return BuildOdTensorSeries(gen.Generate(), TimePartition(60, 2), 16, 16,
                               SpeedHistogramSpec::Paper());
  }
};

// One AF training step with 1 thread and with 4 threads, from identical
// initialization, must produce identical losses and parameters.
TEST(SubstrateDeterminismTest, AdvancedFrameworkTrainStepInvariant) {
  PoolGuard guard;
  AfFixture fixture;
  Batch batch = fixture.dataset.MakeBatch({0, 1, 2, 3});

  auto run_step = [&](int threads) {
    ThreadPool::Global().Resize(threads);
    AdvancedFramework model(fixture.spec.graph, fixture.spec.graph, 7, 1, {});
    nn::Adam optimizer(model.Parameters(), 1e-3f);
    Rng rng(5);
    optimizer.ZeroGrad();
    autograd::Var loss = model.Loss(batch, /*train=*/true, rng);
    loss.Backward();
    optimizer.Step();
    std::vector<Tensor> params;
    for (const auto& p : model.Parameters()) params.push_back(p.value());
    return std::make_pair(loss.value().Item(), params);
  };

  auto [loss1, params1] = run_step(1);
  auto [loss4, params4] = run_step(4);
  EXPECT_FLOAT_EQ(loss1, loss4);
  ASSERT_EQ(params1.size(), params4.size());
  for (size_t i = 0; i < params1.size(); ++i) {
    EXPECT_TRUE(AllClose(params1[i], params4[i], 1e-6f)) << "param " << i;
  }
}

// Full (tiny) training runs — including the parallel validation evaluation —
// must agree across thread counts, and the forecasts they produce must match.
TEST(SubstrateDeterminismTest, TrainForecasterInvariant) {
  PoolGuard guard;
  AfFixture fixture;
  ForecastDataset::Split split = fixture.dataset.ChronologicalSplit(0.5, 0.2);
  TrainConfig config;
  config.epochs = 2;
  config.batch_size = 4;
  config.seed = 11;
  Batch test_batch = fixture.dataset.MakeBatch(split.test);

  auto run = [&](int threads) {
    ThreadPool::Global().Resize(threads);
    AdvancedFramework model(fixture.spec.graph, fixture.spec.graph, 7, 1, {});
    TrainResult result =
        TrainForecaster(model, fixture.dataset, split, config);
    return std::make_pair(result, model.Predict(test_batch));
  };

  auto [res1, pred1] = run(1);
  auto [res4, pred4] = run(4);
  ASSERT_EQ(res1.train_losses.size(), res4.train_losses.size());
  for (size_t e = 0; e < res1.train_losses.size(); ++e) {
    EXPECT_FLOAT_EQ(res1.train_losses[e], res4.train_losses[e]);
    EXPECT_FLOAT_EQ(res1.validation_losses[e], res4.validation_losses[e]);
  }
  ASSERT_EQ(pred1.size(), pred4.size());
  for (size_t h = 0; h < pred1.size(); ++h) {
    EXPECT_TRUE(AllClose(pred1[h], pred4[h], 1e-5f)) << "horizon " << h;
  }
}

}  // namespace
}  // namespace odf
