// Micro-benchmarks of the neural substrate.
//
// A machine-readable sweep of the parallel compute substrate
// (GEMM, batched GEMM, elementwise kernels, softmax, ChebConv) over
// thread counts, written to BENCH_substrate.json (override the path with
// ODF_BENCH_JSON), followed by a sparse-vs-dense graph sweep (CSR SpMM and
// ChebConv forward on α-thresholded graphs at ~5/20/50% density) written to
// BENCH_graph.json (override with ODF_BENCH_GRAPH_JSON). These track the
// perf trajectory across PRs: per-kernel best wall time, GFLOP/s, parallel
// speedup, the GEMM-vs-naive ratio (JSON key gemm512_blocked_1t_vs_naive,
// named for the packed kernel the GEMM used to have), and the
// sparse-over-dense speedup per graph density.
//
// --trace[=path] captures every benchmarked kernel as a Chrome-trace span
// set (load the file in chrome://tracing or ui.perfetto.dev).

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "graph/laplacian.h"
#include "graph/region_graph.h"
#include "nn/cheb_conv.h"
#include "tensor/tensor_ops.h"
#include "util/env_config.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace odf {
namespace {

namespace ag = odf::autograd;

// ---------------------------------------------------------------------------
// Substrate sweep
// ---------------------------------------------------------------------------

struct SweepResult {
  std::string kernel;
  std::string shape;
  int threads = 1;
  double best_seconds = 0;
  double gflops = 0;  // 0 when a flop count is meaningless for the kernel
};

// Keeps a benchmarked result observable so the call is not optimized away.
template <typename T>
void Sink(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

// Times `fn` (excluding setup): one warmup call, then repetitions until
// ~0.3 s of accumulated runtime (at least 3), keeping the fastest.
template <typename Fn>
double BestSeconds(const Fn& fn) {
  fn();  // warmup
  double best = 1e30;
  double total = 0;
  int reps = 0;
  while (reps < 3 || total < 0.3) {
    Stopwatch watch;
    fn();
    const double s = watch.ElapsedSeconds();
    best = std::min(best, s);
    total += s;
    ++reps;
    if (reps >= 50) break;
  }
  return best;
}

// The seed's single-threaded i-k-j triple loop, kept as the reference the
// GEMM is measured against.
Tensor NaiveMatMulReference(const Tensor& a, const Tensor& b) {
  const int64_t m = a.dim(0);
  const int64_t k = a.dim(1);
  const int64_t n = b.dim(1);
  Tensor out(Shape({m, n}));
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  for (int64_t i = 0; i < m; ++i) {
    float* orow = po + i * n;
    const float* arow = pa + i * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = pb + kk * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

Tensor SweepLaplacian(int rows, int cols) {
  RegionGraph g = RegionGraph::Grid(rows, cols, 1.0);
  return ScaledLaplacian(Laplacian(g.ProximityMatrix({1.0, 1.5})));
}

const char* SimdName() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#else
  return "sse2";
#endif
}

std::vector<int> SweepThreadCounts() {
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> counts = {1, 2, 4};
  if (std::find(counts.begin(), counts.end(), hw) == counts.end()) {
    counts.push_back(hw);
  }
  std::sort(counts.begin(), counts.end());
  return counts;
}

int RunSubstrateSweep() {
  const std::vector<int> thread_counts = SweepThreadCounts();
  const int64_t restore_threads = ThreadPool::Global().threads();
  std::vector<SweepResult> results;
  Rng rng(42);

  auto record = [&](const std::string& kernel, const std::string& shape,
                    int threads, double seconds, double flops) {
    results.push_back(
        {kernel, shape, threads, seconds, flops > 0 ? flops / seconds / 1e9 : 0});
    std::fprintf(stderr, "%-14s %-16s t=%-2d  %8.3f ms  %7.2f GF/s\n",
                 kernel.c_str(), shape.c_str(), threads, seconds * 1e3,
                 flops > 0 ? flops / seconds / 1e9 : 0.0);
  };

  // -- GEMM sizes, naive reference first (single-threaded by construction).
  const std::vector<int64_t> gemm_sizes = {128, 256, 512};
  for (int64_t n : gemm_sizes) {
    Tensor a = Tensor::RandomNormal(Shape({n, n}), rng);
    Tensor b = Tensor::RandomNormal(Shape({n, n}), rng);
    const double flops = 2.0 * static_cast<double>(n) * n * n;
    const std::string shape = std::to_string(n) + "x" + std::to_string(n) +
                              "x" + std::to_string(n);
    record("gemm_naive", shape, 1,
           BestSeconds([&] { Sink(NaiveMatMulReference(a, b)); }), flops);
    for (int t : thread_counts) {
      ThreadPool::Global().Resize(t);
      record("gemm", shape, t, BestSeconds([&] { Sink(MatMul(a, b)); }),
             flops);
    }
  }

  // -- Batched GEMM: many mid-sized matrices.
  {
    const int64_t batch = 32;
    const int64_t n = 64;
    Tensor a = Tensor::RandomNormal(Shape({batch, n, n}), rng);
    Tensor b = Tensor::RandomNormal(Shape({batch, n, n}), rng);
    const double flops = 2.0 * static_cast<double>(batch) * n * n * n;
    for (int t : thread_counts) {
      ThreadPool::Global().Resize(t);
      record("batch_matmul", "32x(64x64x64)", t,
             BestSeconds([&] { Sink(BatchMatMul(a, b)); }),
             flops);
    }
  }

  // -- Elementwise binary + unary on a large flat tensor.
  {
    const int64_t n = 1 << 22;
    Tensor a = Tensor::RandomNormal(Shape({n}), rng);
    Tensor b = Tensor::RandomNormal(Shape({n}), rng);
    for (int t : thread_counts) {
      ThreadPool::Global().Resize(t);
      record("add", "4M", t, BestSeconds([&] { Sink(Add(a, b)); }),
             static_cast<double>(n));
      record("exp", "4M", t, BestSeconds([&] { Sink(Exp(a)); }),
             static_cast<double>(n));
    }
  }

  // -- Softmax over the recovery layout [B, N, N', K].
  {
    Tensor a = Tensor::RandomNormal(Shape({64, 16, 16, 7}), rng);
    for (int t : thread_counts) {
      ThreadPool::Global().Resize(t);
      record("softmax", "64x16x16x7", t,
             BestSeconds([&] { Sink(SoftmaxLastDim(a)); }), 0);
    }
  }

  // -- ChebConv forward: the AF hot path (graph conv over batched windows).
  {
    nn::ChebConv conv(SweepLaplacian(8, 8), 7, 16, 3, rng);
    Tensor x = Tensor::RandomNormal(Shape({64, 64, 7}), rng);
    for (int t : thread_counts) {
      ThreadPool::Global().Resize(t);
      record("chebconv_fwd", "b64_n64_f7->16", t, BestSeconds([&] {
               Sink(conv.Forward(ag::Var::Constant(x)).value());
             }),
             0);
    }
  }

  ThreadPool::Global().Resize(static_cast<int>(restore_threads));

  // -- Derived acceptance numbers.
  auto find = [&](const std::string& kernel, const std::string& shape,
                  int threads) -> const SweepResult* {
    for (const auto& r : results) {
      if (r.kernel == kernel && r.shape == shape && r.threads == threads) {
        return &r;
      }
    }
    return nullptr;
  };
  const SweepResult* g1 = find("gemm", "512x512x512", 1);
  const SweepResult* g4 = find("gemm", "512x512x512", 4);
  const SweepResult* gn = find("gemm_naive", "512x512x512", 1);
  const double speedup_4t = g1 && g4 ? g1->best_seconds / g4->best_seconds : 0;
  const double gemm_vs_naive =
      g1 && gn ? gn->best_seconds / g1->best_seconds : 0;

  const std::string path =
      GetEnvString("ODF_BENCH_JSON", "BENCH_substrate.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"substrate\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"simd\": \"%s\",\n", SimdName());
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"shape\": \"%s\", \"threads\": "
                 "%d, \"best_seconds\": %.6f, \"gflops\": %.3f}%s\n",
                 r.kernel.c_str(), r.shape.c_str(), r.threads, r.best_seconds,
                 r.gflops, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"derived\": {\n");
  std::fprintf(f, "    \"gemm512_speedup_4t_vs_1t\": %.3f,\n", speedup_4t);
  std::fprintf(f, "    \"gemm512_blocked_1t_vs_naive\": %.3f\n",
               gemm_vs_naive);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr,
               "wrote %s (gemm512: %.2fx @4t vs 1t, 1t %.2fx naive)\n",
               path.c_str(), speedup_4t, gemm_vs_naive);
  return 0;
}

// ---------------------------------------------------------------------------
// Sparse-vs-dense graph sweep
// ---------------------------------------------------------------------------

// Scaled Laplacian of a random symmetric graph where each edge survives an
// α-threshold with probability `edge_prob` (so L̂'s density is roughly
// edge_prob plus the 1/n diagonal).
Tensor RandomThresholdedLaplacian(int64_t n, double edge_prob, Rng& rng) {
  Tensor w(Shape({n, n}));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(edge_prob)) {
        const float v = 0.05f + static_cast<float>(rng.Uniform());
        w.At2(i, j) = v;
        w.At2(j, i) = v;
      }
    }
  }
  return ScaledLaplacian(Laplacian(w));
}

struct GraphSweepResult {
  std::string kernel;  // "spmm" | "chebconv_fwd"
  std::string path;    // "sparse" | "dense"
  int64_t n = 0;
  double density = 0;
  int threads = 1;
  double best_seconds = 0;
  double gflops = 0;
};

int RunGraphSweep() {
  const std::vector<int> thread_counts = {1, 4};
  const int64_t restore_threads = ThreadPool::Global().threads();
  Rng rng(42);

  // Shapes sized so the graph recurrence dominates: wide-enough features to
  // fill the SpMM register tile, a small output head.
  const int64_t batch = 8;
  const int64_t f_in = 32;
  const int64_t f_out = 16;
  const int64_t order = 4;

  std::vector<GraphSweepResult> results;
  auto record = [&](const std::string& kernel, const std::string& path,
                    int64_t n, double density, int threads, double seconds,
                    double flops) {
    results.push_back({kernel, path, n, density, threads, seconds,
                       flops > 0 ? flops / seconds / 1e9 : 0});
    std::fprintf(stderr, "%-13s %-6s n=%-4lld d=%4.1f%% t=%-2d %8.3f ms  %7.2f GF/s\n",
                 kernel.c_str(), path.c_str(), static_cast<long long>(n),
                 density * 100.0, threads, seconds * 1e3,
                 flops > 0 ? flops / seconds / 1e9 : 0.0);
  };

  for (const int64_t n : {int64_t{128}, int64_t{256}}) {
    for (const double edge_prob : {0.05, 0.20, 0.50}) {
      const Tensor lap = RandomThresholdedLaplacian(n, edge_prob, rng);
      const auto sparse_op = GraphOperator::Make(lap, /*force_sparse=*/1);
      const auto dense_op = GraphOperator::Make(lap, /*force_sparse=*/0);
      const double density = sparse_op->density();
      const Tensor x = Tensor::RandomNormal(Shape({batch, n, f_in}), rng);
      const double spmm_sparse_flops =
          2.0 * static_cast<double>(sparse_op->csr().nnz()) * f_in * batch;
      const double spmm_dense_flops =
          2.0 * static_cast<double>(n) * n * f_in * batch;

      // Parameter draws are shared so both convolutions are the same layer.
      Rng sparse_rng(7);
      Rng dense_rng(7);
      const nn::ChebConv conv_sparse(sparse_op, f_in, f_out, order,
                                     sparse_rng);
      const nn::ChebConv conv_dense(dense_op, f_in, f_out, order, dense_rng);

      for (const int t : thread_counts) {
        ThreadPool::Global().Resize(t);
        record("spmm", "sparse", n, density, t, BestSeconds([&] {
                 Sink(SpMM(sparse_op->csr(), x));
               }),
               spmm_sparse_flops);
        record("spmm", "dense", n, density, t, BestSeconds([&] {
                 Sink(BatchMatMul(lap, x));
               }),
               spmm_dense_flops);
        record("chebconv_fwd", "sparse", n, density, t, BestSeconds([&] {
                 Sink(conv_sparse.Forward(ag::Var::Constant(x)).value());
               }),
               0);
        record("chebconv_fwd", "dense", n, density, t, BestSeconds([&] {
                 Sink(conv_dense.Forward(ag::Var::Constant(x)).value());
               }),
               0);
      }
    }
  }
  ThreadPool::Global().Resize(static_cast<int>(restore_threads));

  // Derived single-thread sparse-over-dense speedups per (n, density).
  auto best = [&](const std::string& kernel, const std::string& path,
                  int64_t n, double density) {
    for (const auto& r : results) {
      if (r.kernel == kernel && r.path == path && r.n == n &&
          r.density == density && r.threads == 1) {
        return r.best_seconds;
      }
    }
    return 0.0;
  };

  const std::string path =
      GetEnvString("ODF_BENCH_GRAPH_JSON", "BENCH_graph.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"graph\",\n");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"simd\": \"%s\",\n", SimdName());
  std::fprintf(f,
               "  \"shapes\": {\"batch\": %lld, \"f_in\": %lld, \"f_out\": "
               "%lld, \"order\": %lld},\n",
               static_cast<long long>(batch), static_cast<long long>(f_in),
               static_cast<long long>(f_out), static_cast<long long>(order));
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"path\": \"%s\", \"n\": %lld, "
                 "\"density\": %.4f, \"threads\": %d, \"best_seconds\": "
                 "%.6f, \"gflops\": %.3f}%s\n",
                 r.kernel.c_str(), r.path.c_str(),
                 static_cast<long long>(r.n), r.density, r.threads,
                 r.best_seconds, r.gflops, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"derived\": [\n");
  bool first = true;
  for (const int64_t n : {int64_t{128}, int64_t{256}}) {
    for (const auto& r : results) {
      if (r.kernel != "spmm" || r.path != "sparse" || r.n != n ||
          r.threads != 1) {
        continue;
      }
      const double d = r.density;
      const double spmm_speedup =
          best("spmm", "dense", n, d) / best("spmm", "sparse", n, d);
      const double cheb_speedup = best("chebconv_fwd", "dense", n, d) /
                                  best("chebconv_fwd", "sparse", n, d);
      std::fprintf(f,
                   "%s    {\"n\": %lld, \"density\": %.4f, "
                   "\"spmm_sparse_speedup_1t\": %.3f, "
                   "\"chebconv_sparse_speedup_1t\": %.3f}",
                   first ? "" : ",\n", static_cast<long long>(n), d,
                   spmm_speedup, cheb_speedup);
      first = false;
      std::fprintf(stderr,
                   "n=%lld d=%4.1f%%: spmm sparse %.2fx, chebconv sparse "
                   "%.2fx (1t)\n",
                   static_cast<long long>(n), d * 100.0, spmm_speedup,
                   cheb_speedup);
    }
  }
  std::fprintf(f, "\n  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace odf

int main(int argc, char** argv) {
  // --trace[=path]: capture every benchmarked kernel as a Chrome-trace span
  // set (load the file in chrome://tracing or ui.perfetto.dev).
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      trace_path = "BENCH_trace.json";
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(std::string("--trace=").size());
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 1;
    }
  }
  if (!trace_path.empty() && !odf::TraceEnabled()) {
    odf::Tracer::Global().Start(trace_path);
  }

  const int substrate_rc = odf::RunSubstrateSweep();
  const int graph_rc = odf::RunGraphSweep();
  if (!trace_path.empty() && odf::Tracer::Global().Stop()) {
    std::printf("trace written to %s\n", trace_path.c_str());
  }
  return substrate_rc != 0 ? substrate_rc : graph_rc;
}
