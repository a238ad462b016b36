#include "nn/graph_pool.h"

#include <limits>

#include "autograd/capture.h"
#include "util/check.h"
#include "util/trace.h"

namespace odf::nn {

namespace ag = odf::autograd;

void GraphPoolForwardInto(const Tensor& xv,
                          const std::vector<std::vector<int64_t>>& clusters,
                          PoolKind kind, Tensor* out,
                          std::vector<int32_t>* argmax) {
  ODF_CHECK_EQ(xv.rank(), 3);
  ODF_CHECK(!clusters.empty());
  const int64_t batch = xv.dim(0);
  const int64_t n = xv.dim(1);
  const int64_t features = xv.dim(2);
  const int64_t nc = static_cast<int64_t>(clusters.size());
  ODF_CHECK(out->shape() == Shape({batch, nc, features}));
  if (argmax != nullptr) {
    argmax->assign(static_cast<size_t>(batch * nc * features), 0);
  }

  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t c = 0; c < nc; ++c) {
      const auto& cluster = clusters[static_cast<size_t>(c)];
      float* dst = out->data() + (b * nc + c) * features;
      if (kind == PoolKind::kAverage) {
        for (int64_t f = 0; f < features; ++f) dst[f] = 0.0f;
        for (int64_t i : cluster) {
          const float* src = xv.data() + (b * n + i) * features;
          for (int64_t f = 0; f < features; ++f) dst[f] += src[f];
        }
        const float inv = 1.0f / static_cast<float>(cluster.size());
        for (int64_t f = 0; f < features; ++f) dst[f] *= inv;
      } else {
        int32_t* arg =
            argmax != nullptr ? argmax->data() + (b * nc + c) * features
                              : nullptr;
        for (int64_t f = 0; f < features; ++f) {
          dst[f] = -std::numeric_limits<float>::infinity();
        }
        for (int64_t i : cluster) {
          const float* src = xv.data() + (b * n + i) * features;
          for (int64_t f = 0; f < features; ++f) {
            if (src[f] > dst[f]) {
              dst[f] = src[f];
              if (arg != nullptr) arg[f] = static_cast<int32_t>(i);
            }
          }
        }
      }
    }
  }
}

ag::Var GraphPool(const ag::Var& x,
                  const std::vector<std::vector<int64_t>>& clusters,
                  PoolKind kind) {
  ODF_TRACE_SCOPE("fwd/", "GraphPool", "fwd");
  ODF_CHECK_EQ(x.rank(), 3);
  ODF_CHECK(!clusters.empty());
  const int64_t batch = x.dim(0);
  const int64_t n = x.dim(1);
  const int64_t features = x.dim(2);
  const int64_t nc = static_cast<int64_t>(clusters.size());
  for (const auto& cluster : clusters) {
    ODF_CHECK(!cluster.empty());
    for (int64_t i : cluster) {
      ODF_CHECK_GE(i, 0);
      ODF_CHECK_LT(i, n);
    }
  }

  // For max pooling remember which source node won each output cell.
  std::vector<int32_t> argmax;
  Tensor out = Tensor::ShapeOnly(Shape({batch, nc, features}));
  if (!ag::internal::SkipKernel(x)) {
    out = Tensor(out.shape());
    GraphPoolForwardInto(x.value(), clusters, kind, &out,
                         kind == PoolKind::kMax ? &argmax : nullptr);
  }

  return ag::internal::MakeOpVar(
      "GraphPool", std::move(out), {x},
      [clusters, kind, argmax, batch, n, nc,
       features](ag::internal::Node& node) {
        Tensor grad(Shape({batch, n, features}));
        for (int64_t b = 0; b < batch; ++b) {
          for (int64_t c = 0; c < nc; ++c) {
            const auto& cluster = clusters[static_cast<size_t>(c)];
            const float* g = node.grad.data() + (b * nc + c) * features;
            if (kind == PoolKind::kAverage) {
              const float inv = 1.0f / static_cast<float>(cluster.size());
              for (int64_t i : cluster) {
                float* dst = grad.data() + (b * n + i) * features;
                for (int64_t f = 0; f < features; ++f) {
                  dst[f] += g[f] * inv;
                }
              }
            } else {
              const int32_t* arg =
                  argmax.data() + (b * nc + c) * features;
              for (int64_t f = 0; f < features; ++f) {
                grad.data()[(b * n + arg[f]) * features + f] += g[f];
              }
            }
          }
        }
        node.parents[0]->AccumulateGrad(grad);
      },
      {.pool = static_cast<int64_t>(kind), .clusters = &clusters});
}

}  // namespace odf::nn
