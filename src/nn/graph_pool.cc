#include "nn/graph_pool.h"

#include <limits>
#include <vector>

#include "autograd/capture.h"
#include "tensor/lanes.h"
#include "util/check.h"
#include "util/trace.h"

namespace odf::nn {

namespace ag = odf::autograd;

namespace {

// Average pooling of every batch cell at feature width F (0: the runtime
// `features`). Each output row sums its cluster's rows from +0 in cluster
// order, then scales by the inverse cluster size: the reference order, so
// the reference bits. At a compile-time F the sum runs in a local
// accumulator the compiler keeps in registers, where a sum kept in `out`
// (which, as far as the compiler knows, may alias `x`) is stored and
// reloaded at every add.
template <int64_t F>
void AveragePool(const float* x, int64_t batch, int64_t n, int64_t features,
                 const Clusters& clusters, float* out) {
  const int64_t nf = F > 0 ? F : features;
  const int64_t nc = static_cast<int64_t>(clusters.size());
  for (int64_t b = 0; b < batch; ++b) {
    const float* xb = x + b * n * nf;
    float* ob = out + b * nc * nf;
    for (int64_t c = 0; c < nc; ++c) {
      const auto& cluster = clusters[static_cast<size_t>(c)];
      const float inv = 1.0f / static_cast<float>(cluster.size());
      float* dst = ob + c * nf;
      if constexpr (F > 0) {
        float acc[F] = {};
        for (int64_t i : cluster) {
          const float* src = xb + i * F;
          for (int64_t f = 0; f < F; ++f) acc[f] += src[f];
        }
        for (int64_t f = 0; f < F; ++f) dst[f] = acc[f] * inv;
      } else {
        for (int64_t f = 0; f < nf; ++f) dst[f] = 0.0f;
        for (int64_t i : cluster) {
          const float* src = xb + i * nf;
          for (int64_t f = 0; f < nf; ++f) dst[f] += src[f];
        }
        for (int64_t f = 0; f < nf; ++f) dst[f] *= inv;
      }
    }
  }
}

}  // namespace

void GraphPoolForwardInto(const Tensor& xv, const Clusters& clusters,
                          PoolKind kind, Tensor* out,
                          std::vector<int32_t>* argmax) {
  ODF_CHECK_EQ(xv.rank(), 3);
  ODF_CHECK(!clusters.empty());
  const int64_t batch = xv.dim(0);
  const int64_t n = xv.dim(1);
  const int64_t features = xv.dim(2);
  const int64_t nc = static_cast<int64_t>(clusters.size());
  ODF_CHECK(out->rank() == 3 && out->dim(0) == batch && out->dim(1) == nc &&
            out->dim(2) == features);
  if (argmax != nullptr) {
    argmax->assign(static_cast<size_t>(batch * nc * features), 0);
  }

  if (kind == PoolKind::kAverage) {
    WithLaneWidth(features, [&](auto lanes) {
      AveragePool<decltype(lanes)::value>(xv.data(), batch, n, features,
                                          clusters, out->data());
    });
    return;
  }
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t c = 0; c < nc; ++c) {
      const auto& cluster = clusters[static_cast<size_t>(c)];
      float* dst = out->data() + (b * nc + c) * features;
      int32_t* arg = argmax != nullptr
                         ? argmax->data() + (b * nc + c) * features
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

ag::Var GraphPool(const ag::Var& x, std::shared_ptr<const Clusters> clusters,
                  PoolKind kind) {
  ODF_TRACE_SCOPE("fwd/", "GraphPool", "fwd");
  ODF_CHECK_EQ(x.rank(), 3);
  ODF_CHECK(clusters != nullptr && !clusters->empty());
  const int64_t batch = x.dim(0);
  const int64_t n = x.dim(1);
  const int64_t features = x.dim(2);
  const int64_t nc = static_cast<int64_t>(clusters->size());
  for (const auto& cluster : *clusters) {
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
    GraphPoolForwardInto(x.value(), *clusters, kind, &out,
                         kind == PoolKind::kMax ? &argmax : nullptr);
  }

  const ag::OpAttrs attrs{.pool = static_cast<int64_t>(kind),
                          .clusters = clusters};
  return ag::internal::MakeOpVar(
      "GraphPool", std::move(out), {x},
      [clusters = std::move(clusters), kind, argmax, batch, n, nc,
       features](ag::internal::Node& node) {
        Tensor grad(Shape({batch, n, features}));
        for (int64_t b = 0; b < batch; ++b) {
          for (int64_t c = 0; c < nc; ++c) {
            const auto& cluster = (*clusters)[static_cast<size_t>(c)];
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
      attrs);
}

}  // namespace odf::nn
