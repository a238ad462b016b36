#include "nn/graph_pool.h"

#include <limits>
#include <vector>

#include "autograd/capture.h"
#include "util/check.h"
#include "util/trace.h"

namespace odf::nn {

namespace ag = odf::autograd;

namespace {

// Average pooling of four batch cells per step over the batch-divisible
// prefix; returns the first batch cell left over. The accumulate chains
// through the destination row, and at single-digit feature widths one row
// is a single vector, so a lone cell serializes on that store-load chain;
// four independent cells cover the add latency. Each cell still accumulates
// its cluster rows in cluster order, so results are the one-cell loop's bit
// for bit. F > 0 fixes the feature width at compile time (the widths the
// models run) so the three per-cluster loops become straight-line vector
// code; F == 0 keeps it a runtime value.
template <int64_t F>
int64_t AveragePoolQuads(const float* x, int64_t batch, int64_t n,
                         int64_t features,
                         const Clusters& clusters, float* out) {
  const int64_t nf = F > 0 ? F : features;
  const int64_t nc = static_cast<int64_t>(clusters.size());
  int64_t b = 0;
  for (; b + 4 <= batch; b += 4) {
    for (int64_t c = 0; c < nc; ++c) {
      const auto& cluster = clusters[static_cast<size_t>(c)];
      float* d0 = out + ((b + 0) * nc + c) * nf;
      float* d1 = out + ((b + 1) * nc + c) * nf;
      float* d2 = out + ((b + 2) * nc + c) * nf;
      float* d3 = out + ((b + 3) * nc + c) * nf;
      for (int64_t f = 0; f < nf; ++f) {
        d0[f] = 0.0f;
        d1[f] = 0.0f;
        d2[f] = 0.0f;
        d3[f] = 0.0f;
      }
      for (int64_t i : cluster) {
        const float* s0 = x + ((b + 0) * n + i) * nf;
        const float* s1 = x + ((b + 1) * n + i) * nf;
        const float* s2 = x + ((b + 2) * n + i) * nf;
        const float* s3 = x + ((b + 3) * n + i) * nf;
        for (int64_t f = 0; f < nf; ++f) {
          d0[f] += s0[f];
          d1[f] += s1[f];
          d2[f] += s2[f];
          d3[f] += s3[f];
        }
      }
      const float inv = 1.0f / static_cast<float>(cluster.size());
      for (int64_t f = 0; f < nf; ++f) {
        d0[f] *= inv;
        d1[f] *= inv;
        d2[f] *= inv;
        d3[f] *= inv;
      }
    }
  }
  return b;
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

  int64_t first = 0;
  if (kind == PoolKind::kAverage) {
    const float* x = xv.data();
    float* o = out->data();
    switch (features) {
      case 7:
        first = AveragePoolQuads<7>(x, batch, n, features, clusters, o);
        break;
      case 8:
        first = AveragePoolQuads<8>(x, batch, n, features, clusters, o);
        break;
      default:
        first = AveragePoolQuads<0>(x, batch, n, features, clusters, o);
        break;
    }
  }
  for (int64_t b = first; b < batch; ++b) {
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
