#ifndef ODF_NN_GRAPH_POOL_H_
#define ODF_NN_GRAPH_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "autograd/var.h"

namespace odf::nn {

/// Pooling reduction over each node cluster.
enum class PoolKind { kAverage, kMax };

/// Finer node indices per pooled node, one list per cluster.
using Clusters = std::vector<std::vector<int64_t>>;

/// Cluster-ordered graph pooling (paper Eq. 6): reduces the node dimension
/// of [B, n, F] features to [B, n_c, F], where cluster `c` pools the finer
/// node indices `clusters[c]` (typically produced by graph/coarsen.h so
/// that pooled nodes are spatial neighbours).
///
/// Differentiable: average pooling spreads the gradient uniformly over a
/// cluster; max pooling routes it to the argmax element. The op's backward
/// and a compiled serving plan share `clusters` rather than copy it.
autograd::Var GraphPool(const autograd::Var& x,
                        std::shared_ptr<const Clusters> clusters,
                        PoolKind kind);

/// Value-only forward of GraphPool into a preallocated [B, n_c, F] output
/// (the serving path). When `argmax` is non-null it is resized to
/// B·n_c·F and records the winning source node per cell for max pooling
/// (the tape's backward needs it; inference passes nullptr). Shared by the
/// differentiable wrapper above, so both paths pool bit-identically.
void GraphPoolForwardInto(const Tensor& x, const Clusters& clusters,
                          PoolKind kind, Tensor* out,
                          std::vector<int32_t>* argmax);

}  // namespace odf::nn

#endif  // ODF_NN_GRAPH_POOL_H_
