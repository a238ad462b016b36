#include "nn/graph_basis.h"

#include <utility>
#include <vector>

#include "nn/cheb_conv.h"

namespace odf::nn {

namespace ag = odf::autograd;

const char* GraphOpKindName(GraphOpKind kind) {
  switch (kind) {
    case GraphOpKind::kChebyshev:
      return "cheb";
    case GraphOpKind::kDiffusion:
      return "diffusion";
    case GraphOpKind::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

GraphBasis::GraphBasis(GraphOpKind kind, int64_t order)
    : kind_(kind),
      order_(order),
      e_origin_(ag::Var::Constant(Tensor::Scalar(0.0f))),
      e_destination_(ag::Var::Constant(Tensor::Scalar(0.0f))) {
  ODF_CHECK_GT(order, 0);
}

std::shared_ptr<GraphBasis> GraphBasis::Chebyshev(
    std::shared_ptr<const GraphOperator> op, int64_t order,
    std::shared_ptr<const GraphOperator> correlation_op) {
  ODF_CHECK(op != nullptr);
  std::shared_ptr<GraphBasis> basis(
      new GraphBasis(GraphOpKind::kChebyshev, order));
  if (correlation_op != nullptr) {
    ODF_CHECK_EQ(correlation_op->nodes(), op->nodes());
  }
  basis->primary_op_ = std::move(op);
  basis->correlation_op_ = std::move(correlation_op);
  return basis;
}

std::shared_ptr<GraphBasis> GraphBasis::Diffusion(
    std::shared_ptr<const GraphOperator> forward_op,
    std::shared_ptr<const GraphOperator> backward_op, int64_t order) {
  ODF_CHECK(forward_op != nullptr);
  ODF_CHECK(backward_op != nullptr);
  ODF_CHECK_EQ(forward_op->nodes(), backward_op->nodes());
  std::shared_ptr<GraphBasis> basis(
      new GraphBasis(GraphOpKind::kDiffusion, order));
  basis->primary_op_ = std::move(forward_op);
  basis->secondary_op_ = std::move(backward_op);
  return basis;
}

std::shared_ptr<GraphBasis> GraphBasis::Adaptive(int64_t nodes,
                                                 int64_t embed_dim,
                                                 int64_t order, Rng& rng) {
  ODF_CHECK_GT(nodes, 0);
  ODF_CHECK_GT(embed_dim, 0);
  // At order 1 the stack is just x and the embeddings would never receive a
  // gradient — reject rather than train dead parameters.
  ODF_CHECK_GE(order, 2);
  std::shared_ptr<GraphBasis> basis(
      new GraphBasis(GraphOpKind::kAdaptive, order));
  basis->adaptive_nodes_ = nodes;
  basis->e_origin_ = basis->RegisterParameter(
      Tensor::GlorotUniform(Shape({nodes, embed_dim}), rng));
  basis->e_destination_ = basis->RegisterParameter(
      Tensor::GlorotUniform(Shape({nodes, embed_dim}), rng));
  return basis;
}

int64_t GraphBasis::nodes() const {
  if (kind_ == GraphOpKind::kAdaptive) return adaptive_nodes_;
  return primary_op_->nodes();
}

int64_t GraphBasis::taps() const {
  switch (kind_) {
    case GraphOpKind::kChebyshev:
      return order_ + (correlation_op_ != nullptr ? order_ - 1 : 0);
    case GraphOpKind::kDiffusion:
      return 1 + 2 * (order_ - 1);
    case GraphOpKind::kAdaptive:
      return order_;
  }
  return order_;
}

namespace {

// Chebyshev recurrence taps 2..order over `op`, appended to `parts`. Tap 1
// (the identity x) is shared with the primary component, so a second graph
// contributes order−1 new taps.
void AppendChebyshevTail(const std::shared_ptr<const GraphOperator>& op,
                         const ag::Var& x, int64_t order,
                         std::vector<ag::Var>* parts) {
  ag::Var prev2 = x;
  ag::Var prev = ag::SpMM(op, x);
  parts->push_back(prev);
  for (int64_t s = 3; s <= order; ++s) {
    ag::Var cur =
        ag::Sub(ag::MulScalar(ag::SpMM(op, prev), 2.0f), prev2);
    parts->push_back(cur);
    prev2 = prev;
    prev = cur;
  }
}

}  // namespace

ag::Var GraphBasis::Stack(const ag::Var& x) const {
  ODF_CHECK_EQ(x.rank(), 3);
  ODF_CHECK_EQ(x.dim(1), nodes());
  switch (kind_) {
    case GraphOpKind::kChebyshev: {
      ag::Var main = ChebyshevStack(primary_op_, x, order_);
      if (correlation_op_ == nullptr || order_ == 1) return main;
      std::vector<ag::Var> parts{main};
      AppendChebyshevTail(correlation_op_, x, order_, &parts);
      return ag::Concat(parts, 2);
    }
    case GraphOpKind::kDiffusion: {
      if (order_ == 1) return x;
      std::vector<ag::Var> parts{x};
      ag::Var p = x;
      for (int64_t k = 1; k < order_; ++k) {
        p = ag::SpMM(primary_op_, p);
        parts.push_back(p);
      }
      ag::Var q = x;
      for (int64_t k = 1; k < order_; ++k) {
        q = ag::SpMM(secondary_op_, q);
        parts.push_back(q);
      }
      return ag::Concat(parts, 2);
    }
    case GraphOpKind::kAdaptive: {
      // Rebuilt from the embeddings on every call so each training step
      // sees the current adjacency and backprop reaches E_o / E_d. A is
      // rank-2; BatchMatMul broadcasts it over the batch and its backward
      // sums the per-batch adjacency gradients.
      const ag::Var a = ag::SoftmaxLastDim(ag::Relu(
          ag::MatMul(e_origin_, ag::TransposeLast2(e_destination_))));
      std::vector<ag::Var> parts{x, ag::BatchMatMul(a, x)};
      for (int64_t s = 3; s <= order_; ++s) {
        parts.push_back(
            ag::Sub(ag::MulScalar(ag::BatchMatMul(a, parts.back()), 2.0f),
                    parts[parts.size() - 2]));
      }
      return ag::Concat(parts, 2);
    }
  }
  return x;
}

void GraphBasis::SetOperators(std::shared_ptr<const GraphOperator> primary,
                              std::shared_ptr<const GraphOperator> secondary) {
  ODF_CHECK(kind_ != GraphOpKind::kAdaptive)
      << "adaptive adjacency is learned; there is no operator to swap";
  ODF_CHECK(primary != nullptr);
  ODF_CHECK_EQ(primary->nodes(), nodes());
  if (kind_ == GraphOpKind::kDiffusion) {
    ODF_CHECK(secondary != nullptr)
        << "diffusion needs the backward operator too";
    ODF_CHECK_EQ(secondary->nodes(), nodes());
  }
  primary_op_ = std::move(primary);
  if (kind_ == GraphOpKind::kDiffusion) secondary_op_ = std::move(secondary);
}

}  // namespace odf::nn
