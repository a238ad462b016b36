#ifndef ODF_NN_GRAPH_BASIS_H_
#define ODF_NN_GRAPH_BASIS_H_

#include <memory>

#include "autograd/ops.h"
#include "nn/module.h"
#include "util/rng.h"

namespace odf::nn {

/// Which graph polynomial a convolution expands its input over. All three
/// are "K matrix polynomials applied per gate" (docs/graph_operators.md):
///
///   kChebyshev — the paper's Cheby-Net basis over the scaled proximity
///       Laplacian L̂ (T_1 = x, T_2 = L̂x, T_s = 2·L̂·T_{s-1} − T_{s-2}),
///       optionally joined by a second Chebyshev component over a
///       demand-correlation graph (ODCRN-style multi-graph).
///   kDiffusion — DCRNN dual-direction diffusion: powers of the forward
///       random-walk transition D_out⁻¹W and of the backward D_in⁻¹Wᵀ.
///   kAdaptive — ODCRN learned adjacency A = softmax(relu(E_o·E_dᵀ)) from
///       trainable per-region embeddings, expanded with the Chebyshev-style
///       recurrence; the embeddings train end-to-end inside the gates.
enum class GraphOpKind { kChebyshev, kDiffusion, kAdaptive };

/// Stable lowercase name ("cheb", "diffusion", "adaptive").
const char* GraphOpKindName(GraphOpKind kind);

/// The tap stack shared by every graph convolution: expands node features
/// x [B, n, F] into [B, n, taps()·F] along the feature axis, per kind().
/// ChebConv and GcGruCell multiply the stack by their weight matrices, so
/// swapping the operator family never touches the gate code.
///
/// A GraphBasis is a Module so the adaptive embeddings register as trainable
/// parameters; the Chebyshev and diffusion variants own no parameters and
/// registering them perturbs nothing (checkpoint PARM order is unchanged).
///
/// Operator snapshots are immutable (graph/laplacian.h contract); dynamic
/// per-interval graphs swap in *fresh* operators via SetOperators. Stack is
/// safe to call from the pool-parallel kernels underneath, but SetOperators
/// must not race with a concurrent Stack.
class GraphBasis : public Module {
 public:
  /// Chebyshev basis over `op` (= L̂), with an optional second component
  /// over `correlation_op` (a demand-correlation graph's L̂) contributing
  /// its taps 2..order — tap 1 is the shared identity x.
  static std::shared_ptr<GraphBasis> Chebyshev(
      std::shared_ptr<const GraphOperator> op, int64_t order,
      std::shared_ptr<const GraphOperator> correlation_op = nullptr);

  /// Dual-direction diffusion basis: [x, P x, P²x, …, Pᵀx, (Pᵀ)²x, …] with
  /// `forward_op` = D_out⁻¹W and `backward_op` = D_in⁻¹Wᵀ, `order`−1 powers
  /// each (see graph/laplacian.h MakeDiffusionOperators).
  static std::shared_ptr<GraphBasis> Diffusion(
      std::shared_ptr<const GraphOperator> forward_op,
      std::shared_ptr<const GraphOperator> backward_op, int64_t order);

  /// Learned adjacency from two [nodes, embed_dim] Glorot-initialized
  /// embedding tables (registered parameters, drawn from `rng` origin-first).
  /// Requires order ≥ 2 — at order 1 the adjacency would be dead weight.
  static std::shared_ptr<GraphBasis> Adaptive(int64_t nodes,
                                              int64_t embed_dim, int64_t order,
                                              Rng& rng);

  GraphOpKind kind() const { return kind_; }
  int64_t order() const { return order_; }
  int64_t nodes() const;

  /// Number of stacked components: order for Chebyshev and adaptive,
  /// plus order−1 when a correlation component is attached, and
  /// 1 + 2·(order−1) for dual-direction diffusion. Gate weight matrices
  /// are [taps()·F_in, F_out].
  int64_t taps() const;

  /// Expands x [B, n, F] to [B, n, taps()·F]. The single-component
  /// Chebyshev path is exactly ChebyshevStack (the fused basis tape node);
  /// the other kinds compose ag::SpMM / ag::BatchMatMul taps.
  autograd::Var Stack(const autograd::Var& x) const;

  /// Swaps in freshly built per-interval operators (the primary graph — L̂
  /// for Chebyshev, the forward/backward pair for diffusion). The optional
  /// correlation component is a static third input and is not touched.
  /// CHECK-fails on the adaptive kind, whose graph is learned, not given.
  void SetOperators(std::shared_ptr<const GraphOperator> primary,
                    std::shared_ptr<const GraphOperator> secondary = nullptr);

  const std::shared_ptr<const GraphOperator>& primary_op() const {
    return primary_op_;
  }
  const std::shared_ptr<const GraphOperator>& secondary_op() const {
    return secondary_op_;
  }
  const std::shared_ptr<const GraphOperator>& correlation_op() const {
    return correlation_op_;
  }

  const autograd::Var& origin_embedding() const { return e_origin_; }
  const autograd::Var& destination_embedding() const { return e_destination_; }

 private:
  GraphBasis(GraphOpKind kind, int64_t order);

  GraphOpKind kind_;
  int64_t order_;
  int64_t adaptive_nodes_ = 0;
  std::shared_ptr<const GraphOperator> primary_op_;
  std::shared_ptr<const GraphOperator> secondary_op_;
  std::shared_ptr<const GraphOperator> correlation_op_;
  autograd::Var e_origin_;       // [n, embed_dim], adaptive only
  autograd::Var e_destination_;  // [n, embed_dim], adaptive only
};

}  // namespace odf::nn

#endif  // ODF_NN_GRAPH_BASIS_H_
