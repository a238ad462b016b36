#ifndef ODF_NN_GCGRU_H_
#define ODF_NN_GCGRU_H_

#include <memory>
#include <vector>

#include "nn/cheb_conv.h"
#include "nn/gru.h"

namespace odf::nn {

/// CNRNN cell (paper Eqs. 7–10): a GRU whose gate transforms are Cheby-Net
/// graph convolutions over the region proximity graph, so the recurrence
/// preserves spatial structure while modelling temporal dynamics.
///
///   S^(t) = σ(G_S ⊛ [H^(t-1), X^(t)] + b_S)        (reset gate)
///   U^(t) = σ(G_U ⊛ [H^(t-1), X^(t)] + b_U)        (update gate)
///   H̃^(t) = tanh(G_H ⊛ [S^(t) ⊙ H^(t-1), X^(t)] + b_H)
///   H^(t) = U^(t) ⊙ H^(t-1) + (1 − U^(t)) ⊙ H̃^(t)
///
/// The reset and update gates convolve the same [H^(t-1), X^(t)] stack, so
/// the cell computes the Chebyshev basis T_s(L̂)·[h, x] once and applies one
/// stacked weight matrix [order·(F_in+H), 2H] for both gates; a Step
/// therefore performs exactly 2·(order−1) L̂-applications (shared basis +
/// candidate basis) instead of the naive 3·(order−1).
///
/// States and inputs are node-feature tensors [B, n, F].
class GcGruCell : public RecurrentCell {
 public:
  /// `scaled_laplacian` is the graph's L̂; `order` the Chebyshev order.
  GcGruCell(Tensor scaled_laplacian, int64_t input_features,
            int64_t hidden_features, int64_t order, Rng& rng);

  /// Shares `op` (dense + CSR L̂) with other cells/layers on the same graph.
  GcGruCell(std::shared_ptr<const GraphOperator> op, int64_t input_features,
            int64_t hidden_features, int64_t order, Rng& rng);

  /// Generalized form: gate transforms expand over `basis` (Chebyshev,
  /// diffusion, or adaptive — nn/graph_basis.h). The basis's own parameters
  /// (adaptive embeddings) are registered by whoever owns the basis, not by
  /// each cell sharing it.
  GcGruCell(std::shared_ptr<const GraphBasis> basis, int64_t input_features,
            int64_t hidden_features, Rng& rng);

  /// One step: x [B, n, F_in], h [B, n, F_hidden] -> [B, n, F_hidden].
  autograd::Var Step(const autograd::Var& x,
                     const autograd::Var& h) const override;

  /// Zero state [batch, n, hidden].
  autograd::Var InitialState(int64_t batch) const override;

  int64_t num_nodes() const { return basis_->nodes(); }
  int64_t input_features() const { return input_features_; }
  int64_t hidden_features() const { return hidden_features_; }
  const std::shared_ptr<const GraphBasis>& basis() const { return basis_; }
  /// The primary operator (L̂ / forward diffusion); null for adaptive.
  const std::shared_ptr<const GraphOperator>& graph_op() const {
    return basis_->primary_op();
  }

 private:
  int64_t input_features_;
  int64_t hidden_features_;
  std::shared_ptr<const GraphBasis> basis_;
  autograd::Var gates_theta_;  // [taps·(F_in+H), 2H]: reset ∥ update
  autograd::Var gates_bias_;   // [2H]
  ChebConv candidate_conv_;
};

/// Sequence-to-sequence CNRNN (paper Sec. V-B): the Seq2Seq loop over
/// GcGru cells on node-feature sequences, with a ChebConv output head
/// mapping hidden node features back to factor features. All cells and the
/// output head share one GraphBasis (a single dense + CSR copy of L̂).
class Seq2SeqGcGru : public Seq2Seq {
 public:
  /// `num_layers` stacks CNRNN cells (Table I's "CNRNN with n layers").
  Seq2SeqGcGru(Tensor scaled_laplacian, int64_t feature_size,
               int64_t hidden_size, int64_t order, Rng& rng,
               int64_t num_layers = 1);

  /// Same, sharing an existing graph operator.
  Seq2SeqGcGru(std::shared_ptr<const GraphOperator> op, int64_t feature_size,
               int64_t hidden_size, int64_t order, Rng& rng,
               int64_t num_layers = 1);

  /// Generalized form: all cells and the output head expand over `basis`.
  /// The basis is registered as a submodule here (once), so its adaptive
  /// embeddings — if any — checkpoint and train with the model; a
  /// parameter-free Chebyshev basis leaves the PARM order untouched.
  Seq2SeqGcGru(std::shared_ptr<GraphBasis> basis, int64_t feature_size,
               int64_t hidden_size, Rng& rng, int64_t num_layers = 1);

  /// The shared tap stack (mutable for per-interval operator swaps —
  /// see GraphBasis::SetOperators and docs/graph_operators.md).
  const std::shared_ptr<GraphBasis>& basis() const { return basis_; }

 private:
  autograd::Var Head(
      const autograd::Var& state,
      const std::vector<autograd::Var>& encoder_states) const override;

  std::shared_ptr<GraphBasis> basis_;
  std::unique_ptr<ChebConv> output_head_;
};

}  // namespace odf::nn

#endif  // ODF_NN_GCGRU_H_
