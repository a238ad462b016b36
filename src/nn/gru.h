#ifndef ODF_NN_GRU_H_
#define ODF_NN_GRU_H_

#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace odf::nn {

/// Gated recurrent unit cell (Cho et al.; paper Sec. IV-C):
///   r = σ(W_r·[h, x] + b_r)          (reset gate)
///   z = σ(W_z·[h, x] + b_z)          (update gate)
///   h̃ = tanh(W_h·[r ⊙ h, x] + b_h)   (candidate)
///   h' = z ⊙ h + (1 − z) ⊙ h̃
class GruCell : public Module {
 public:
  GruCell(int64_t input_size, int64_t hidden_size, Rng& rng);

  /// One recurrence step. `x` is [B, input], `h` is [B, hidden];
  /// returns the next hidden state [B, hidden].
  autograd::Var Step(const autograd::Var& x, const autograd::Var& h) const;

  /// Zero initial state for batch size `batch`.
  autograd::Var InitialState(int64_t batch) const;

  int64_t input_size() const { return input_size_; }
  int64_t hidden_size() const { return hidden_size_; }

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  Linear reset_gate_;
  Linear update_gate_;
  Linear candidate_;
};

/// Sequence-to-sequence GRU (paper Eq. 2): an encoder GRU consumes the `s`
/// historical latent vectors; a decoder GRU, initialized with the encoder
/// state, autoregressively emits `h` future latent vectors through an output
/// projection. Latent ground truth does not exist (factors are themselves
/// learned), so decoding is always autoregressive — no teacher forcing.
class Seq2SeqGru : public Module {
 public:
  /// `feature_size` is the dimension of each sequence element; the GRU
  /// operates in a `hidden_size`-dimensional state space. With
  /// `use_attention` the decoder attends over all (top-layer) encoder
  /// states with Luong attention (the paper's future-work extension)
  /// instead of relying on the final encoder state alone. `num_layers`
  /// stacks GRU cells (Table I's multi-layer configurations).
  Seq2SeqGru(int64_t feature_size, int64_t hidden_size, Rng& rng,
             bool use_attention = false, int64_t num_layers = 1);

  int64_t num_layers() const {
    return static_cast<int64_t>(encoder_layers_.size());
  }

  /// Maps `inputs` (each [B, feature]) to `horizon` future elements.
  std::vector<autograd::Var> Forward(
      const std::vector<autograd::Var>& inputs, int64_t horizon) const;

 private:
  int64_t feature_size_;
  int64_t hidden_size_;
  std::vector<std::unique_ptr<GruCell>> encoder_layers_;
  std::vector<std::unique_ptr<GruCell>> decoder_layers_;
  std::unique_ptr<Linear> output_proj_;
  std::unique_ptr<LuongAttention> attention_;  // null when disabled
};

}  // namespace odf::nn

#endif  // ODF_NN_GRU_H_
