#ifndef ODF_NN_GRU_H_
#define ODF_NN_GRU_H_

#include <functional>
#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace odf::nn {

/// A recurrent cell the shared encoder–decoder loop (Seq2Seq) drives.
class RecurrentCell : public Module {
 public:
  /// One recurrence step from input `x` and state `h` to the next state.
  virtual autograd::Var Step(const autograd::Var& x,
                             const autograd::Var& h) const = 0;

  /// Zero initial state for batch size `batch`.
  virtual autograd::Var InitialState(int64_t batch) const = 0;
};

/// Gated recurrent unit cell (Cho et al.; paper Sec. IV-C):
///   r = σ(W_r·[h, x] + b_r)          (reset gate)
///   z = σ(W_z·[h, x] + b_z)          (update gate)
///   h̃ = tanh(W_h·[r ⊙ h, x] + b_h)   (candidate)
///   h' = z ⊙ h + (1 − z) ⊙ h̃
class GruCell : public RecurrentCell {
 public:
  GruCell(int64_t input_size, int64_t hidden_size, Rng& rng);

  /// `x` is [B, input], `h` is [B, hidden]; returns [B, hidden].
  autograd::Var Step(const autograd::Var& x,
                     const autograd::Var& h) const override;
  autograd::Var InitialState(int64_t batch) const override;

  int64_t input_size() const { return input_size_; }
  int64_t hidden_size() const { return hidden_size_; }

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  Linear reset_gate_;
  Linear update_gate_;
  Linear candidate_;
};

/// The sequence-to-sequence loop of paper Eq. 2 (GRU) and Sec. V-B (CNRNN),
/// shared by every recurrent cell: a stack of encoder cells consumes
/// the `s` historical elements; a decoder stack, starting from the
/// encoder's final per-layer states, emits `h` future elements through the
/// subclass's output head, each fed back as the next decoder input. Latent
/// ground truth does not exist (factors are themselves learned), so
/// decoding is always autoregressive — no teacher forcing.
class Seq2Seq : public Module {
 public:
  /// Maps `inputs` (each [B, ...feature]) to `horizon` future elements.
  std::vector<autograd::Var> Forward(
      const std::vector<autograd::Var>& inputs, int64_t horizon) const;

  int64_t num_layers() const {
    return static_cast<int64_t>(encoder_layers_.size());
  }

 protected:
  /// Builds `num_layers` encoder cells, then as many decoder cells, and
  /// registers each in that order, which fixes the RNG draws and the
  /// parameter order. `make(input_size)` returns one cell; layer 0 reads
  /// `feature_size` inputs, every later layer `hidden_size`.
  void BuildLayers(
      int64_t feature_size, int64_t hidden_size, int64_t num_layers,
      const std::function<std::unique_ptr<RecurrentCell>(int64_t)>& make);

  /// The step output from the decoder's top-layer `state`; `encoder_states`
  /// holds the encoder's top-layer state at every input step.
  virtual autograd::Var Head(
      const autograd::Var& state,
      const std::vector<autograd::Var>& encoder_states) const = 0;

 private:
  std::vector<std::unique_ptr<RecurrentCell>> encoder_layers_;
  std::vector<std::unique_ptr<RecurrentCell>> decoder_layers_;
};

/// Sequence-to-sequence GRU (paper Eq. 2) whose head is a linear output
/// projection, optionally after Luong attention.
class Seq2SeqGru : public Seq2Seq {
 public:
  /// `feature_size` is the dimension of each sequence element; the GRU
  /// operates in a `hidden_size`-dimensional state space. With
  /// `use_attention` the decoder attends over all (top-layer) encoder
  /// states with Luong attention (the paper's future-work extension)
  /// instead of relying on the final encoder state alone. `num_layers`
  /// stacks GRU cells (Table I's multi-layer configurations).
  Seq2SeqGru(int64_t feature_size, int64_t hidden_size, Rng& rng,
             bool use_attention = false, int64_t num_layers = 1);

 private:
  autograd::Var Head(
      const autograd::Var& state,
      const std::vector<autograd::Var>& encoder_states) const override;

  std::unique_ptr<Linear> output_proj_;
  std::unique_ptr<LuongAttention> attention_;  // null when disabled
};

}  // namespace odf::nn

#endif  // ODF_NN_GRU_H_
