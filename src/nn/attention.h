#ifndef ODF_NN_ATTENTION_H_
#define ODF_NN_ATTENTION_H_

#include <vector>

#include "nn/linear.h"
#include "nn/module.h"

namespace odf::nn {

/// Luong-style global attention (the paper's Sec. VII future-work item:
/// "consider the information at different timestamps differently, e.g.,
/// using attention networks").
///
/// Given a decoder state h and encoder states e_1..e_T (all [B, H]):
///   score_t  = h · (W_a e_t)            (general score)
///   a        = softmax(score_1..T)
///   context  = Σ_t a_t e_t
///   output   = tanh(W_c [context, h])   ([B, H])
class LuongAttention : public Module {
 public:
  LuongAttention(int64_t hidden_size, Rng& rng);

  /// Applies attention; returns the attentional state [B, H].
  autograd::Var Apply(const autograd::Var& decoder_state,
                      const std::vector<autograd::Var>& encoder_states) const;

  /// The attention weights of the most natural diagnostic form: returns
  /// the [B, T] softmax scores (value only, no tape) for inspection.
  Tensor Weights(const autograd::Var& decoder_state,
                 const std::vector<autograd::Var>& encoder_states) const;

  int64_t hidden_size() const { return hidden_size_; }

 private:
  autograd::Var Scores(const autograd::Var& decoder_state,
                       const std::vector<autograd::Var>& encoder_states) const;

  int64_t hidden_size_;
  Linear score_;    // W_a, no bias
  Linear combine_;  // W_c
};

}  // namespace odf::nn

#endif  // ODF_NN_ATTENTION_H_
