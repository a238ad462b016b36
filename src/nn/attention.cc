#include "nn/attention.h"

namespace odf::nn {

namespace ag = odf::autograd;

LuongAttention::LuongAttention(int64_t hidden_size, Rng& rng)
    : hidden_size_(hidden_size),
      score_(hidden_size, hidden_size, rng, /*with_bias=*/false),
      combine_(2 * hidden_size, hidden_size, rng) {
  RegisterSubmodule(&score_);
  RegisterSubmodule(&combine_);
}

ag::Var LuongAttention::Scores(
    const ag::Var& decoder_state,
    const std::vector<ag::Var>& encoder_states) const {
  ODF_CHECK(!encoder_states.empty());
  ODF_CHECK_EQ(decoder_state.dim(1), hidden_size_);
  // score_t = Σ_h h ⊙ (W_a e_t), assembled as a [B, T] matrix.
  std::vector<ag::Var> per_step;
  per_step.reserve(encoder_states.size());
  for (const ag::Var& e : encoder_states) {
    ag::Var transformed = score_.Forward(e);  // [B, H]
    ag::Var prod = ag::Mul(decoder_state, transformed);
    per_step.push_back(ag::SumAxis(prod, 1, /*keepdim=*/true));  // [B, 1]
  }
  return ag::SoftmaxLastDim(ag::Concat(per_step, 1));  // [B, T]
}

ag::Var LuongAttention::Apply(
    const ag::Var& decoder_state,
    const std::vector<ag::Var>& encoder_states) const {
  const ag::Var attention = Scores(decoder_state, encoder_states);
  const int64_t batch = decoder_state.dim(0);
  // context = Σ_t a_t e_t via broadcast multiply.
  ag::Var context = ag::Var::BatchZeros(Shape({batch, hidden_size_}));
  for (size_t t = 0; t < encoder_states.size(); ++t) {
    ag::Var weight = ag::Slice(attention, 1, static_cast<int64_t>(t), 1);
    context = ag::Add(context, ag::Mul(encoder_states[t], weight));
  }
  return ag::Tanh(combine_.Forward(ag::Concat({context, decoder_state}, 1)));
}

Tensor LuongAttention::Weights(
    const ag::Var& decoder_state,
    const std::vector<ag::Var>& encoder_states) const {
  return Scores(decoder_state, encoder_states).value();
}

}  // namespace odf::nn
