#include "nn/gru.h"

#include "autograd/capture.h"

namespace odf::nn {

namespace ag = odf::autograd;

GruCell::GruCell(int64_t input_size, int64_t hidden_size, Rng& rng)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      reset_gate_(input_size + hidden_size, hidden_size, rng),
      update_gate_(input_size + hidden_size, hidden_size, rng),
      candidate_(input_size + hidden_size, hidden_size, rng) {
  RegisterSubmodule(&reset_gate_);
  RegisterSubmodule(&update_gate_);
  RegisterSubmodule(&candidate_);
}

ag::Var GruCell::Step(const ag::Var& x, const ag::Var& h) const {
  ODF_CHECK_EQ(x.rank(), 2);
  ODF_CHECK_EQ(h.rank(), 2);
  ODF_CHECK_EQ(x.dim(1), input_size_);
  ODF_CHECK_EQ(h.dim(1), hidden_size_);
  const ag::Var hx = ag::Concat({h, x}, 1);
  const ag::Var r = ag::Sigmoid(reset_gate_.Forward(hx));
  const ag::Var z = ag::Sigmoid(update_gate_.Forward(hx));
  const ag::Var rh_x = ag::Concat({ag::Mul(r, h), x}, 1);
  const ag::Var candidate = ag::Tanh(candidate_.Forward(rh_x));
  // h' = z ⊙ h + (1 − z) ⊙ h̃.
  return ag::Add(ag::Mul(z, h),
                 ag::Mul(ag::AddScalar(ag::Neg(z), 1.0f), candidate));
}

ag::Var GruCell::InitialState(int64_t batch) const {
  return ag::Var::BatchZeros(Shape({batch, hidden_size_}));
}

void Seq2Seq::BuildLayers(
    int64_t feature_size, int64_t hidden_size, int64_t num_layers,
    const std::function<std::unique_ptr<RecurrentCell>(int64_t)>& make) {
  ODF_CHECK_GE(num_layers, 1);
  for (auto* layers : {&encoder_layers_, &decoder_layers_}) {
    for (int64_t l = 0; l < num_layers; ++l) {
      layers->push_back(make(l == 0 ? feature_size : hidden_size));
      RegisterSubmodule(layers->back().get());
    }
  }
}

std::vector<ag::Var> Seq2Seq::Forward(const std::vector<ag::Var>& inputs,
                                      int64_t horizon) const {
  ODF_CHECK(!inputs.empty());
  ODF_CHECK_GT(horizon, 0);
  const int64_t batch = inputs.front().dim(0);
  const size_t layers = encoder_layers_.size();
  ag::ScopedPhase encode("encode");
  std::vector<ag::Var> enc_state;
  for (size_t l = 0; l < layers; ++l) {
    enc_state.push_back(encoder_layers_[l]->InitialState(batch));
  }
  std::vector<ag::Var> encoder_states;  // top-layer states per step
  encoder_states.reserve(inputs.size());
  for (const ag::Var& x : inputs) {
    ag::Var layer_input = x;
    for (size_t l = 0; l < layers; ++l) {
      enc_state[l] = encoder_layers_[l]->Step(layer_input, enc_state[l]);
      layer_input = enc_state[l];
    }
    encoder_states.push_back(enc_state.back());
  }

  // Decoder starts from the encoder's final per-layer states.
  ag::ScopedPhase decode("decode");  // the innermost label wins
  std::vector<ag::Var> dec_state = enc_state;
  std::vector<ag::Var> outputs;
  outputs.reserve(static_cast<size_t>(horizon));
  ag::Var prev = inputs.back();  // "go" element: last observation
  for (int64_t j = 0; j < horizon; ++j) {
    ag::Var layer_input = prev;
    for (size_t l = 0; l < layers; ++l) {
      dec_state[l] = decoder_layers_[l]->Step(layer_input, dec_state[l]);
      layer_input = dec_state[l];
    }
    ag::Var out = Head(dec_state.back(), encoder_states);
    outputs.push_back(out);
    prev = out;
  }
  return outputs;
}

Seq2SeqGru::Seq2SeqGru(int64_t feature_size, int64_t hidden_size, Rng& rng,
                       bool use_attention, int64_t num_layers) {
  // Construction order (encoder, decoder, projection, attention) fixes the
  // RNG consumption order and therefore the initialization.
  BuildLayers(feature_size, hidden_size, num_layers, [&](int64_t in) {
    return std::make_unique<GruCell>(in, hidden_size, rng);
  });
  output_proj_ = std::make_unique<Linear>(hidden_size, feature_size, rng);
  RegisterSubmodule(output_proj_.get());
  if (use_attention) {
    attention_ = std::make_unique<LuongAttention>(hidden_size, rng);
    RegisterSubmodule(attention_.get());
  }
}

ag::Var Seq2SeqGru::Head(const ag::Var& state,
                         const std::vector<ag::Var>& encoder_states) const {
  return output_proj_->Forward(
      attention_ != nullptr ? attention_->Apply(state, encoder_states)
                            : state);
}

}  // namespace odf::nn
