#include "nn/gcgru.h"

#include <utility>

#include "tensor/tensor_ops.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace odf::nn {

namespace ag = odf::autograd;

namespace {

// Reset and update gates stacked into one weight matrix [order·F, 2H].
// Drawing each gate's block separately keeps the per-gate Glorot scale (and
// the RNG stream) identical to two independent convolutions.
Tensor StackedGateInit(int64_t order, int64_t in_features, int64_t hidden,
                       Rng& rng) {
  Tensor reset =
      Tensor::GlorotUniform(Shape({order * in_features, hidden}), rng);
  Tensor update =
      Tensor::GlorotUniform(Shape({order * in_features, hidden}), rng);
  return Concat({reset, update}, 1);
}

}  // namespace

GcGruCell::GcGruCell(Tensor scaled_laplacian, int64_t input_features,
                     int64_t hidden_features, int64_t order, Rng& rng)
    : GcGruCell(GraphOperator::Make(std::move(scaled_laplacian)),
                input_features, hidden_features, order, rng) {}

GcGruCell::GcGruCell(std::shared_ptr<const GraphOperator> op,
                     int64_t input_features, int64_t hidden_features,
                     int64_t order, Rng& rng)
    : GcGruCell(GraphBasis::Chebyshev(std::move(op), order), input_features,
                hidden_features, rng) {}

GcGruCell::GcGruCell(std::shared_ptr<const GraphBasis> basis,
                     int64_t input_features, int64_t hidden_features,
                     Rng& rng)
    : input_features_(input_features),
      hidden_features_(hidden_features),
      basis_(std::move(basis)),
      gates_theta_(RegisterParameter(StackedGateInit(
          basis_->taps(), input_features + hidden_features, hidden_features,
          rng))),
      gates_bias_(RegisterParameter(Tensor(Shape({2 * hidden_features})))),
      candidate_conv_(basis_, input_features + hidden_features,
                      hidden_features, rng) {
  RegisterSubmodule(&candidate_conv_);
}

ag::Var GcGruCell::Step(const ag::Var& x, const ag::Var& h) const {
  ODF_TRACE_SCOPE("fwd/", "GcGruCell.Step", "fwd");
  static Histogram& step_hist =
      MetricsRegistry::Global().GetHistogram("gcgru.step_seconds");
  ScopedTimer timer(step_hist);
  if (MetricsEnabled()) {
    static Counter& steps =
        MetricsRegistry::Global().GetCounter("gcgru.steps");
    steps.Add(1);
  }
  ODF_CHECK_EQ(x.rank(), 3);
  ODF_CHECK_EQ(h.rank(), 3);
  ODF_CHECK_EQ(x.dim(2), input_features_);
  ODF_CHECK_EQ(h.dim(2), hidden_features_);
  const ag::Var hx = ag::Concat({h, x}, 2);
  // One tap stack over [h, x] feeds both gates through the stacked weight
  // matrix; Slice splits the [B, n, 2H] pre-activations.
  const ag::Var taps = basis_->Stack(hx);
  const ag::Var gates =
      ag::Add(ag::BatchMatMul(taps, gates_theta_), gates_bias_);
  const ag::Var reset =
      ag::Sigmoid(ag::Slice(gates, 2, 0, hidden_features_));
  const ag::Var update =
      ag::Sigmoid(ag::Slice(gates, 2, hidden_features_, hidden_features_));
  const ag::Var gated = ag::Concat({ag::Mul(reset, h), x}, 2);
  const ag::Var candidate = ag::Tanh(candidate_conv_.Forward(gated));
  return ag::Add(ag::Mul(update, h),
                 ag::Mul(ag::AddScalar(ag::Neg(update), 1.0f), candidate));
}

ag::Var GcGruCell::InitialState(int64_t batch) const {
  return ag::Var::BatchZeros(Shape({batch, num_nodes(), hidden_features_}));
}

Seq2SeqGcGru::Seq2SeqGcGru(Tensor scaled_laplacian, int64_t feature_size,
                           int64_t hidden_size, int64_t order, Rng& rng,
                           int64_t num_layers)
    : Seq2SeqGcGru(GraphOperator::Make(std::move(scaled_laplacian)),
                   feature_size, hidden_size, order, rng, num_layers) {}

Seq2SeqGcGru::Seq2SeqGcGru(std::shared_ptr<const GraphOperator> op,
                           int64_t feature_size, int64_t hidden_size,
                           int64_t order, Rng& rng, int64_t num_layers)
    : Seq2SeqGcGru(GraphBasis::Chebyshev(std::move(op), order), feature_size,
                   hidden_size, rng, num_layers) {}

Seq2SeqGcGru::Seq2SeqGcGru(std::shared_ptr<GraphBasis> basis,
                           int64_t feature_size, int64_t hidden_size,
                           Rng& rng, int64_t num_layers)
    : basis_(std::move(basis)) {
  // The basis registers first so adaptive embeddings lead the checkpoint
  // PARM order; a parameter-free basis (Chebyshev/diffusion) contributes
  // nothing and keeps the legacy order byte-for-byte.
  RegisterSubmodule(basis_.get());
  BuildLayers(feature_size, hidden_size, num_layers, [&](int64_t in) {
    return std::make_unique<GcGruCell>(basis_, in, hidden_size, rng);
  });
  output_head_ =
      std::make_unique<ChebConv>(basis_, hidden_size, feature_size, rng);
  RegisterSubmodule(output_head_.get());
}

ag::Var Seq2SeqGcGru::Head(const ag::Var& state,
                           const std::vector<ag::Var>& /*encoder_states*/)
    const {
  return output_head_->Forward(state);
}

}  // namespace odf::nn
