#include "core/advanced_framework.h"

#include <sstream>

#include "autograd/capture.h"
#include "core/loss_util.h"
#include "core/recovery.h"
#include "graph/coarsen.h"
#include "graph/laplacian.h"

namespace odf {

namespace ag = odf::autograd;

AdvancedFramework::AdvancedFramework(const RegionGraph& origin_graph,
                                     const RegionGraph& destination_graph,
                                     int64_t num_buckets, int64_t horizon,
                                     const AdvancedFrameworkConfig& config)
    : num_origins_(origin_graph.size()),
      num_destinations_(destination_graph.size()),
      num_buckets_(num_buckets),
      horizon_(horizon),
      rank_(0),
      config_(config),
      init_rng_(config.seed),
      temperature_(RegisterParameter(Tensor::Scalar(4.0f))) {
  ODF_CHECK_GT(horizon, 0);
  ODF_CHECK_GE(config.num_levels, 1);

  const Tensor w_origin = origin_graph.ProximityMatrix(config.proximity);
  const Tensor w_destination =
      destination_graph.ProximityMatrix(config.proximity);
  origin_laplacian_ = Laplacian(w_origin);
  destination_laplacian_ = Laplacian(w_destination);

  // R captures origin-side features: its factorization convolves each
  // origin slice over the DESTINATION graph (paper Fig. 4); vice versa
  // for C.
  r_branch_ = BuildBranch(w_destination, num_origins_);
  c_branch_ = BuildBranch(w_origin, num_destinations_);
  ODF_CHECK_EQ(r_branch_.output_nodes, c_branch_.output_nodes)
      << "origin/destination pooling hierarchies must agree on rank beta";
  rank_ = r_branch_.output_nodes;

  const int64_t factor_features = rank_ * num_buckets_;
  if (config_.use_gcgru) {
    // Forecasting stage: CNRNN over the graph matching the factor's node
    // dimension (origin graph for R, destination graph for C; Sec. V-B).
    // The tap stack comes from one GraphBasis per graph, shared by every
    // encoder/decoder cell and the output head of that branch; the operator
    // family is config_.graph_op. For the Chebyshev family the memoized
    // operator factory also returns the identical instance across model
    // rebuilds (e.g. constructing a serving copy before loading a
    // checkpoint), so the power iteration runs once per distinct graph per
    // process.
    gcgru_w_origin_ = w_origin;
    gcgru_w_destination_ = w_destination;
    // Basis construction order (r before its cells, then c) pins the RNG
    // stream: adaptive embeddings draw origin-side first.
    auto r_basis =
        MakeGcGruBasis(w_origin, config_.origin_demand_correlation);
    r_seq_gc_ = std::make_unique<nn::Seq2SeqGcGru>(
        std::move(r_basis), factor_features, config_.gcgru_hidden, init_rng_,
        config_.gcgru_layers);
    auto c_basis =
        MakeGcGruBasis(w_destination, config_.destination_demand_correlation);
    c_seq_gc_ = std::make_unique<nn::Seq2SeqGcGru>(
        std::move(c_basis), factor_features, config_.gcgru_hidden, init_rng_,
        config_.gcgru_layers);
    RegisterSubmodule(r_seq_gc_.get());
    RegisterSubmodule(c_seq_gc_.get());
  } else {
    r_seq_fc_ = std::make_unique<nn::Seq2SeqGru>(
        num_origins_ * factor_features, 32, init_rng_);
    c_seq_fc_ = std::make_unique<nn::Seq2SeqGru>(
        num_destinations_ * factor_features, 32, init_rng_);
    RegisterSubmodule(r_seq_fc_.get());
    RegisterSubmodule(c_seq_fc_.get());
  }
}

std::shared_ptr<nn::GraphBasis> AdvancedFramework::MakeGcGruBasis(
    const Tensor& w, const Tensor& correlation) {
  switch (config_.graph_op) {
    case nn::GraphOpKind::kChebyshev: {
      std::shared_ptr<const GraphOperator> corr_op;
      if (correlation.numel() > 0) {
        corr_op = MakeScaledLaplacianOperator(correlation);
      }
      return nn::GraphBasis::Chebyshev(MakeScaledLaplacianOperator(w),
                                       config_.cheb_order,
                                       std::move(corr_op));
    }
    case nn::GraphOpKind::kDiffusion: {
      auto [fwd, bwd] = MakeDiffusionOperators(w);
      return nn::GraphBasis::Diffusion(std::move(fwd), std::move(bwd),
                                       config_.cheb_order);
    }
    case nn::GraphOpKind::kAdaptive:
      return nn::GraphBasis::Adaptive(w.dim(0), config_.adaptive_embed_dim,
                                      config_.cheb_order, init_rng_);
  }
  ODF_CHECK(false) << "unreachable graph_op";
  return nullptr;
}

void AdvancedFramework::SetGcGruGraphs(const Tensor& w_origin,
                                       const Tensor& w_destination) {
  ODF_CHECK(config_.use_gcgru)
      << "dynamic graphs need the GCGRU forecasting stage";
  switch (config_.graph_op) {
    case nn::GraphOpKind::kChebyshev:
      r_seq_gc_->basis()->SetOperators(MakeScaledLaplacianOperator(w_origin));
      c_seq_gc_->basis()->SetOperators(
          MakeScaledLaplacianOperator(w_destination));
      break;
    case nn::GraphOpKind::kDiffusion: {
      auto [r_fwd, r_bwd] = MakeDiffusionOperators(w_origin);
      r_seq_gc_->basis()->SetOperators(std::move(r_fwd), std::move(r_bwd));
      auto [c_fwd, c_bwd] = MakeDiffusionOperators(w_destination);
      c_seq_gc_->basis()->SetOperators(std::move(c_fwd), std::move(c_bwd));
      break;
    }
    case nn::GraphOpKind::kAdaptive:
      ODF_CHECK(false)
          << "adaptive adjacency is learned, not derived from a proximity "
             "matrix; there is nothing to rebuild per interval";
  }
}

void AdvancedFramework::ResetGcGruGraphs() {
  SetGcGruGraphs(gcgru_w_origin_, gcgru_w_destination_);
}

AdvancedFramework::FactorBranch AdvancedFramework::BuildBranch(
    const Tensor& w, int64_t /*num_slices*/) {
  FactorBranch branch;
  const int64_t n = w.dim(0);

  if (!config_.use_graph_factorization) {
    // Ablation: BF-style dense factorization of each slice.
    int64_t out_nodes = n;
    for (int64_t l = 0; l < config_.num_levels; ++l) {
      out_nodes = (out_nodes + 1) / 2;
    }
    branch.fc = std::make_unique<nn::Linear>(
        n * num_buckets_, out_nodes * num_buckets_, init_rng_);
    RegisterSubmodule(branch.fc.get());
    branch.output_nodes = out_nodes;
    return branch;
  }

  Tensor current_w = w;
  int64_t nodes = n;
  for (int64_t level = 0; level < config_.num_levels; ++level) {
    const int64_t in_features = level == 0 ? num_buckets_
                                           : config_.conv_filters;
    const int64_t out_features = level == config_.num_levels - 1
                                     ? num_buckets_
                                     : config_.conv_filters;
    branch.convs.push_back(std::make_unique<nn::ChebConv>(
        MakeScaledLaplacianOperator(current_w), in_features, out_features,
        config_.cheb_order, init_rng_));
    RegisterSubmodule(branch.convs.back().get());

    std::vector<std::vector<int64_t>> clusters;
    if (config_.use_cluster_pooling) {
      CoarseningLevel coarse = CoarsenOnce(current_w);
      clusters = coarse.clusters;
      current_w = coarse.coarse_w;
    } else {
      clusters = NaiveClusters(nodes, 2);
      current_w = CoarseWeights(current_w, clusters);
    }
    nodes = static_cast<int64_t>(clusters.size());
    branch.clusters.push_back(std::move(clusters));
  }
  branch.output_nodes = nodes;
  return branch;
}

ag::Var AdvancedFramework::ApplyBranch(const FactorBranch& branch,
                                       const ag::Var& slices) const {
  if (branch.fc != nullptr) {
    const int64_t b = slices.dim(0);
    ag::Var flat = ag::Reshape(slices, {b, slices.dim(1) * slices.dim(2)});
    ag::Var out = ag::Tanh(branch.fc->Forward(flat));
    return ag::Reshape(out, {b, branch.output_nodes, num_buckets_});
  }
  ag::Var x = slices;
  for (size_t level = 0; level < branch.convs.size(); ++level) {
    x = ag::Relu(branch.convs[level]->Forward(x));
    x = nn::GraphPool(x, branch.clusters[level], config_.pool_kind);
  }
  return x;
}

std::string AdvancedFramework::Describe() const {
  std::ostringstream os;
  os << "2x[";
  if (config_.use_graph_factorization) {
    for (size_t l = 0; l < r_branch_.convs.size(); ++l) {
      os << (l == 0 ? "" : "-") << "GC" << r_branch_.convs[l]->out_features()
         << "^" << config_.cheb_order << "-P2";
    }
  } else {
    os << "FC";
  }
  os << " -> " << (config_.use_gcgru ? "CNRNN" : "GRU") << "_"
     << (config_.use_gcgru ? config_.gcgru_hidden : 32) << "], beta="
     << rank_;
  return os.str();
}

AdvancedFramework::Forward AdvancedFramework::Run(const Batch& batch,
                                                  bool train,
                                                  Rng& rng) const {
  const int64_t b = batch.batch_size();
  const int64_t n = num_origins_;
  const int64_t m = num_destinations_;
  const int64_t k = num_buckets_;
  const int64_t beta = rank_;
  const float dropout = train ? dropout_rate() : 0.0f;

  // Spatial factorization of every historical tensor (Sec. V-A).
  std::vector<ag::Var> r_seq;
  std::vector<ag::Var> c_seq;
  r_seq.reserve(batch.inputs.size());
  c_seq.reserve(batch.inputs.size());
  for (size_t t = 0; t < batch.inputs.size(); ++t) {
    ag::ScopedPhase phase("factorize");
    // [B, N, N', K]
    ag::Var x = ag::Var::BatchInput(batch.inputs[t], static_cast<int64_t>(t));

    // R branch: origin slices [B·N, N', K] convolved on the dest graph.
    ag::Var r_slices = ag::Reshape(x, {b * n, m, k});
    ag::Var r_fact = ApplyBranch(r_branch_, r_slices);  // [B·N, β, K]
    ag::Var r_nodes = ag::Reshape(r_fact, {b, n, beta * k});
    r_seq.push_back(ag::Dropout(r_nodes, dropout, train, rng));

    // C branch: destination slices [B·N', N, K] on the origin graph.
    ag::Var c_slices =
        ag::Reshape(ag::Permute(x, {0, 2, 1, 3}), {b * m, n, k});
    ag::Var c_fact = ApplyBranch(c_branch_, c_slices);  // [B·N', β, K]
    ag::Var c_nodes = ag::Reshape(c_fact, {b, m, beta * k});
    c_seq.push_back(ag::Dropout(c_nodes, dropout, train, rng));
  }

  // Spatio-temporal forecasting (Sec. V-B).
  std::vector<ag::Var> r_outs;
  std::vector<ag::Var> c_outs;
  if (config_.use_gcgru) {
    r_outs = r_seq_gc_->Forward(r_seq, horizon_);
    c_outs = c_seq_gc_->Forward(c_seq, horizon_);
  } else {
    // Ablation: flatten node features and use a plain GRU.
    std::vector<ag::Var> r_flat;
    std::vector<ag::Var> c_flat;
    for (const auto& v : r_seq) {
      r_flat.push_back(ag::Reshape(v, {b, n * beta * k}));
    }
    for (const auto& v : c_seq) {
      c_flat.push_back(ag::Reshape(v, {b, m * beta * k}));
    }
    for (auto& v : r_seq_fc_->Forward(r_flat, horizon_)) {
      r_outs.push_back(ag::Reshape(v, {b, n, beta * k}));
    }
    for (auto& v : c_seq_fc_->Forward(c_flat, horizon_)) {
      c_outs.push_back(ag::Reshape(v, {b, m, beta * k}));
    }
  }

  // Recovery (shared with BF).
  ag::ScopedPhase phase("recover");
  Forward forward;
  for (int64_t j = 0; j < horizon_; ++j) {
    ag::Var r = ag::Reshape(r_outs[static_cast<size_t>(j)],
                            {b, n, beta, k});
    ag::Var c = ag::Permute(
        ag::Reshape(c_outs[static_cast<size_t>(j)], {b, m, beta, k}),
        {0, 2, 1, 3});  // -> [B, β, N', K]
    forward.predictions.push_back(
        RecoverFullTensorWithTemperature(r, c, temperature_));
    forward.r_factors.push_back(r);
    forward.c_factors.push_back(c);
  }
  return forward;
}

ag::Var AdvancedFramework::Loss(const Batch& batch, bool train, Rng& rng) {
  Forward forward = Run(batch, train, rng);
  ag::Var loss = MaskedForecastError(forward.predictions, batch);
  const int64_t b = batch.batch_size();
  const float inv_batch = 1.0f / static_cast<float>(b);
  for (int64_t j = 0; j < horizon_; ++j) {
    const ag::Var& r = forward.r_factors[static_cast<size_t>(j)];
    const ag::Var& c = forward.c_factors[static_cast<size_t>(j)];
    if (config_.use_dirichlet_regularizer) {
      // ||R̂||²_W and ||Ĉ||²_W' (Eq. 11): Dirichlet energy over the node
      // dimension — origin regions for R, destination regions for C.
      ag::Var r_nodes = ag::Reshape(r, {b, num_origins_,
                                        rank_ * num_buckets_});
      ag::Var c_nodes = ag::Reshape(
          ag::Permute(c, {0, 2, 1, 3}),
          {b, num_destinations_, rank_ * num_buckets_});
      loss = ag::Add(loss, ag::MulScalar(
                               ag::DirichletEnergy(r_nodes,
                                                   origin_laplacian_, 1),
                               config_.lambda_r * inv_batch));
      loss = ag::Add(
          loss, ag::MulScalar(ag::DirichletEnergy(
                                  c_nodes, destination_laplacian_, 1),
                              config_.lambda_c * inv_batch));
    } else {
      loss = ag::Add(loss, ag::MulScalar(ag::FrobeniusSquared(r),
                                         config_.lambda_r * inv_batch));
      loss = ag::Add(loss, ag::MulScalar(ag::FrobeniusSquared(c),
                                         config_.lambda_c * inv_batch));
    }
  }
  return loss;
}

std::vector<Tensor> AdvancedFramework::Predict(const Batch& batch) {
  Rng rng(0);
  Forward forward = Run(batch, /*train=*/false, rng);
  std::vector<Tensor> predictions;
  predictions.reserve(forward.predictions.size());
  for (const auto& p : forward.predictions) predictions.push_back(p.value());
  return predictions;
}

}  // namespace odf
