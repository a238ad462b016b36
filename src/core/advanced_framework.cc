#include "core/advanced_framework.h"

#include <sstream>

#include "graph/coarsen.h"
#include "graph/laplacian.h"

namespace odf {

namespace ag = odf::autograd;

AdvancedFramework::AdvancedFramework(const RegionGraph& origin_graph,
                                     const RegionGraph& destination_graph,
                                     int64_t num_buckets, int64_t horizon,
                                     const AdvancedFrameworkConfig& config)
    : FactorizedForecaster(origin_graph.size(), destination_graph.size(),
                           num_buckets, horizon, config.lambda_r,
                           config.lambda_c),
      rank_(0),
      config_(config),
      init_rng_(config.seed) {
  ODF_CHECK_GE(config.num_levels, 1);

  const Tensor w_origin = origin_graph.ProximityMatrix(config.proximity);
  const Tensor w_destination =
      destination_graph.ProximityMatrix(config.proximity);
  origin_laplacian_ = Laplacian(w_origin);
  destination_laplacian_ = Laplacian(w_destination);

  // R captures origin-side features: its factorization convolves each
  // origin slice over the DESTINATION graph (paper Fig. 4); vice versa
  // for C.
  r_branch_ = BuildBranch(w_destination);
  c_branch_ = BuildBranch(w_origin);
  ODF_CHECK_EQ(r_branch_.output_nodes, c_branch_.output_nodes)
      << "origin/destination pooling hierarchies must agree on rank beta";
  rank_ = r_branch_.output_nodes;

  const int64_t factor_features = rank_ * num_buckets;
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
    r_basis_ = MakeGcGruBasis(w_origin, config_.origin_demand_correlation);
    r_seq_ = std::make_unique<nn::Seq2SeqGcGru>(
        r_basis_, factor_features, config_.gcgru_hidden, init_rng_,
        config_.gcgru_layers);
    c_basis_ =
        MakeGcGruBasis(w_destination, config_.destination_demand_correlation);
    c_seq_ = std::make_unique<nn::Seq2SeqGcGru>(
        c_basis_, factor_features, config_.gcgru_hidden, init_rng_,
        config_.gcgru_layers);
  } else {
    r_seq_ = std::make_unique<nn::Seq2SeqGru>(
        num_origins() * factor_features, 32, init_rng_);
    c_seq_ = std::make_unique<nn::Seq2SeqGru>(
        num_destinations() * factor_features, 32, init_rng_);
  }
  RegisterSubmodule(r_seq_.get());
  RegisterSubmodule(c_seq_.get());
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
      r_basis_->SetOperators(MakeScaledLaplacianOperator(w_origin));
      c_basis_->SetOperators(MakeScaledLaplacianOperator(w_destination));
      break;
    case nn::GraphOpKind::kDiffusion: {
      auto [r_fwd, r_bwd] = MakeDiffusionOperators(w_origin);
      r_basis_->SetOperators(std::move(r_fwd), std::move(r_bwd));
      auto [c_fwd, c_bwd] = MakeDiffusionOperators(w_destination);
      c_basis_->SetOperators(std::move(c_fwd), std::move(c_bwd));
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
    const Tensor& w) {
  FactorBranch branch;
  const int64_t n = w.dim(0);

  if (!config_.use_graph_factorization) {
    // Ablation: BF-style dense factorization of each slice.
    int64_t out_nodes = n;
    for (int64_t l = 0; l < config_.num_levels; ++l) {
      out_nodes = (out_nodes + 1) / 2;
    }
    branch.fc = std::make_unique<nn::Linear>(
        n * num_buckets(), out_nodes * num_buckets(), init_rng_);
    RegisterSubmodule(branch.fc.get());
    branch.output_nodes = out_nodes;
    return branch;
  }

  Tensor current_w = w;
  int64_t nodes = n;
  for (int64_t level = 0; level < config_.num_levels; ++level) {
    const int64_t in_features = level == 0 ? num_buckets()
                                           : config_.conv_filters;
    const int64_t out_features = level == config_.num_levels - 1
                                     ? num_buckets()
                                     : config_.conv_filters;
    branch.convs.push_back(std::make_unique<nn::ChebConv>(
        MakeScaledLaplacianOperator(current_w), in_features, out_features,
        config_.cheb_order, init_rng_));
    RegisterSubmodule(branch.convs.back().get());

    nn::Clusters clusters;
    if (config_.use_cluster_pooling) {
      CoarseningLevel coarse = CoarsenOnce(current_w);
      clusters = coarse.clusters;
      current_w = coarse.coarse_w;
    } else {
      clusters = NaiveClusters(nodes, 2);
      current_w = CoarseWeights(current_w, clusters);
    }
    nodes = static_cast<int64_t>(clusters.size());
    branch.clusters.push_back(
        std::make_shared<const nn::Clusters>(std::move(clusters)));
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
    return ag::Reshape(out, {b, branch.output_nodes, num_buckets()});
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

AdvancedFramework::Factors AdvancedFramework::Factorize(const ag::Var& x,
                                                        bool train,
                                                        Rng& rng) const {
  // Spatial factorization of one historical tensor x [B, N, N', K]
  // (Sec. V-A).
  const int64_t b = x.dim(0);
  const int64_t n = num_origins();
  const int64_t m = num_destinations();
  const int64_t k = num_buckets();
  const int64_t beta = rank_;

  // R branch: origin slices [B·N, N', K] convolved on the dest graph.
  ag::Var r_slices = ag::Reshape(x, {b * n, m, k});
  ag::Var r_fact = ApplyBranch(r_branch_, r_slices);  // [B·N, β, K]
  ag::Var r_nodes = ag::Reshape(r_fact, {b, n, beta * k});
  ag::Var r = ag::Dropout(r_nodes, dropout(train), train, rng);

  // C branch: destination slices [B·N', N, K] on the origin graph.
  ag::Var c_slices = ag::Reshape(ag::Permute(x, {0, 2, 1, 3}), {b * m, n, k});
  ag::Var c_fact = ApplyBranch(c_branch_, c_slices);  // [B·N', β, K]
  ag::Var c_nodes = ag::Reshape(c_fact, {b, m, beta * k});
  return {std::move(r), ag::Dropout(c_nodes, dropout(train), train, rng)};
}

AdvancedFramework::FactorSequences AdvancedFramework::ForecastFactors(
    const FactorSequences& history) const {
  // Spatio-temporal forecasting (Sec. V-B).
  if (config_.use_gcgru) {
    return {r_seq_->Forward(history.r, horizon()),
            c_seq_->Forward(history.c, horizon())};
  }
  // Ablation: flatten node features and use a plain GRU.
  const int64_t b = history.r.front().dim(0);
  const int64_t n = num_origins();
  const int64_t m = num_destinations();
  const int64_t features = rank_ * num_buckets();
  auto reshape_all = [](const std::vector<ag::Var>& seq,
                        const std::vector<int64_t>& dims) {
    std::vector<ag::Var> out;
    for (const ag::Var& v : seq) out.push_back(ag::Reshape(v, dims));
    return out;
  };
  const std::vector<ag::Var> r_flat =
      reshape_all(history.r, {b, n * features});
  const std::vector<ag::Var> c_flat =
      reshape_all(history.c, {b, m * features});
  return {reshape_all(r_seq_->Forward(r_flat, horizon()), {b, n, features}),
          reshape_all(c_seq_->Forward(c_flat, horizon()), {b, m, features})};
}

AdvancedFramework::Factors AdvancedFramework::StepFactors(
    const FactorSequences& forecast, size_t j, int64_t batch) const {
  // The forecast node features are the factors, C node-major.
  return {ag::Reshape(forecast.r[j],
                      {batch, num_origins(), rank_, num_buckets()}),
          ag::Permute(ag::Reshape(forecast.c[j], {batch, num_destinations(),
                                                  rank_, num_buckets()}),
                      {0, 2, 1, 3})};  // -> [B, β, N', K]
}

AdvancedFramework::Factors AdvancedFramework::Regularizers(
    const Factors& factors) const {
  if (!config_.use_dirichlet_regularizer) {
    return FactorizedForecaster::Regularizers(factors);
  }
  // ||R̂||²_W and ||Ĉ||²_W' (Eq. 11): Dirichlet energy over the node
  // dimension — origin regions for R, destination regions for C.
  const int64_t b = factors.r.dim(0);
  const int64_t features = rank_ * num_buckets();
  const ag::Var r_nodes =
      ag::Reshape(factors.r, {b, num_origins(), features});
  const ag::Var c_nodes =
      ag::Reshape(ag::Permute(factors.c, {0, 2, 1, 3}),
                  {b, num_destinations(), features});
  return {ag::DirichletEnergy(r_nodes, origin_laplacian_, 1),
          ag::DirichletEnergy(c_nodes, destination_laplacian_, 1)};
}

}  // namespace odf
