#ifndef ODF_CORE_ADVANCED_FRAMEWORK_H_
#define ODF_CORE_ADVANCED_FRAMEWORK_H_

#include <memory>
#include <string>
#include <vector>

#include "core/neural_forecaster.h"
#include "graph/region_graph.h"
#include "nn/cheb_conv.h"
#include "nn/gcgru.h"
#include "nn/graph_pool.h"
#include "nn/gru.h"
#include "nn/linear.h"

namespace odf {

/// Hyper-parameters of the advanced framework (paper Sec. V, Table I) plus
/// the ablation switches called out in DESIGN.md §5.
struct AdvancedFrameworkConfig {
  /// Chebyshev order S of every graph convolution.
  int64_t cheb_order = 3;
  /// Filters Q of the intermediate factorization convolutions.
  int64_t conv_filters = 8;
  /// Conv+pool repetitions; each level halves the node count, so the
  /// factorization rank is β ≈ n / 2^num_levels.
  int64_t num_levels = 2;
  /// Hidden features per node inside the CNRNN gates.
  int64_t gcgru_hidden = 16;
  /// Stacked CNRNN layers (Table I's "CNRNN with n layers").
  int64_t gcgru_layers = 1;
  /// Regularization weights λ_R, λ_C of Eq. 11.
  float lambda_r = 1e-4f;
  float lambda_c = 1e-4f;
  /// Proximity-matrix parameters σ and α (Fig. 14 sweeps these).
  ProximityParams proximity{1.0, 2.0};
  /// Average vs max pooling in Eq. 6.
  nn::PoolKind pool_kind = nn::PoolKind::kAverage;

  /// Graph operator family of the forecasting-stage convolutions
  /// (nn/graph_basis.h): the paper's Chebyshev basis, DCRNN-style
  /// dual-direction diffusion, or ODCRN-style learned adaptive adjacency.
  nn::GraphOpKind graph_op = nn::GraphOpKind::kChebyshev;
  /// Embedding width of the adaptive adjacency (kAdaptive only).
  int64_t adaptive_embed_dim = 8;
  /// Optional demand-correlation graphs (graph/laplacian.h
  /// DemandCorrelationGraph) joined to the Chebyshev basis as a second
  /// static component (kChebyshev only). Empty tensors disable them. Set by
  /// callers once training data exists — the model is constructed before
  /// any trips are seen.
  Tensor origin_demand_correlation;       // n×n
  Tensor destination_demand_correlation;  // n'×n'
  /// Marks the model as the dynamic-graph variant ("AFD"): the scenario
  /// harness rebuilds its forecasting-stage operators per interval from
  /// Scenario::ProximityMatrixAt via SetGcGruGraphs. Construction and
  /// training are identical to the static AF with the same seed.
  bool dynamic_graph = false;

  // Ablation switches (all true = the paper's AF).
  /// GCNN factorization stage (false → BF-style FC factorization).
  bool use_graph_factorization = true;
  /// Graclus cluster-ordered pooling (false → ascending-id pooling, the
  /// ordering the paper argues is inferior).
  bool use_cluster_pooling = true;
  /// CNRNN forecasting (false → plain seq2seq GRU on flattened factors).
  bool use_gcgru = true;
  /// Dirichlet-norm factor regularizer (false → plain Frobenius as in BF).
  bool use_dirichlet_regularizer = true;

  uint64_t seed = 13;
};

/// AF — the advanced framework (paper Sec. V): dual-stage spatial modelling.
/// Stage 1 factorizes each sparse tensor with Cheby-Net graph convolutions
/// and cluster-ordered pooling over the origin/destination proximity graphs;
/// stage 2 forecasts the factor sequences with CNRNNs (graph-convolutional
/// GRUs); recovery is shared with BF. Trained with the Dirichlet-regularized
/// masked loss (Eq. 11).
class AdvancedFramework : public FactorizedForecaster {
 public:
  AdvancedFramework(const RegionGraph& origin_graph,
                    const RegionGraph& destination_graph,
                    int64_t num_buckets, int64_t horizon,
                    const AdvancedFrameworkConfig& config);

  std::string name() const override {
    return config_.dynamic_graph ? "AFD" : "AF";
  }
  std::string Describe() const override;

  /// Factorization rank β implied by the pooling hierarchy.
  int64_t rank() const { return rank_; }

  const AdvancedFrameworkConfig& config() const { return config_; }

  /// Swaps the forecasting-stage (GCGRU) graph operators for freshly built
  /// ones over per-interval proximity matrices — the dynamic-graph path fed
  /// by Scenario::ProximityMatrixAt. Builds a fresh operator snapshot per
  /// call (graph/laplacian.h immutability contract); for Chebyshev the
  /// memoized factory deduplicates recurring matrices (a closure that lifts
  /// cache-hits the clean graph's operator). The factorization branches
  /// keep their static coarsened pyramids. Requires use_gcgru and a
  /// non-adaptive graph_op; weights are untouched.
  void SetGcGruGraphs(const Tensor& w_origin, const Tensor& w_destination);

  /// Restores the clean construction-time graphs after a dynamic sweep.
  void ResetGcGruGraphs();

 private:
  /// One conv+pool factorization branch over one graph.
  struct FactorBranch {
    std::vector<std::unique_ptr<nn::ChebConv>> convs;
    std::vector<std::shared_ptr<const nn::Clusters>> clusters;  // per level
    std::unique_ptr<nn::Linear> fc;  // ablation path
    int64_t output_nodes = 0;
  };

  Factors Factorize(const autograd::Var& x, bool train,
                    Rng& rng) const override;
  FactorSequences ForecastFactors(
      const FactorSequences& history) const override;
  Factors StepFactors(const FactorSequences& forecast, size_t j,
                      int64_t batch) const override;
  Factors Regularizers(const Factors& factors) const override;

  FactorBranch BuildBranch(const Tensor& w);
  /// Applies a branch to slices [B·slices, n, K] -> [B·slices, β, K].
  autograd::Var ApplyBranch(const FactorBranch& branch,
                            const autograd::Var& slices) const;

  int64_t rank_;
  AdvancedFrameworkConfig config_;
  Rng init_rng_;

  /// Builds the forecasting-stage tap stack for proximity matrix `w` per
  /// config_.graph_op (`correlation` joins a Chebyshev basis when set).
  std::shared_ptr<nn::GraphBasis> MakeGcGruBasis(const Tensor& w,
                                                 const Tensor& correlation);

  Tensor origin_laplacian_;       // L (unscaled, Dirichlet norm)
  Tensor destination_laplacian_;  // L'
  Tensor gcgru_w_origin_;         // clean proximity matrices for
  Tensor gcgru_w_destination_;    // ResetGcGruGraphs (use_gcgru only)

  FactorBranch r_branch_;  // convolves over the destination graph
  FactorBranch c_branch_;  // convolves over the origin graph

  /// Forecasting stage: a CNRNN per side, or the plain-GRU ablation.
  std::unique_ptr<nn::Seq2Seq> r_seq_;
  std::unique_ptr<nn::Seq2Seq> c_seq_;
  /// The CNRNNs' tap stacks (use_gcgru only), swapped by SetGcGruGraphs.
  std::shared_ptr<nn::GraphBasis> r_basis_;
  std::shared_ptr<nn::GraphBasis> c_basis_;
};

}  // namespace odf

#endif  // ODF_CORE_ADVANCED_FRAMEWORK_H_
