#ifndef ODF_SHARD_PARTITION_H_
#define ODF_SHARD_PARTITION_H_

#include <cstdint>
#include <vector>

#include "graph/region_graph.h"
#include "tensor/tensor.h"

namespace odf::shard {

/// Where one city OD pair lives in a sharded ensemble: the unit that owns
/// it and the (row, col) cell of that unit's [n_u, n_u, K] forecast.
struct UnitCell {
  int64_t unit;
  int64_t row;
  int64_t col;
};

/// A disjoint cut of the city's regions into shards (docs/sharding.md).
///
/// Shards are canonically ordered by their smallest member id and each
/// shard's member list is ascending, so a partition's bytes are a pure
/// function of (proximity matrix, num_shards) — shard membership determines
/// model weights downstream, which makes this determinism load-bearing
/// (shard_test pins it across runs and thread counts).
///
/// The partition is also the one owner of the ensemble's layout: the units
/// are the shards in order, then (when there are two or more shards) the
/// cross-shard boundary unit as unit num_shards(). Every OD pair belongs to
/// exactly one unit; Locate names it and MergeUnits assembles the city.
struct ShardPartition {
  int64_t num_regions = 0;
  /// Per shard, the global region ids it owns (ascending, non-empty).
  std::vector<std::vector<int64_t>> members;
  /// Region id -> owning shard.
  std::vector<int32_t> shard_of;
  /// Region id -> index within its shard's member list.
  std::vector<int32_t> local_of;

  int64_t num_shards() const {
    return static_cast<int64_t>(members.size());
  }
  bool SameShard(int64_t a, int64_t b) const {
    return shard_of[static_cast<size_t>(a)] ==
           shard_of[static_cast<size_t>(b)];
  }
  /// Shards, plus the boundary unit when there is more than one shard.
  int64_t num_units() const {
    return num_shards() + (num_shards() > 1 ? 1 : 0);
  }

  /// The unit owning (origin, destination): an intra-shard pair lives in
  /// its shard at the regions' local ids, a cross-shard pair in the
  /// boundary unit at (origin's shard, destination's shard).
  UnitCell Locate(int64_t origin, int64_t destination) const {
    const int32_t so = shard_of[static_cast<size_t>(origin)];
    const int32_t sd = shard_of[static_cast<size_t>(destination)];
    if (so == sd) {
      return {so, local_of[static_cast<size_t>(origin)],
              local_of[static_cast<size_t>(destination)]};
    }
    return {num_shards(), so, sd};
  }

  /// The full-city [N, N, K] tensor of one horizon step, from that step of
  /// every unit's forecast in unit order (`units.size() == num_units()`).
  /// Unit u's tensor is [n_u, n_u, K], optionally with a leading batch-1
  /// axis. Each city cell is a copy of the cell Locate names.
  Tensor MergeUnits(const std::vector<const Tensor*>& units) const;
};

/// Cuts `graph` into (at most) `num_shards` spatially coherent shards by
/// running the Graclus-style pairwise coarsener (graph/coarsen.h) on the
/// proximity matrix until ~4·num_shards clusters remain, then greedily
/// packing clusters into shards balanced by region count (largest cluster
/// first, into the currently smallest shard; ties broken by lowest id at
/// every step, so the result is deterministic). Pairwise coarsening only
/// merges proximity neighbours, so shards inherit the paper's "pooled
/// elements are spatial neighbours" property at the partition level.
///
/// `num_shards` is clamped to [1, graph.size()]. `proximity` must be the
/// symmetric zero-diagonal matrix of `graph` (RegionGraph::ProximityMatrix).
ShardPartition PartitionRegions(const RegionGraph& graph,
                                const Tensor& proximity, int64_t num_shards);

/// Sub-graph of one shard: the member regions, keeping their centroids (so
/// local proximity matrices agree with the city's geometry). Local region
/// ids follow the shard's member order.
RegionGraph ShardGraph(const RegionGraph& city,
                       const std::vector<int64_t>& members);

/// Coarse super-graph with one region per shard, located at the mean
/// centroid of its members — the graph the cross-shard boundary model
/// runs on.
RegionGraph BoundaryGraph(const RegionGraph& city,
                          const ShardPartition& partition);

}  // namespace odf::shard

#endif  // ODF_SHARD_PARTITION_H_
