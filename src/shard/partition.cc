#include "shard/partition.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "graph/coarsen.h"
#include "util/check.h"

namespace odf::shard {
namespace {

/// Packs `clusters` into `num_shards` spatially coherent bins of bounded
/// size by growing one shard at a time: each shard seeds from the
/// unassigned cluster containing the lowest region id, then repeatedly
/// accretes the unassigned cluster nearest its running centroid until
/// taking the next one would exceed ⌈n/num_shards⌉ regions. Leftover
/// clusters (possible when coarse clusters don't tile the cap exactly)
/// join the nearest shard. Every step is sequential with strict-< and
/// lowest-id tie-breaks, so the result is deterministic.
std::vector<std::vector<int64_t>> PackClusters(
    const std::vector<std::vector<int64_t>>& clusters, int64_t num_shards,
    const RegionGraph& graph) {
  const size_t count = clusters.size();
  std::vector<double> cx(count, 0.0);
  std::vector<double> cy(count, 0.0);
  std::vector<int64_t> min_id(count, 0);
  for (size_t c = 0; c < count; ++c) {
    const auto& cluster = clusters[c];
    for (int64_t r : cluster) {
      cx[c] += graph.region(r).centroid_x_km;
      cy[c] += graph.region(r).centroid_y_km;
    }
    const double inv = 1.0 / static_cast<double>(cluster.size());
    cx[c] *= inv;
    cy[c] *= inv;
    min_id[c] = *std::min_element(cluster.begin(), cluster.end());
  }

  struct Bin {
    std::vector<int64_t> members;
    double sum_x = 0.0;  // of member-region centroids
    double sum_y = 0.0;
  };
  std::vector<Bin> bins(static_cast<size_t>(num_shards));
  const int64_t cap =
      (graph.size() + num_shards - 1) / num_shards;  // ⌈n/P⌉
  std::vector<bool> taken(count, false);

  auto add = [&graph](Bin& bin, const std::vector<int64_t>& cluster) {
    for (int64_t r : cluster) {
      bin.members.push_back(r);
      bin.sum_x += graph.region(r).centroid_x_km;
      bin.sum_y += graph.region(r).centroid_y_km;
    }
  };
  auto nearest_to = [&](double x, double y) {
    int64_t best = -1;
    double best_d2 = 0.0;
    for (size_t c = 0; c < count; ++c) {
      if (taken[c]) continue;
      const double dx = cx[c] - x;
      const double dy = cy[c] - y;
      const double d2 = dx * dx + dy * dy;
      if (best < 0 || d2 < best_d2) {
        best = static_cast<int64_t>(c);
        best_d2 = d2;
      }
    }
    return best;
  };

  for (int64_t s = 0; s < num_shards; ++s) {
    // Seed: the unassigned cluster anchored at the lowest region id — a
    // corner/edge of the unassigned territory, so growth sweeps inward.
    int64_t seed = -1;
    for (size_t c = 0; c < count; ++c) {
      if (taken[c]) continue;
      if (seed < 0 || min_id[c] < min_id[static_cast<size_t>(seed)]) {
        seed = static_cast<int64_t>(c);
      }
    }
    if (seed < 0) break;  // fewer clusters than shards
    Bin& bin = bins[static_cast<size_t>(s)];
    taken[static_cast<size_t>(seed)] = true;
    add(bin, clusters[static_cast<size_t>(seed)]);
    while (static_cast<int64_t>(bin.members.size()) < cap) {
      const double inv = 1.0 / static_cast<double>(bin.members.size());
      const int64_t next = nearest_to(bin.sum_x * inv, bin.sum_y * inv);
      if (next < 0) break;
      const auto& cluster = clusters[static_cast<size_t>(next)];
      if (static_cast<int64_t>(bin.members.size() + cluster.size()) > cap) {
        break;
      }
      taken[static_cast<size_t>(next)] = true;
      add(bin, cluster);
    }
  }

  // Leftovers join the nearest non-empty bin.
  for (size_t c = 0; c < count; ++c) {
    if (taken[c]) continue;
    int64_t best = -1;
    double best_d2 = 0.0;
    for (int64_t s = 0; s < num_shards; ++s) {
      const Bin& bin = bins[static_cast<size_t>(s)];
      if (bin.members.empty()) continue;
      const double inv = 1.0 / static_cast<double>(bin.members.size());
      const double dx = bin.sum_x * inv - cx[c];
      const double dy = bin.sum_y * inv - cy[c];
      const double d2 = dx * dx + dy * dy;
      if (best < 0 || d2 < best_d2) {
        best = s;
        best_d2 = d2;
      }
    }
    add(bins[static_cast<size_t>(best)], clusters[c]);
  }

  std::vector<std::vector<int64_t>> out;
  out.reserve(bins.size());
  for (Bin& bin : bins) out.push_back(std::move(bin.members));
  return out;
}

}  // namespace

ShardPartition PartitionRegions(const RegionGraph& graph,
                                const Tensor& proximity, int64_t num_shards) {
  const int64_t n = graph.size();
  ODF_CHECK_GT(n, 0);
  ODF_CHECK_EQ(proximity.dim(0), n);
  ODF_CHECK_EQ(proximity.dim(1), n);
  num_shards = std::max<int64_t>(1, std::min(num_shards, n));

  ShardPartition out;
  out.num_regions = n;

  if (num_shards == 1) {
    out.members.emplace_back(n);
    std::iota(out.members[0].begin(), out.members[0].end(), 0);
  } else {
    // Identity clustering, then pairwise-coarsen until the cluster count is
    // within packing range of the shard count. Each level roughly halves,
    // so the loop is O(log n); a level that fails to shrink (e.g. an
    // edgeless proximity matrix) terminates it.
    std::vector<std::vector<int64_t>> clusters(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) clusters[static_cast<size_t>(i)] = {i};
    Tensor w = proximity;
    while (static_cast<int64_t>(clusters.size()) > 8 * num_shards) {
      const CoarseningLevel level = CoarsenOnce(w);
      if (level.clusters.size() >= clusters.size()) break;
      std::vector<std::vector<int64_t>> merged(level.clusters.size());
      for (size_t c = 0; c < level.clusters.size(); ++c) {
        for (int64_t fine : level.clusters[c]) {
          const auto& fine_members = clusters[static_cast<size_t>(fine)];
          merged[c].insert(merged[c].end(), fine_members.begin(),
                           fine_members.end());
        }
      }
      clusters = std::move(merged);
      w = level.coarse_w;
    }
    out.members = PackClusters(clusters, num_shards, graph);
  }

  // Canonical form: ascending members, drop empty shards (possible when
  // there are fewer clusters than shards), order shards by smallest member.
  for (auto& shard : out.members) std::sort(shard.begin(), shard.end());
  out.members.erase(
      std::remove_if(out.members.begin(), out.members.end(),
                     [](const std::vector<int64_t>& m) { return m.empty(); }),
      out.members.end());
  std::stable_sort(out.members.begin(), out.members.end(),
                   [](const std::vector<int64_t>& a,
                      const std::vector<int64_t>& b) {
                     return a.front() < b.front();
                   });

  out.shard_of.assign(static_cast<size_t>(n), -1);
  out.local_of.assign(static_cast<size_t>(n), -1);
  for (size_t s = 0; s < out.members.size(); ++s) {
    const auto& shard = out.members[s];
    for (size_t i = 0; i < shard.size(); ++i) {
      const auto r = static_cast<size_t>(shard[i]);
      ODF_CHECK_EQ(out.shard_of[r], -1) << "region in two shards";
      out.shard_of[r] = static_cast<int32_t>(s);
      out.local_of[r] = static_cast<int32_t>(i);
    }
  }
  for (int64_t r = 0; r < n; ++r) {
    ODF_CHECK_GE(out.shard_of[static_cast<size_t>(r)], 0)
        << "region missing from the partition";
  }
  return out;
}

Tensor ShardPartition::MergeUnits(
    const std::vector<const Tensor*>& units) const {
  ODF_CHECK_EQ(static_cast<int64_t>(units.size()), num_units());
  const int64_t n = num_regions;
  const int64_t ps = num_shards();
  const int64_t k = units.front()->shape().dims().back();
  // The unit's [n_u, n_u, K] cells, dropping a leading batch-1 axis.
  auto cells = [k](const Tensor& t, int64_t n_u) {
    const int64_t rank = t.rank();
    ODF_CHECK(rank == 3 || (rank == 4 && t.dim(0) == 1))
        << "unit forecast must be [n, n, K] or [1, n, n, K]";
    ODF_CHECK_EQ(t.dim(rank - 3), n_u);
    ODF_CHECK_EQ(t.dim(rank - 2), n_u);
    ODF_CHECK_EQ(t.dim(rank - 1), k);
    return t.data();
  };

  // Column runs: maximal spans of destinations in one shard. A shard's
  // members ascend, so a run's local ids ascend by one: in a city row, an
  // intra run is one contiguous span of the origin's unit row, and a cross
  // run one boundary cell repeated.
  struct Run {
    int64_t begin;  // first destination
    int64_t size;   // destinations
    int32_t shard;
    int32_t local;  // local id of the first destination
  };
  std::vector<Run> runs;
  for (int64_t gd = 0; gd < n; ++gd) {
    const int32_t sd = shard_of[static_cast<size_t>(gd)];
    if (!runs.empty() && runs.back().shard == sd) {
      ++runs.back().size;
    } else {
      runs.push_back({gd, 1, sd, local_of[static_cast<size_t>(gd)]});
    }
  }

  std::vector<const float*> src(units.size());
  for (int64_t p = 0; p < ps; ++p) {
    src[static_cast<size_t>(p)] =
        cells(*units[static_cast<size_t>(p)],
              static_cast<int64_t>(members[static_cast<size_t>(p)].size()));
  }
  if (num_units() > ps) src.back() = cells(*units.back(), ps);

  Tensor out(Shape({n, n, k}));
  for (int64_t go = 0; go < n; ++go) {
    const int32_t so = shard_of[static_cast<size_t>(go)];
    const int64_t lo = local_of[static_cast<size_t>(go)];
    const int64_t np =
        static_cast<int64_t>(members[static_cast<size_t>(so)].size());
    const float* intra = src[static_cast<size_t>(so)] + lo * np * k;
    float* row = out.data() + go * n * k;
    for (const Run& run : runs) {
      float* dst = row + run.begin * k;
      const int64_t len = run.size * k;
      if (run.shard == so) {
        // Intra run: one span of the origin's row in its shard's unit.
        std::memcpy(dst, intra + run.local * k,
                    static_cast<size_t>(len) * sizeof(float));
        continue;
      }
      // Cross run: the boundary unit's (so, sd) cell, then double the
      // filled prefix.
      std::memcpy(dst, src.back() + (so * ps + run.shard) * k,
                  static_cast<size_t>(k) * sizeof(float));
      for (int64_t filled = k; filled < len; filled *= 2) {
        std::memcpy(dst + filled, dst,
                    static_cast<size_t>(std::min(filled, len - filled)) *
                        sizeof(float));
      }
    }
  }
  return out;
}

RegionGraph ShardGraph(const RegionGraph& city,
                       const std::vector<int64_t>& members) {
  std::vector<Region> regions;
  regions.reserve(members.size());
  for (int64_t r : members) regions.push_back(city.region(r));
  return RegionGraph(std::move(regions));
}

RegionGraph BoundaryGraph(const RegionGraph& city,
                          const ShardPartition& partition) {
  std::vector<Region> regions;
  regions.reserve(partition.members.size());
  for (const auto& shard : partition.members) {
    Region centroid;
    for (int64_t r : shard) {
      centroid.centroid_x_km += city.region(r).centroid_x_km;
      centroid.centroid_y_km += city.region(r).centroid_y_km;
    }
    const double inv = 1.0 / static_cast<double>(shard.size());
    centroid.centroid_x_km *= inv;
    centroid.centroid_y_km *= inv;
    regions.push_back(centroid);
  }
  return RegionGraph(std::move(regions));
}

}  // namespace odf::shard
