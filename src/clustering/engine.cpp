#include "clustering/engine.h"

#include <limits>

#include "common/error.h"
#include "clustering/correlation.h"
#include "clustering/window.h"

namespace ocasta {

void AnnotateClusters(const std::vector<CoModGroup>& groups,
                      const std::vector<uint32_t>& cluster_index,
                      std::vector<KeyCluster>& clusters) {
  for (const CoModGroup& group : groups) {
    // A group bumps each distinct cluster it touches once.
    uint32_t last_bumped = ClusterSet::kNoCluster;
    std::vector<uint32_t> bumped;
    for (uint32_t key : group.key_ids) {
      const uint32_t c = key < cluster_index.size() ? cluster_index[key] : ClusterSet::kNoCluster;
      if (c == ClusterSet::kNoCluster) continue;  // Key not in any cluster.
      if (c == last_bumped) continue;
      bool seen = false;
      for (uint32_t prev : bumped) {
        if (prev == c) {
          seen = true;
          break;
        }
      }
      if (!seen) {
        ++clusters[c].version_count;
        if (group.end > clusters[c].last_modified) clusters[c].last_modified = group.end;
        bumped.push_back(c);
      }
      last_bumped = c;
    }
  }
}

ClusterSet ClusterKeys(const std::vector<WriteEvent>& events, size_t num_keys,
                       const ClusteringParams& params) {
  if (params.threshold_correlation <= 0) {
    throw Error("threshold_correlation must be positive");
  }
  const auto groups = GroupWrites(events, Seconds(params.window_seconds));
  const auto corr = ComputeCorrelations(groups, num_keys, params.num_threads);

  // Points: keys modified at least once.
  std::vector<uint32_t> ids;
  for (uint32_t id = 0; id < num_keys; ++id) {
    if (corr.group_counts[id] > 0) ids.push_back(id);
  }

  // Distance = 1 / correlation; pairs never co-modified stay infinite.
  PairTable distances;
  for (const auto& [pair_key, correlation] : corr.correlation.raw()) {
    const auto [a, b] = PairTable::DecodePair(pair_key);
    distances.Set(a, b, 1.0 / correlation);
  }

  const double max_distance = 1.0 / params.threshold_correlation;
  auto raw_clusters = AgglomerativeCluster(ids, distances, params.linkage, max_distance);

  // Annotate clusters with version counts (co-mod groups touching any
  // member) and last-modified times.
  std::vector<uint32_t> cluster_index(num_keys, ClusterSet::kNoCluster);
  std::vector<KeyCluster> clusters;
  clusters.reserve(raw_clusters.size());
  for (auto& keys : raw_clusters) {
    for (uint32_t key : keys) cluster_index[key] = static_cast<uint32_t>(clusters.size());
    KeyCluster cluster;
    cluster.keys = std::move(keys);
    clusters.push_back(std::move(cluster));
  }
  AnnotateClusters(groups, cluster_index, clusters);

  return ClusterSet(std::move(clusters), num_keys);
}

ClusterSet ClusterKeys(const TTKV& ttkv, const ClusteringParams& params) {
  return ClusterKeys(ttkv.write_events(), ttkv.num_keys(), params);
}

}  // namespace ocasta
