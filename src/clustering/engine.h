// The end-to-end clustering pipeline:
//   TTKV write history → window grouping → correlations → HAC → ClusterSet.
#pragma once

#include "clustering/cluster_set.h"
#include "clustering/hac.h"
#include "clustering/window.h"
#include "ttkv/ttkv.h"

namespace ocasta {

struct ClusteringParams {
  // Sliding-window length. The paper's default is 1 second (the minimum its
  // second-granularity traces support); 0 clusters only identical
  // timestamps.
  double window_seconds = 1.0;

  // Correlation threshold: keys merge while cluster correlation is >= this.
  // Default 2 clusters only keys *always* modified together; lowering it
  // (e.g. to 1) admits keys modified together most of the time. Must be
  // positive. The equivalent distance cut is 1/threshold.
  double threshold_correlation = 2.0;

  Linkage linkage = Linkage::kComplete;

  // Worker threads for the correlation pass (the pipeline's hot loop over
  // every co-modification group). 1 = single-threaded, 0 = hardware
  // concurrency. The clusters produced are identical for every value.
  int num_threads = 1;
};

// Annotates `clusters` in place with version counts (co-modification groups
// touching any member, counted once per group) and last-modified times.
// `cluster_index` maps key id → index into `clusters`; keys mapped to
// ClusterSet::kNoCluster are ignored. Exposed separately from ClusterKeys
// for testing.
void AnnotateClusters(const std::vector<CoModGroup>& groups,
                      const std::vector<uint32_t>& cluster_index,
                      std::vector<KeyCluster>& clusters);

// Clusters every modified key of a write history: `events` sorted by
// timestamp, key ids dense in [0, num_keys). Unmodified keys (reads only)
// are excluded entirely — they cannot cause a configuration error the user
// introduced. Each returned cluster carries its version count and last
// modification time for recovery prioritisation. HAC breaks distance ties
// by key id, so the id assignment is part of the input.
ClusterSet ClusterKeys(const std::vector<WriteEvent>& events, size_t num_keys,
                       const ClusteringParams& params);

// ClusterKeys over a TTKV's stored history, in its key-id space.
ClusterSet ClusterKeys(const TTKV& ttkv, const ClusteringParams& params);

}  // namespace ocasta
