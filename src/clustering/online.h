// Online clustering tracker.
//
// Ocasta "uses the information stored in the TTKV to compute the
// clustering information for the keys" while in recording mode. Recomputing
// the whole batch pipeline (window grouping + correlation) on every query
// is wasteful for a recorder that runs for months; this tracker maintains
// the co-modification statistics incrementally as access events arrive and
// can produce the cluster set on demand. Its output is exactly equivalent
// to the batch pipeline (see property tests): same gap-based window
// semantics, same correlation metric, same HAC.
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "clustering/cluster_set.h"
#include "clustering/correlation.h"
#include "clustering/hac.h"
#include "configstore/access_event.h"

namespace ocasta {

class OnlineClusterTracker final : public AccessSink {
 public:
  // `window_seconds` matches ClusteringParams::window_seconds;
  // `quantize_to_seconds` mirrors the TTKV recorder's timestamp handling.
  explicit OnlineClusterTracker(double window_seconds = 1.0, bool quantize_to_seconds = true);

  // Consumes write/delete events (reads are ignored). Events must arrive
  // in time order, as produced by the interception layer.
  void OnAccess(const AccessEvent& event) override;

  size_t num_keys() const { return names_.size(); }
  const std::vector<std::string>& key_names() const { return names_; }

  // Total committed co-modification groups (open burst excluded).
  uint64_t group_count() const { return groups_committed_; }

  // Distinct keys in the open burst.
  size_t open_group_size() const { return open_group_.size(); }

  // Clusters the keys observed so far. The open burst (writes newer than
  // `window` before the last event) is included as one group. Cluster
  // version counts are each cluster's most-modified member's group count —
  // an upper bound; the repair controller recomputes exact in-bound counts
  // anyway.
  ClusterSet ClusterNow(double threshold_correlation, Linkage linkage = Linkage::kComplete) const;

 private:
  void CommitGroup(std::vector<uint32_t>& group, std::vector<uint64_t>& key_groups,
                   std::unordered_map<uint64_t, uint64_t>& pair_groups) const;

  TimeMicros window_;
  bool quantize_;

  std::map<std::string, uint32_t> index_;
  std::vector<std::string> names_;
  std::vector<TimeMicros> last_modified_;

  // Committed statistics.
  std::vector<uint64_t> key_group_counts_;
  std::unordered_map<uint64_t, uint64_t> pair_group_counts_;
  uint64_t groups_committed_ = 0;

  // The open burst: distinct key ids written within `window_` of the
  // previous write, each added once however often it is rewritten.
  std::vector<uint32_t> open_group_;
  std::vector<uint64_t> open_group_number_;  // Per key: last group it joined.
  TimeMicros open_group_end_ = 0;
  bool has_open_group_ = false;
};

}  // namespace ocasta
