#include "clustering/online.h"

#include <algorithm>

#include "common/error.h"

namespace ocasta {

OnlineClusterTracker::OnlineClusterTracker(double window_seconds, bool quantize_to_seconds)
    : window_(Seconds(window_seconds)), quantize_(quantize_to_seconds) {
  if (window_ < 0) throw Error("co-modification window must be non-negative");
}

void OnlineClusterTracker::CommitGroup(
    std::vector<uint32_t>& group, std::vector<uint64_t>& key_groups,
    std::unordered_map<uint64_t, uint64_t>& pair_groups) const {
  std::sort(group.begin(), group.end());
  group.erase(std::unique(group.begin(), group.end()), group.end());
  for (size_t i = 0; i < group.size(); ++i) {
    ++key_groups[group[i]];
    for (size_t j = i + 1; j < group.size(); ++j) {
      ++pair_groups[PairTable::PairKey(group[i], group[j])];
    }
  }
}

void OnlineClusterTracker::OnAccess(const AccessEvent& event) {
  if (event.op == AccessOp::kRead) return;
  const TimeMicros t = quantize_ ? QuantizeToSecond(event.timestamp) : event.timestamp;
  if (has_open_group_ && t < open_group_end_) {
    throw Error("online tracker requires time-ordered events");
  }

  auto [it, inserted] = index_.try_emplace(event.key, static_cast<uint32_t>(names_.size()));
  if (inserted) {
    names_.push_back(event.key);
    last_modified_.push_back(t);
    key_group_counts_.push_back(0);
    open_group_number_.push_back(0);
  }
  last_modified_[it->second] = t;

  if (has_open_group_ && t - open_group_end_ > window_) {
    CommitGroup(open_group_, key_group_counts_, pair_group_counts_);
    ++groups_committed_;
    open_group_.clear();
    has_open_group_ = false;
  }
  // Groups are numbered from 1, so the open one is groups_committed_ + 1
  // and a commit retires every key's mark at once.
  if (open_group_number_[it->second] != groups_committed_ + 1) {
    open_group_number_[it->second] = groups_committed_ + 1;
    open_group_.push_back(it->second);
  }
  open_group_end_ = t;
  has_open_group_ = true;
}

ClusterSet OnlineClusterTracker::ClusterNow(double threshold_correlation,
                                            Linkage linkage) const {
  if (threshold_correlation <= 0) throw Error("threshold_correlation must be positive");

  // Fold the open burst into copies of the committed statistics.
  std::vector<uint64_t> key_groups = key_group_counts_;
  std::unordered_map<uint64_t, uint64_t> pair_groups = pair_group_counts_;
  if (has_open_group_) {
    std::vector<uint32_t> open = open_group_;
    CommitGroup(open, key_groups, pair_groups);
  }

  // Correlation → distance, exactly as the batch pipeline.
  PairTable distances;
  for (const auto& [pair_key, count] : pair_groups) {
    const auto a = static_cast<uint32_t>(pair_key >> 32);
    const auto b = static_cast<uint32_t>(pair_key & 0xffffffffu);
    const double corr = static_cast<double>(count) / static_cast<double>(key_groups[a]) +
                        static_cast<double>(count) / static_cast<double>(key_groups[b]);
    distances.Set(a, b, 1.0 / corr);
  }
  std::vector<uint32_t> ids;
  for (uint32_t id = 0; id < key_groups.size(); ++id) {
    if (key_groups[id] > 0) ids.push_back(id);
  }
  auto raw = AgglomerativeCluster(ids, distances, linkage, 1.0 / threshold_correlation);

  std::vector<KeyCluster> clusters;
  clusters.reserve(raw.size());
  for (auto& keys : raw) {
    KeyCluster cluster;
    for (uint32_t key : keys) {
      cluster.version_count = std::max(cluster.version_count, key_groups[key]);
      cluster.last_modified = std::max(cluster.last_modified, last_modified_[key]);
    }
    cluster.keys = std::move(keys);
    clusters.push_back(std::move(cluster));
  }
  return ClusterSet(std::move(clusters), names_.size());
}

}  // namespace ocasta
