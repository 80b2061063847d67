// The repair controller: Ocasta's GUI-assisted configuration-error search.
//
// Given the clustering of an application's TTKV, a user-recorded trial that
// makes the error's symptoms visible, and optional start/end time bounds,
// the controller rolls back one cluster of settings at a time to each of
// its historical values, replays the trial in a sandbox, takes a
// screenshot, deduplicates it against the erroneous screenshot and all
// previous ones, and asks the user ("oracle") whether any screenshot shows
// a fixed application. Clusters are visited least-modified-first; within
// the cluster × version grid the search order is DFS (all versions of one
// cluster before the next) or BFS (newest version of every cluster, then
// the second-newest of every cluster, ...).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/render.h"
#include "clustering/cluster_set.h"
#include "repair/versions.h"
#include "ttkv/ttkv.h"

namespace ocasta {

// The user-recorded trial: deterministically replays the UI actions that
// expose the error and returns the resulting screen.
struct Trial {
  std::string app;
  std::function<Screenshot(ConfigStore&)> run;
};

// The user who inspects recorded screenshots for one showing a fixed
// application.
class UserOracle {
 public:
  virtual ~UserOracle() = default;
  virtual bool LooksFixed(const Screenshot& shot) const = 0;
};

enum class SearchStrategy : uint8_t { kDfs = 0, kBfs = 1 };

// Wall-clock cost of one trial execution, modelled deterministically so
// Table IV's recovery times are machine-independent and reproducible.
struct CostModel {
  TimeMicros rollback = Seconds(2);
  TimeMicros app_launch = Seconds(5);
  TimeMicros trial_replay = Seconds(14);
  TimeMicros screenshot = Seconds(1);
  TimeMicros per_trial() const { return rollback + app_launch + trial_replay + screenshot; }
};

struct RepairConfig {
  SearchStrategy strategy = SearchStrategy::kDfs;
  // Search bounds on cluster-version times; the paper's user supplies these
  // ("the earliest/latest time the user believes the configuration error
  // could have been introduced"). Defaults: the whole recorded history.
  std::optional<TimeMicros> start_time;
  std::optional<TimeMicros> end_time;
  // Burst-collapsing window for cluster versions (same default as the
  // clustering window).
  double window_seconds = 1.0;
  CostModel cost;
  // When true the search stops at the first fix (interactive use); when
  // false it exhausts all candidates, which also yields the total search
  // time Table IV reports alongside the time-to-fix.
  bool stop_at_fix = false;
};

struct TrialRecord {
  size_t cluster_index = 0;
  TimeMicros version_time = 0;
  bool screenshot_kept = false;  // Survived deduplication.
  bool fixed = false;
};

struct RepairOutcome {
  bool fixed = false;
  size_t trials_to_fix = 0;   // Trials executed up to and including the fix.
  size_t total_trials = 0;
  TimeMicros time_to_fix = 0;
  TimeMicros total_time = 0;
  size_t unique_screenshots = 0;  // Kept after dedup (user inspects these).
  size_t offending_cluster = std::numeric_limits<size_t>::max();
  TimeMicros fix_version_time = 0;
  ConfigMap fixed_state;  // Live state with the fix permanently applied.
  std::vector<TrialRecord> log;
};

class RepairController {
 public:
  // `ttkv` and `clusters` describe the application's recorded history;
  // `current_state` is its live (erroneous) configuration, kept once as the
  // shared base of every trial's sandbox; `store_kind` matches the
  // application's store. None of the references are retained beyond Run().
  RepairController(const TTKV& ttkv, const ClusterSet& clusters, ConfigMap current_state,
                   StoreKind store_kind, Trial trial, const UserOracle& oracle)
      : ttkv_(ttkv),
        clusters_(clusters),
        current_state_(std::make_shared<const ConfigMap>(std::move(current_state))),
        store_kind_(store_kind),
        trial_(std::move(trial)),
        oracle_(oracle) {}

  RepairOutcome Run(const RepairConfig& config) const;

 private:
  const TTKV& ttkv_;
  const ClusterSet& clusters_;
  std::shared_ptr<const ConfigMap> current_state_;
  StoreKind store_kind_;
  Trial trial_;
  const UserOracle& oracle_;
};

// The Ocasta-NoClust baseline: every modified key is its own cluster, so
// the search rolls back one configuration setting at a time. Version counts
// come from each key's own write history.
ClusterSet SingletonClusters(const TTKV& ttkv);

// Re-targets a cluster set computed on one TTKV (e.g. the healthy history
// Ocasta clustered while recording) onto another TTKV's key-id space (the
// full history including the injected error). Keys modified only in the
// target store become singleton clusters; version counts and last-modified
// times are recomputed from the target history with the given
// burst-collapsing window.
ClusterSet RemapClusters(const ClusterSet& clusters, const TTKV& from, const TTKV& to,
                         double window_seconds);

// Convenience oracle: the application looks fixed when every required key
// renders with its known-good display value. This encodes "the symptoms of
// the configuration error are no longer visible" for our deterministic
// renderers.
class RequiredKeyOracle final : public UserOracle {
 public:
  struct Requirement {
    std::string key;
    std::string good_display;  // Expected "key = value" rendering.
  };

  explicit RequiredKeyOracle(std::vector<Requirement> requirements)
      : requirements_(std::move(requirements)) {}

  bool LooksFixed(const Screenshot& shot) const override;

 private:
  std::vector<Requirement> requirements_;
};

}  // namespace ocasta
