// Scenario harness: runs one Table III error end-to-end.
//
// Pipeline (mirroring Section VI-B of the paper):
//   1. take the application's slice of a generated machine trace: its own
//      events, schema, configs and read counters (every later step is
//      per-application, so the other applications' events are never copied);
//   2. capture the application's good state 14 days before the trace ends;
//   3. inject the erroneous writes/deletions (plus optional spurious
//      fix-attempt writes) into the trace;
//   4. rebuild the application's TTKV from the trace and cluster it;
//   5. run the repair search (Ocasta, and the NoClust single-key baseline)
//      with the user's start bound at the injection time.
#pragma once

#include <optional>

#include "clustering/engine.h"
#include "repair/search.h"
#include "scenarios/scenarios.h"
#include "workload/generator.h"
#include "workload/inject.h"

namespace ocasta {

struct ScenarioRunOptions {
  double injection_days_before_end = 14.0;
  int spurious_writes = 0;
  SearchStrategy strategy = SearchStrategy::kDfs;
  ClusteringParams params;  // Window 1 s, threshold 2, complete linkage.
  // Search start bound in days before trace end; defaults to the injection
  // time (the user knows roughly when the error appeared).
  std::optional<double> start_days_before_end;
  // Apply the scenario's tuned threshold/window when it needs tuning
  // (the paper's remediation for errors #2 and #4).
  bool use_tuned_params = false;
  CostModel cost;
};

struct ScenarioRun {
  ErrorScenario scenario;
  ClusteringParams params_used;
  RepairOutcome ocasta;
  RepairOutcome noclust;
  size_t offending_cluster_size = 0;  // Size of the cluster whose rollback fixed it.
  double average_multi_cluster_size = 0;
  size_t total_clusters = 0;
};

// Runs a scenario against a copy of the application's slice of `machine`
// (which must host the scenario's application — typically generated from
// the scenario's Table I profile).
ScenarioRun RunScenario(const MachineTrace& machine, const ErrorScenario& scenario,
                        const ScenarioRunOptions& options);

// Resolves each corruption spec against the good state: flips read the
// current value; deletions of absent keys are dropped.
std::vector<Corruption> ResolveCorruptions(const std::vector<CorruptionSpec>& specs,
                                           const ConfigMap& good_state);

// Oracle requirements for a scenario: every required key must render with
// its good-state display value.
std::vector<RequiredKeyOracle::Requirement> OracleRequirements(const ErrorScenario& scenario,
                                                               const ConfigMap& good_state);

}  // namespace ocasta
