// Differential test for the scenario harness: RunScenario diagnoses on the
// application's slice of a machine (its own events, schema, configs and
// read counters). The reference below is the whole-machine form it
// replaced: copy every application's events, inject into that copy and
// rebuild the TTKVs from it. Both must decide every Table III error the
// same way.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "apps/render.h"
#include "clustering/engine.h"
#include "scenarios/harness.h"
#include "scenarios/scenarios.h"
#include "workload/generator.h"
#include "workload/inject.h"
#include "workload/profiles.h"

namespace ocasta {
namespace {

// RunScenario on a copy of the whole machine trace.
ScenarioRun ReferenceRunScenario(const MachineTrace& machine, const ErrorScenario& scenario,
                                 const ScenarioRunOptions& options) {
  MachineTrace run_machine = machine;
  const AppSchema& schema = run_machine.SchemaFor(scenario.app);

  const TimeMicros t_inj = run_machine.end_time - Days(options.injection_days_before_end);
  const ConfigMap good_state = SnapshotAt(run_machine, scenario.app, t_inj);
  const std::vector<Corruption> corruptions =
      ResolveCorruptions(scenario.corruptions, good_state);

  std::set<std::string> frozen_keys;
  for (const Corruption& corruption : corruptions) {
    frozen_keys.insert(corruption.key);
    for (const SchemaGroup& group : schema.groups) {
      for (const KeySpec& key : group.keys) {
        if (key.path != corruption.key) continue;
        for (const KeySpec& member : group.keys) frozen_keys.insert(member.path);
      }
    }
  }
  run_machine.trace.RemoveEventsForKeys(scenario.app, frozen_keys, t_inj);

  const TTKV ttkv_clean = BuildAppTtkv(run_machine, scenario.app);
  ClusteringParams params = options.params;
  if (options.use_tuned_params && scenario.needs_tuning) {
    params.threshold_correlation = scenario.tuned_threshold;
    params.window_seconds = scenario.tuned_window_seconds;
  }
  const ClusterSet clean_clusters = ClusterKeys(ttkv_clean, params);

  InjectionSpec injection;
  injection.app = scenario.app;
  injection.at = t_inj;
  injection.corruptions = corruptions;
  injection.spurious_writes = options.spurious_writes;
  InjectError(run_machine, injection);

  const TTKV ttkv = BuildAppTtkv(run_machine, scenario.app);
  const ClusterSet clusters =
      RemapClusters(clean_clusters, ttkv_clean, ttkv, params.window_seconds);

  const ConfigMap current_state = run_machine.final_configs.at(scenario.app);
  const RequiredKeyOracle oracle(OracleRequirements(scenario, good_state));
  const Trial trial{scenario.app,
                    [schema](ConfigStore& store) { return RenderApp(schema, store); }};

  RepairConfig config;
  config.strategy = options.strategy;
  config.start_time =
      run_machine.end_time -
      Days(options.start_days_before_end.value_or(options.injection_days_before_end));
  config.window_seconds = params.window_seconds;
  config.cost = options.cost;

  ScenarioRun run;
  run.scenario = scenario;
  run.params_used = params;
  run.average_multi_cluster_size = clusters.average_multi_cluster_size();
  run.total_clusters = clusters.size();
  {
    RepairController controller(ttkv, clusters, current_state, schema.store, trial, oracle);
    run.ocasta = controller.Run(config);
    if (run.ocasta.fixed) {
      run.offending_cluster_size = clusters.cluster(run.ocasta.offending_cluster).size();
    }
  }
  {
    const ClusterSet singles = SingletonClusters(ttkv);
    RepairController controller(ttkv, singles, current_state, schema.store, trial, oracle);
    run.noclust = controller.Run(config);
  }
  return run;
}

void ExpectSameOutcome(const RepairOutcome& got, const RepairOutcome& want) {
  EXPECT_EQ(got.fixed, want.fixed);
  EXPECT_EQ(got.trials_to_fix, want.trials_to_fix);
  EXPECT_EQ(got.total_trials, want.total_trials);
  EXPECT_EQ(got.time_to_fix, want.time_to_fix);
  EXPECT_EQ(got.total_time, want.total_time);
  EXPECT_EQ(got.unique_screenshots, want.unique_screenshots);
  EXPECT_EQ(got.offending_cluster, want.offending_cluster);
  EXPECT_EQ(got.fix_version_time, want.fix_version_time);
  EXPECT_EQ(got.fixed_state, want.fixed_state);
  ASSERT_EQ(got.log.size(), want.log.size());
  for (size_t i = 0; i < got.log.size(); ++i) {
    EXPECT_EQ(got.log[i].cluster_index, want.log[i].cluster_index) << "trial " << i;
    EXPECT_EQ(got.log[i].version_time, want.log[i].version_time) << "trial " << i;
    EXPECT_EQ(got.log[i].screenshot_kept, want.log[i].screenshot_kept) << "trial " << i;
    EXPECT_EQ(got.log[i].fixed, want.log[i].fixed) << "trial " << i;
  }
}

void ExpectSameRun(const ScenarioRun& got, const ScenarioRun& want) {
  {
    SCOPED_TRACE("ocasta");
    ExpectSameOutcome(got.ocasta, want.ocasta);
  }
  {
    SCOPED_TRACE("noclust");
    ExpectSameOutcome(got.noclust, want.noclust);
  }
  EXPECT_EQ(got.total_clusters, want.total_clusters);
  EXPECT_EQ(got.offending_cluster_size, want.offending_cluster_size);
  EXPECT_EQ(got.average_multi_cluster_size, want.average_multi_cluster_size);
}

// Each Table I machine is generated once for the whole binary.
const MachineTrace& Machine(const std::string& name) {
  static std::map<std::string, MachineTrace> machines;
  auto it = machines.find(name);
  if (it == machines.end()) {
    it = machines.emplace(name, GenerateMachineTrace(ProfileByName(name))).first;
  }
  return it->second;
}

class ScenarioSliceTest : public ::testing::TestWithParam<int> {};

TEST_P(ScenarioSliceTest, MatchesWholeMachine) {
  const ErrorScenario scenario = ScenarioById(GetParam());
  const MachineTrace& machine = Machine(scenario.machine);

  // As the Table III benchmarks run it: tuned where the paper tuned.
  ScenarioRunOptions tuned;
  tuned.use_tuned_params = scenario.needs_tuning;
  // The Figure 2 variations: BFS order, failed fix attempts after the
  // error, and a start bound earlier than the injection.
  ScenarioRunOptions varied;
  varied.strategy = SearchStrategy::kBfs;
  varied.spurious_writes = 2;
  varied.start_days_before_end = 20.0;

  for (const ScenarioRunOptions& options : {tuned, varied}) {
    SCOPED_TRACE(options.strategy == SearchStrategy::kDfs ? "tuned DFS" : "varied BFS");
    ExpectSameRun(RunScenario(machine, scenario, options),
                  ReferenceRunScenario(machine, scenario, options));
  }
}

// All 16 errors: registry (Windows 7, Vista, XP), GConf (Linux-1) and
// file-backed (Linux-2, -3, -4) machines. The largest, Windows XP, takes
// about a second to generate.
INSTANTIATE_TEST_SUITE_P(TableIII, ScenarioSliceTest, ::testing::Range(1, 17),
                         [](const auto& info) { return "error" + std::to_string(info.param); });

}  // namespace
}  // namespace ocasta
