#include "scenarios/harness.h"

#include <set>

#include "common/error.h"

namespace ocasta {

std::vector<Corruption> ResolveCorruptions(const std::vector<CorruptionSpec>& specs,
                                           const ConfigMap& good_state) {
  std::vector<Corruption> corruptions;
  for (const CorruptionSpec& spec : specs) {
    auto it = good_state.find(spec.key);
    switch (spec.kind) {
      case CorruptionSpec::Kind::kFlipBool: {
        const bool good = it != good_state.end() && it->second.type() == ValueType::kBool
                              ? it->second.as_bool()
                              : true;
        corruptions.push_back({spec.key, Value(!good)});
        break;
      }
      case CorruptionSpec::Kind::kSetValue: {
        if (it != good_state.end() && it->second == spec.value) {
          throw Error("scenario bad value equals the good value for " + spec.key);
        }
        corruptions.push_back({spec.key, spec.value});
        break;
      }
      case CorruptionSpec::Kind::kDelete: {
        if (it == good_state.end()) continue;  // Already absent; no event.
        corruptions.push_back({spec.key, std::nullopt});
        break;
      }
    }
  }
  if (corruptions.empty()) throw Error("scenario resolved to no corruptions");
  return corruptions;
}

std::vector<RequiredKeyOracle::Requirement> OracleRequirements(const ErrorScenario& scenario,
                                                               const ConfigMap& good_state) {
  std::vector<RequiredKeyOracle::Requirement> requirements;
  for (const std::string& key : scenario.required_keys) {
    auto it = good_state.find(key);
    requirements.push_back(
        {key, it == good_state.end() ? std::string("<unset>") : it->second.ToDisplay()});
  }
  return requirements;
}

ScenarioRun RunScenario(const MachineTrace& machine, const ErrorScenario& scenario,
                        const ScenarioRunOptions& options) {
  // Every step below is per-application, so it runs on the app's slice;
  // injection mutates it.
  MachineTrace run_machine = AppSlice(machine, scenario.app);
  const AppSchema& schema = run_machine.SchemaFor(scenario.app);

  const TimeMicros t_inj =
      run_machine.end_time - Days(options.injection_days_before_end);
  const ConfigMap good_state = SnapshotAt(run_machine, scenario.app, t_inj);

  const std::vector<Corruption> corruptions =
      ResolveCorruptions(scenario.corruptions, good_state);

  // The corruption must persist to the end of the trace, so later
  // legitimate writes to the broken setting group are dropped — the user
  // has stopped (re)configuring a feature that is visibly broken. Removing
  // the *whole group's* later events (not just the corrupted keys') keeps
  // the group's always-modified-together correlation intact; stripping only
  // the corrupted keys would make their partners appear independently
  // modified and artificially split the cluster.
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

  // Ocasta clustered while the application was healthy: the cluster set
  // comes from the pre-injection history. (Including the injected partial
  // write itself would dilute every touched pair below the
  // always-modified-together threshold and artificially split the
  // offending cluster.)
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

  const ConfigMap& current_state = run_machine.final_configs.at(scenario.app);
  const RequiredKeyOracle oracle(OracleRequirements(scenario, good_state));
  const Trial trial{scenario.app, [schema](ConfigStore& store) {
                      return RenderApp(schema, store);
                    }};

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

}  // namespace ocasta
