// The diagnose_offline workload: the paper's pipeline with no daemon.
//
// Set-up records the nine Table I machines (GenerateMachineTrace, the
// logger layer) and clusters each machine-wide TTKV. The measured phase
// then repeats passes of two request kinds until the run length is
// reached: the side request clusters one Table II application and scores
// it against ground truth; the main request diagnoses one Table III error
// with RunScenario (tuned parameters where the scenario needs them).
//
// The machines are the paper's fixed Table I profiles. Shifting their
// seeds changes how much each machine records by up to ~20%, so the
// run-to-run spread would measure the inputs rather than the program; the
// workload seed sets the order in which each pass issues its requests.
//
// RunScenario is one call into the program, so the traced run times its
// children from outside: after every measured pass, a mirror pass repeats
// the same public calls the harness makes on the same inputs
// (MirrorScenario). The mirror must reach the same outcome as RunScenario,
// which is checked.
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/ground_truth.h"
#include "apps/catalog.h"
#include "apps/render.h"
#include "clustering/engine.h"
#include "common/rng.h"
#include "common.h"
#include "scenarios/harness.h"
#include "workload/generator.h"
#include "workload/inject.h"
#include "workload/profiles.h"

namespace perfbench {
namespace {

using namespace ocasta;

constexpr int kSetups = 3;

// Table I machines group by the store their applications log through.
const char* StoreKindOf(const MachineProfile& profile) {
  switch (AppSchemaByName(profile.apps.front()).store) {
    case StoreKind::kRegistry: return "registry";
    case StoreKind::kGconf: return "gconf";
    case StoreKind::kFile: return "file";
  }
  return "registry";
}

// Time one request spent in each layer (traced run), in ms.
struct LayerTimes {
  double build_ms = 0;
  double cluster_ms = 0;
  double search_ms = 0;
  double self_ms = 0;
};

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// What one pass decided; every pass of a run must decide the same.
struct PassOutcome {
  size_t multi_clusters = 0;
  size_t correct_multi = 0;
  std::vector<std::vector<size_t>> scenarios;  // Per scenario: outcome fingerprint.
  uint64_t trials_to_fix = 0;

  bool SameDecisions(const PassOutcome& other) const {
    return multi_clusters == other.multi_clusters && correct_multi == other.correct_multi &&
           scenarios == other.scenarios;
  }
};

// The first pass's repair outcome for one error, for the quality figures.
struct Repair {
  int id = 0;
  bool fixed = false;
  size_t screenshots = 0;
  TimeMicros time_to_fix = 0;
  bool noclust_fixed = false;
};

std::vector<size_t> Fingerprint(const ScenarioRun& run) {
  return {run.ocasta.fixed,        run.ocasta.trials_to_fix, run.ocasta.total_trials,
          run.ocasta.unique_screenshots, run.ocasta.offending_cluster,
          run.noclust.fixed,       run.noclust.trials_to_fix, run.noclust.total_trials,
          run.total_clusters};
}

// Repeats RunScenario's calls (scenarios/harness.cpp) with a span around
// each call into a lower layer; returns the same ScenarioRun. Only the
// traced run calls this.
ScenarioRun MirrorScenario(const MachineTrace& machine, const ErrorScenario& scenario,
                           const ScenarioRunOptions& options, Tracer& tracer, uint64_t parent,
                           LayerTimes& times) {
  const auto timed = [&](const char* name, double LayerTimes::*field, auto&& call) {
    const auto start = Clock::now();
    auto result = call();
    const auto end = Clock::now();
    tracer.Record(name, start, end, parent);
    times.*field += MsBetween(start, end);
    return result;
  };

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
  const TTKV ttkv_clean = timed("ttkv.build", &LayerTimes::build_ms,
                                [&] { return BuildAppTtkv(run_machine, scenario.app); });
  ClusteringParams params = options.params;
  if (options.use_tuned_params && scenario.needs_tuning) {
    params.threshold_correlation = scenario.tuned_threshold;
    params.window_seconds = scenario.tuned_window_seconds;
  }
  const ClusterSet clean_clusters = timed("clustering.cluster", &LayerTimes::cluster_ms,
                                          [&] { return ClusterKeys(ttkv_clean, params); });
  InjectionSpec injection;
  injection.app = scenario.app;
  injection.at = t_inj;
  injection.corruptions = corruptions;
  injection.spurious_writes = options.spurious_writes;
  InjectError(run_machine, injection);
  const TTKV ttkv = timed("ttkv.build", &LayerTimes::build_ms,
                          [&] { return BuildAppTtkv(run_machine, scenario.app); });
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
  run.total_clusters = clusters.size();
  run.ocasta = timed("repair.search", &LayerTimes::search_ms, [&] {
    return RepairController(ttkv, clusters, current_state, schema.store, trial, oracle)
        .Run(config);
  });
  const ClusterSet singles = SingletonClusters(ttkv);
  run.noclust = timed("repair.search", &LayerTimes::search_ms, [&] {
    return RepairController(ttkv, singles, current_state, schema.store, trial, oracle)
        .Run(config);
  });
  return run;
}

template <typename T>
void Shuffle(std::vector<T>& items, Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[rng.next_below(i)]);
}

struct Machines {
  std::vector<MachineTrace> traces;
  const MachineTrace& ByName(const std::string& name) const {
    for (const MachineTrace& m : traces) {
      if (m.profile.name == name) return m;
    }
    throw std::runtime_error("unknown machine: " + name);
  }
};

}  // namespace

void RunDiagnoseOffline(const RunOptions& options, Tracer& tracer, RunReport& report) {
  // --- Set-up: record, then cluster each machine-wide TTKV. ---------------
  Machines machines;
  std::vector<double> setup_s, record_s, cluster_s;
  std::map<std::string, std::vector<double>> record_ms_by_kind;
  std::vector<size_t> first_cluster_counts;
  for (int i = 0; i < kSetups; ++i) {
    machines.traces.clear();
    const uint64_t setup_span = tracer.NextId();
    const auto start = Clock::now();
    std::map<std::string, double> by_kind{{"registry", 0}, {"gconf", 0}, {"file", 0}};
    for (const MachineProfile& profile : Table1Profiles()) {
      const auto t0 = Clock::now();
      machines.traces.push_back(GenerateMachineTrace(profile));
      const auto t1 = Clock::now();
      tracer.Record("logger.record", t0, t1, setup_span);
      by_kind[StoreKindOf(profile)] += MsBetween(t0, t1);
    }
    const auto recorded = Clock::now();
    std::vector<size_t> cluster_counts;
    for (const MachineTrace& machine : machines.traces) {
      const auto t0 = Clock::now();
      const TTKV ttkv = BuildMachineTtkv(machine);
      const auto t1 = Clock::now();
      const ClusterSet clusters = ClusterKeys(ttkv, ClusteringParams{});
      const auto t2 = Clock::now();
      tracer.Record("ttkv.build", t0, t1, setup_span);
      tracer.Record("clustering.cluster", t1, t2, setup_span);
      cluster_counts.push_back(clusters.size());
    }
    const auto end = Clock::now();
    tracer.RecordWithId(setup_span, "bench.setup", start, end);
    if (i == 0) {
      first_cluster_counts = cluster_counts;
    } else if (cluster_counts != first_cluster_counts) {
      report.Fail("machine-wide clustering differs between set-ups");
    }
    setup_s.push_back(std::chrono::duration<double>(end - start).count());
    record_s.push_back(std::chrono::duration<double>(recorded - start).count());
    cluster_s.push_back(std::chrono::duration<double>(end - recorded).count());
    for (const auto& [kind, ms] : by_kind) record_ms_by_kind[kind].push_back(ms);
  }
  report.Add("setup_s", Median(setup_s), "s");
  report.Detail("record_s", Median(record_s), "s");
  report.Detail("cluster_s", Median(cluster_s), "s");
  for (const auto& [kind, ms] : record_ms_by_kind) {
    report.Layer("logger.record_ms." + kind, Median(ms), "ms");
  }

  // --- Measured passes. ---------------------------------------------------
  std::vector<std::pair<AppSchema, std::vector<const MachineTrace*>>> apps;
  for (const AppSchema& schema : AllAppSchemas()) {
    std::vector<const MachineTrace*> hosts;
    for (const MachineTrace& machine : machines.traces) {
      for (const std::string& hosted : machine.profile.apps) {
        if (hosted == schema.name) {
          hosts.push_back(&machine);
          break;
        }
      }
    }
    if (!hosts.empty()) apps.emplace_back(schema, std::move(hosts));
  }
  std::vector<ErrorScenario> scenarios = AllScenarios();
  Rng rng(options.seed);
  Shuffle(apps, rng);
  Shuffle(scenarios, rng);

  // Request times by error id (main) and by application (side); in the
  // traced run also each request's time per layer.
  std::map<int, std::vector<double>> main_us;
  std::map<std::string, std::vector<double>> side_us;
  std::map<int, std::vector<LayerTimes>> main_layers;
  std::map<std::string, std::vector<LayerTimes>> side_layers;
  std::vector<PassOutcome> passes;
  std::vector<Repair> repairs;  // First pass only.
  uint64_t requests_ok = 0;
  double measured_s = 0;
  const uint64_t measure_span = tracer.NextId();
  const auto measure_start = Clock::now();
  const auto deadline = measure_start + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(options.seconds));
  uint64_t request_id = 0;
  while (passes.size() < 2 || Clock::now() < deadline) {
    const auto pass_start = Clock::now();
    PassOutcome outcome;
    for (const auto& [schema, hosts] : apps) {
      ++report.attempted;
      ++request_id;
      try {
        const auto t0 = Clock::now();
        const TTKV ttkv = BuildAppTtkvAcrossMachines(hosts, schema.name);
        const auto t1 = Clock::now();
        const ClusterSet clusters = ClusterKeys(ttkv, ClusteringParams{});
        const auto t2 = Clock::now();
        const AccuracyReport accuracy =
            EvaluateClusters(schema.name, clusters, ttkv, GroundTruth::FromSchema(schema));
        const auto t3 = Clock::now();
        side_us[schema.name].push_back(std::chrono::duration<double, std::micro>(t3 - t0).count());
        if (tracer.enabled()) {
          const uint64_t span =
              tracer.Record("bench.cluster_app", t0, t3, measure_span, request_id);
          tracer.Record("ttkv.build", t0, t1, span, request_id);
          tracer.Record("clustering.cluster", t1, t2, span, request_id);
          side_layers[schema.name].push_back(
              {MsBetween(t0, t1), MsBetween(t1, t2), 0, MsBetween(t2, t3)});
        }
        outcome.multi_clusters += accuracy.multi_clusters;
        outcome.correct_multi += accuracy.correct_multi;
        ++requests_ok;
      } catch (const std::exception& e) {
        ++report.failed;
        std::fprintf(stderr, "cluster %s failed: %s\n", schema.name.c_str(), e.what());
      }
    }
    for (const ErrorScenario& scenario : scenarios) {
      ++report.attempted;
      ++request_id;
      try {
        const MachineTrace& machine = machines.ByName(scenario.machine);
        ScenarioRunOptions run_options;
        run_options.use_tuned_params = scenario.needs_tuning;
        const auto t0 = Clock::now();
        const ScenarioRun run = RunScenario(machine, scenario, run_options);
        const auto t1 = Clock::now();
        main_us[scenario.id].push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
        tracer.Record("scenarios.run", t0, t1, measure_span, request_id);
        outcome.scenarios.push_back(Fingerprint(run));
        outcome.trials_to_fix += run.ocasta.trials_to_fix;
        if (passes.empty()) {
          repairs.push_back({scenario.id, run.ocasta.fixed, run.ocasta.unique_screenshots,
                             run.ocasta.time_to_fix, run.noclust.fixed});
        }
        ++requests_ok;
      } catch (const std::exception& e) {
        ++report.failed;
        outcome.scenarios.push_back({});
        if (passes.empty()) repairs.push_back({scenario.id});
        std::fprintf(stderr, "scenario %d failed: %s\n", scenario.id, e.what());
      }
    }
    measured_s += SecondsSince(pass_start);
    passes.push_back(std::move(outcome));

    // Traced run: a mirror pass after every measured pass times the layers
    // under RunScenario. It runs apart from the measured calls so that its
    // cache and allocator traffic does not slow them.
    if (!tracer.enabled()) continue;
    for (size_t i = 0; i < scenarios.size(); ++i) {
      const ErrorScenario& scenario = scenarios[i];
      ScenarioRunOptions run_options;
      run_options.use_tuned_params = scenario.needs_tuning;
      const uint64_t span = tracer.NextId();
      const auto t0 = Clock::now();
      LayerTimes children;
      const ScenarioRun mirror = MirrorScenario(machines.ByName(scenario.machine), scenario,
                                                run_options, tracer, span, children);
      tracer.RecordWithId(span, "scenarios.mirror", t0, Clock::now(), measure_span);
      main_layers[scenario.id].push_back(children);
      if (Fingerprint(mirror) != passes.front().scenarios[i]) {
        report.Fail("traced mirror of RunScenario disagrees on scenario " +
                    std::to_string(scenario.id));
      }
    }
  }
  const auto measure_end = Clock::now();
  tracer.RecordWithId(measure_span, "bench.measure", measure_start, measure_end);

  report.Detail("ops_per_s", static_cast<double>(requests_ok) / measured_s, "1/s");
  report.Add("ok_ratio",
             1.0 - static_cast<double>(report.failed) / static_cast<double>(report.attempted),
             "ratio");
  // Each error (and each application) is one request kind whose time is
  // fixed by its input, so the percentiles are taken over the kinds' median
  // times. Over the pooled samples, p50 would sit on the boundary between
  // two kinds and read one kind's slowest sample.
  const auto per_kind = [](const auto& times) {
    std::vector<double> medians;
    for (const auto& [kind, samples] : times) medians.push_back(Median(samples));
    return medians;
  };
  report.Add("main_p50_us", Quantile(per_kind(main_us), 0.5), "us");
  report.Add("main_p90_us", Quantile(per_kind(main_us), 0.9), "us");
  report.Detail("side_p50_us", Quantile(per_kind(side_us), 0.5), "us");
  report.Detail("side_p90_us", Quantile(per_kind(side_us), 0.9), "us");
  report.Add("rss_mb", PeakRssMb(), "MiB");
  report.Detail("passes", static_cast<double>(passes.size()), "count");

  // --- Quality (first pass) and correctness. ------------------------------
  const PassOutcome& first = passes.front();
  size_t fixed = 0, noclust_fixed = 0, screens = 0;
  double fix_minutes = 0;
  std::set<int> noclust_failed;
  for (const Repair& repair : repairs) {
    if (repair.fixed) {
      ++fixed;
      screens += repair.screenshots;
      fix_minutes += static_cast<double>(repair.time_to_fix) / 60e6;
    }
    if (repair.noclust_fixed) {
      ++noclust_fixed;
    } else {
      noclust_failed.insert(repair.id);
    }
  }
  report.Detail("cluster_accuracy",
                first.multi_clusters == 0 ? 0.0
                                          : static_cast<double>(first.correct_multi) /
                                                static_cast<double>(first.multi_clusters),
                "ratio");
  report.Detail("errors_fixed", static_cast<double>(fixed), "count");
  report.Detail("noclust_fixed", static_cast<double>(noclust_fixed), "count");
  report.Detail("screens_per_fix", fixed == 0 ? 0.0 : static_cast<double>(screens) / fixed,
                "count");
  report.Detail("fix_minutes_mean", fixed == 0 ? 0.0 : fix_minutes / static_cast<double>(fixed),
                "min");
  for (size_t p = 1; p < passes.size(); ++p) {
    if (!passes[p].SameDecisions(first)) {
      report.Fail("pass " + std::to_string(p + 1) + " decided differently from pass 1");
      break;
    }
  }
  // The paper's outcome on the Table I traces (Table IV).
  if (fixed != scenarios.size()) {
    report.Fail("Ocasta fixed " + std::to_string(fixed) + "/16 errors, expected 16");
  }
  if (noclust_failed != std::set<int>{2, 4, 6, 7, 9}) {
    report.Fail("NoClust did not fail exactly errors 2, 4, 6, 7 and 9");
  }

  report.Layer("repair.trials", static_cast<double>(first.trials_to_fix), "count");
  if (!tracer.enabled()) return;

  // --- Per-layer metrics of the traced run, per pass. ----------------------
  // Each request kind contributes the median of its own samples; a
  // scenario's self time is its measured RunScenario median minus the
  // medians of its mirrored children.
  const auto median_of = [](const std::vector<LayerTimes>& samples, double LayerTimes::*field) {
    std::vector<double> values;
    for (const LayerTimes& t : samples) values.push_back(t.*field);
    return Median(values);
  };
  LayerTimes pass;
  for (const auto& [app, samples] : side_layers) {
    pass.build_ms += median_of(samples, &LayerTimes::build_ms);
    pass.cluster_ms += median_of(samples, &LayerTimes::cluster_ms);
    pass.self_ms += median_of(samples, &LayerTimes::self_ms);
  }
  for (const auto& [id, samples] : main_layers) {
    const double build = median_of(samples, &LayerTimes::build_ms);
    const double cluster = median_of(samples, &LayerTimes::cluster_ms);
    const double search = median_of(samples, &LayerTimes::search_ms);
    pass.build_ms += build;
    pass.cluster_ms += cluster;
    pass.search_ms += search;
    pass.self_ms += Median(main_us[id]) / 1000 - build - cluster - search;
  }
  report.Layer("ttkv.build_ms", pass.build_ms, "ms");
  report.Layer("clustering.cluster_ms", pass.cluster_ms, "ms");
  report.Layer("repair.search_ms", pass.search_ms, "ms");
  report.Layer("scenarios.self_ms", pass.self_ms, "ms");

  // No daemon here: every daemon-side layer did no work.
  for (const char* name :
       {"api.codec.encode_ns", "api.codec.decode_ns", "server.loop.frame_ns_p50",
        "server.loop.frame_ns_p99", "server.engine.apply_ns_p50.get",
        "server.engine.apply_ns_p99.get", "server.engine.apply_ns_p50.put",
        "server.engine.apply_ns_p99.put", "server.engine.direct_ns_per_op",
        "persist.wal.fsync_ns_p50", "persist.wal.fsync_ns_p99", "persist.wal.append_ns_p50",
        "replica.quorum_wait_ns_p50", "replica.quorum_wait_ns_p99"}) {
    report.Layer(name, 0, "ns");
  }
  report.Layer("server.loop.frames_per_wakeup", 0, "ratio");
  report.Layer("persist.wal.commit_width", 0, "ratio");
  report.Layer("persist.wal.bytes_per_put", 0, "B");
  report.Layer("replica.lag_records_p99", 0, "records");
  report.Layer("replica.quorum_timeouts", 0, "count");
}

}  // namespace perfbench
