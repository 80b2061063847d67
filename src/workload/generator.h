// The desktop-usage simulator.
//
// Substitutes for the paper's 18-84 day deployments on real desktops: it
// drives each machine's applications through their configuration stores —
// registry/GConf accesses through the interception layer, file-backed
// configs through the flush-diff logger — over simulated days of sessions,
// producing a trace with the same statistical structure the paper's
// clustering consumes:
//   - dependency groups written together in sub-second bursts,
//   - occasional partial updates (undersized-cluster source),
//   - settings-dialog bursts touching several groups within the 1-second
//     timestamp granularity (oversized-cluster source),
//   - frequent non-configuration churn (MRU rotations, window geometry),
//   - rare software-update sweeps rewriting many keys at once,
//   - read volumes matching Table I (recorded as bulk counters).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "apps/catalog.h"
#include "apps/schema.h"
#include "logger/recorder.h"
#include "logger/trace.h"
#include "ttkv/ttkv.h"
#include "workload/profiles.h"

namespace ocasta {

// Everything one deployment produces.
struct MachineTrace {
  MachineProfile profile;
  std::vector<AppSchema> schemas;  // Hosted applications (plus "System").
  TraceLog trace;                  // Time-ordered writes/deletes (+ rare reads).
  std::map<std::string, ConfigMap> initial_configs;
  std::map<std::string, ConfigMap> final_configs;
  // Bulk read counters per app per key (traces contain millions of reads;
  // they are not stored as individual events).
  std::map<std::string, std::map<std::string, uint64_t>> read_counts;
  TimeMicros end_time = 0;

  const AppSchema& SchemaFor(const std::string& app) const;
};

// Simulates one machine's deployment.
MachineTrace GenerateMachineTrace(const MachineProfile& profile);

// Same, with explicit application schemas (unit tests use small custom
// apps; the default overload loads the catalog apps named by the profile).
MachineTrace GenerateMachineTrace(const MachineProfile& profile,
                                  std::vector<AppSchema> schemas);

// One application's slice of a machine: its own events, its schema, its
// initial and final configs and read counters, with the machine's profile
// and end time. Every per-application helper here and in inject.h gives
// the same result on the slice as on the whole machine. Throws Error if
// the machine does not host `app`.
MachineTrace AppSlice(const MachineTrace& machine, const std::string& app);

// Rebuilds one application's TTKV from a machine trace: write/delete events
// recorded at (by default) second granularity plus bulk read counters.
TTKV BuildAppTtkv(const MachineTrace& machine, const std::string& app, bool quantize = true);

// Machine-wide TTKV across all applications (the Table I "TTKV" row).
TTKV BuildMachineTtkv(const MachineTrace& machine, bool quantize = true);

// Per-application TTKV aggregated across machines, as the paper aggregates
// per-user histories. Machines are shifted onto disjoint time ranges so
// cross-machine writes can never fall into one co-modification window.
TTKV BuildAppTtkvAcrossMachines(const std::vector<const MachineTrace*>& machines,
                                const std::string& app, bool quantize = true);

// Applies an application's write/delete events on top of an initial
// configuration (used to materialise post-injection live state).
ConfigMap ReplayToConfig(const ConfigMap& initial, const TraceLog& trace,
                         const std::string& app);

}  // namespace ocasta
