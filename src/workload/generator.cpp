#include "workload/generator.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/error.h"
#include "common/rng.h"
#include "configstore/file_config_store.h"
#include "workload/value_gen.h"
#include "configstore/gconf_store.h"
#include "configstore/intercepting_store.h"
#include "configstore/registry_store.h"
#include "logger/flush_diff.h"

namespace ocasta {

namespace {

// Per-application live state during generation.
struct AppRuntime {
  const AppSchema* schema = nullptr;
  std::unique_ptr<ConfigStore> backing;
  std::unique_ptr<InterceptingStore> intercepted;   // Registry/GConf apps.
  std::unique_ptr<FlushDiffLogger> flush_logger;    // File apps.
  ConfigStore* view = nullptr;  // What the application writes through.
  Rng rng{0};
};

enum class EventKind : uint8_t {
  kFullChange,   // User changes a whole group (or a partial subset).
  kRotation,     // High-rate solo activity (MRU rotate / reorder / noise).
  kSwUpdate,     // Software update sweeping many keys.
};

struct ScheduledEvent {
  TimeMicros t = 0;
  size_t app_index = 0;
  size_t group_index = 0;  // Unused for kSwUpdate.
  EventKind kind = EventKind::kFullChange;
};

class Generator {
 public:
  Generator(const MachineProfile& profile, std::vector<AppSchema> schemas)
      : profile_(profile), rng_(profile.seed) {
    machine_.profile = profile;
    machine_.schemas = std::move(schemas);
    machine_.end_time = Days(profile.days);
  }

  MachineTrace Run() {
    SetUpRuntimes();
    ScheduleSessionsAndReads();
    ScheduleEvents();
    ExecuteEvents();
    for (auto& rt : runtimes_) {
      machine_.final_configs[rt.schema->name] = rt.backing->Snapshot();
    }
    return std::move(machine_);
  }

 private:
  void SetUpRuntimes() {
    for (const AppSchema& schema : machine_.schemas) {
      AppRuntime rt;
      rt.schema = &schema;
      rt.rng = rng_.fork();
      switch (schema.store) {
        case StoreKind::kRegistry: rt.backing = std::make_unique<RegistryStore>(); break;
        case StoreKind::kGconf: rt.backing = std::make_unique<GconfStore>(); break;
        case StoreKind::kFile:
          rt.backing = std::make_unique<FileConfigStore>(schema.file_format);
          break;
      }
      // Install defaults silently: the pre-deployment state is not traced.
      const ConfigMap defaults = schema.DefaultConfig();
      rt.backing->RestoreSnapshot(defaults);
      machine_.initial_configs[schema.name] = defaults;

      if (schema.store == StoreKind::kFile) {
        auto* file_store = static_cast<FileConfigStore*>(rt.backing.get());
        file_store->Flush();  // Seed the virtual file before observing.
        rt.flush_logger = std::make_unique<FlushDiffLogger>(schema.name, schema.file_format,
                                                            clock_, machine_.trace);
        rt.flush_logger->Attach(*file_store);
        rt.view = file_store;
      } else {
        rt.intercepted = std::make_unique<InterceptingStore>(*rt.backing, schema.name, clock_,
                                                             &machine_.trace);
        rt.view = rt.intercepted.get();
      }
      runtimes_.push_back(std::move(rt));
    }
  }

  // Session plan: per day, session start times shared by all applications.
  void ScheduleSessionsAndReads() {
    sessions_.resize(static_cast<size_t>(profile_.days));
    for (int day = 0; day < profile_.days; ++day) {
      const int count = std::max<int>(
          1, static_cast<int>(std::lround(rng_.next_normal(profile_.sessions_per_day,
                                                           profile_.sessions_per_day / 4.0))));
      for (int s = 0; s < count; ++s) {
        const TimeMicros start =
            Days(day) + Hours(8) + static_cast<TimeMicros>(rng_.next_double() * Hours(13));
        sessions_[static_cast<size_t>(day)].push_back(start);
      }
      std::sort(sessions_[static_cast<size_t>(day)].begin(),
                sessions_[static_cast<size_t>(day)].end());
    }

    // Bulk read accounting: every session loads/reads the configuration.
    for (auto& rt : runtimes_) {
      const bool is_background = rt.schema->name == "System";
      double rpk = profile_.reads_per_key_per_session;
      if (is_background) rpk = profile_.background_reads_per_key_per_session;
      if (rt.schema->store == StoreKind::kFile) rpk = std::min(rpk, 2.0);
      auto& counts = machine_.read_counts[rt.schema->name];
      size_t total_sessions = 0;
      for (const auto& day_sessions : sessions_) total_sessions += day_sessions.size();
      auto add_reads = [&](const std::string& path) {
        const double expected = rpk * static_cast<double>(total_sessions);
        const uint64_t base = static_cast<uint64_t>(expected);
        const double frac = expected - static_cast<double>(base);
        counts[path] = base + (rt.rng.next_bool(frac) ? 1 : 0);
      };
      for (const SchemaGroup& group : *&rt.schema->groups) {
        for (const KeySpec& key : group.keys) add_reads(key.path);
      }
      for (const KeySpec& key : rt.schema->readonly_keys) add_reads(key.path);
    }
  }

  TimeMicros RandomSessionTime(int day, Rng& rng) {
    const auto& day_sessions = sessions_[static_cast<size_t>(day)];
    const TimeMicros start = day_sessions[rng.next_below(day_sessions.size())];
    return start + static_cast<TimeMicros>(rng.next_double() * Hours(1.5));
  }

  void ScheduleEvents() {
    for (size_t a = 0; a < runtimes_.size(); ++a) {
      AppRuntime& rt = runtimes_[a];
      const AppSchema& schema = *rt.schema;
      std::vector<size_t> change_counts(schema.groups.size(), 0);

      for (size_t g = 0; g < schema.groups.size(); ++g) {
        const SchemaGroup& group = schema.groups[g];
        // User-initiated configuration changes.
        const double p = group.changes_per_day * profile_.config_activity_scale;
        for (int day = 0; day < profile_.days; ++day) {
          if (p > 0 && rt.rng.next_bool(std::min(p, 1.0))) {
            ScheduleChange(a, g, RandomSessionTime(day, rt.rng), rt);
            ++change_counts[g];
          }
        }
        // High-rate solo activity, every session.
        if (group.rotations_per_session > 0) {
          for (int day = 0; day < profile_.days; ++day) {
            for (TimeMicros session_start : sessions_[static_cast<size_t>(day)]) {
              const int n = PoissonDraw(rt.rng, group.rotations_per_session);
              for (int i = 0; i < n; ++i) {
                events_.push_back(
                    {session_start + static_cast<TimeMicros>(rt.rng.next_double() * Hours(1.5)),
                     a, g, EventKind::kRotation});
              }
            }
          }
        }
      }

      // Guaranteed minimum change counts (scenario preconditions). Forced
      // changes land in the earlier part of the trace so the keys have
      // history *before* the repair evaluation's 14-day injection window —
      // the paper's "offending setting(s) have been modified in our traces"
      // restriction.
      const int early_days = std::max(1, profile_.days - 15);
      for (size_t g = 0; g < schema.groups.size(); ++g) {
        const auto want = static_cast<size_t>(std::ceil(schema.groups[g].min_changes_per_trace));
        while (change_counts[g] < want) {
          const int day = static_cast<int>(rt.rng.next_below(static_cast<uint64_t>(early_days)));
          ScheduleChange(a, g, RandomSessionTime(day, rt.rng), rt);
          ++change_counts[g];
        }
      }

      // Software updates.
      const int updates = static_cast<int>(std::lround(schema.sw_updates_per_trace));
      for (int u = 0; u < updates; ++u) {
        const int day = static_cast<int>(rt.rng.next_below(static_cast<uint64_t>(profile_.days)));
        events_.push_back({RandomSessionTime(day, rt.rng), a, 0, EventKind::kSwUpdate});
      }
    }
    std::stable_sort(events_.begin(), events_.end(),
                     [](const ScheduledEvent& x, const ScheduledEvent& y) { return x.t < y.t; });
  }

  // Schedules a full-group change; with dialog_burst_prob, pulls additional
  // groups into the same sub-second burst (the oversized-cluster source).
  void ScheduleChange(size_t app_index, size_t group_index, TimeMicros t, AppRuntime& rt) {
    events_.push_back({t, app_index, group_index, EventKind::kFullChange});
    const AppSchema& schema = *rt.schema;
    if (schema.dialog_burst_prob > 0 && rt.rng.next_bool(schema.dialog_burst_prob) &&
        schema.groups.size() > 1) {
      const int extra =
          1 + static_cast<int>(rt.rng.next_below(
                  static_cast<uint64_t>(std::max(1, schema.dialog_burst_max_groups - 1))));
      for (int i = 0; i < extra; ++i) {
        const size_t other = rt.rng.next_below(schema.groups.size());
        if (other == group_index) continue;
        if (schema.groups[other].rotations_per_session > 0) continue;  // Not dialog settings.
        events_.push_back({t + static_cast<TimeMicros>(rt.rng.next_double() * Seconds(0.8)),
                           app_index, other, EventKind::kFullChange});
      }
    }
  }

  static int PoissonDraw(Rng& rng, double mean) {
    // Knuth's method; means here are small (< 10).
    const double limit = std::exp(-mean);
    int k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= rng.next_double();
    } while (p > limit);
    return k - 1;
  }

  void ExecuteEvents() {
    for (const ScheduledEvent& event : events_) {
      clock_.advance_to(event.t);
      AppRuntime& rt = runtimes_[event.app_index];
      switch (event.kind) {
        case EventKind::kFullChange: {
          const SchemaGroup& group = rt.schema->groups[event.group_index];
          ApplyFullChange(rt, group);
          ApplySectionRewrite(rt, group);
          break;
        }
        case EventKind::kRotation: ApplyRotation(rt, rt.schema->groups[event.group_index]); break;
        case EventKind::kSwUpdate: ApplySwUpdate(rt); break;
      }
    }
  }

  // When the changed group belongs to a write section, the application
  // rewrites the section's other groups too, spread over a couple of
  // seconds (sub-window gaps, so 1-second-window clustering merges them).
  void ApplySectionRewrite(AppRuntime& rt, const SchemaGroup& changed) {
    for (const auto& section : rt.schema->write_sections) {
      bool contains = false;
      for (const std::string& name : section) contains |= (name == changed.name);
      if (!contains) continue;
      for (const std::string& name : section) {
        if (name == changed.name) continue;
        const SchemaGroup* mate = rt.schema->FindGroup(name);
        if (mate == nullptr) throw Error("write section names unknown group: " + name);
        clock_.advance(static_cast<TimeMicros>(Seconds(0.3) + rt.rng.next_double() * Seconds(0.5)));
        for (const KeySpec& key : mate->keys) WriteFresh(rt, key);
      }
      if (rt.schema->store == StoreKind::kFile) {
        static_cast<FileConfigStore*>(rt.backing.get())->Flush();
      }
      return;  // Groups belong to at most one section.
    }
  }

  void WriteFresh(AppRuntime& rt, const KeySpec& key) {
    std::optional<Value> current = rt.backing->Read(key.path);
    rt.view->Write(key.path, NextValue(rt.rng, key, current));
  }

  void AdvanceSpread(const SchemaGroup& group, AppRuntime& rt) {
    if (group.keys.size() > 1) {
      clock_.advance(static_cast<TimeMicros>(
          rt.rng.next_double() * Seconds(group.spread_seconds) /
          static_cast<double>(group.keys.size())));
    }
  }

  void ApplyFullChange(AppRuntime& rt, const SchemaGroup& group) {
    switch (group.kind) {
      case GroupKind::kUniform: {
        std::vector<size_t> indices(group.keys.size());
        for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
        if (group.partial_update_prob > 0 && group.keys.size() > 1 &&
            rt.rng.next_bool(group.partial_update_prob)) {
          // Partial update: keep a random strict subset (>= 1 key).
          for (size_t i = indices.size(); i > 1; --i) {
            std::swap(indices[i - 1], indices[rt.rng.next_below(i)]);
          }
          indices.resize(1 + rt.rng.next_below(group.keys.size() - 1));
          std::sort(indices.begin(), indices.end());
        }
        for (size_t i : indices) {
          WriteFresh(rt, group.keys[i]);
          AdvanceSpread(group, rt);
        }
        break;
      }
      case GroupKind::kMruList: {
        // Resize: new max-count value, rewrite the surviving items, delete
        // the rest (MS Word trims Item keys beyond Max Display).
        const KeySpec& dominant = group.keys[0];
        const auto item_count = static_cast<int64_t>(group.keys.size()) - 1;
        const int64_t lo = std::max<int64_t>(1, item_count / 4);
        const int64_t new_max = rt.rng.next_range(lo, item_count);
        rt.view->Write(dominant.path, Value(new_max));
        for (int64_t i = 1; i <= item_count; ++i) {
          const KeySpec& item = group.keys[static_cast<size_t>(i)];
          AdvanceSpread(group, rt);
          if (i <= new_max) {
            WriteFresh(rt, item);
          } else {
            rt.view->Remove(item.path);
          }
        }
        break;
      }
      case GroupKind::kMasterList: {
        // Add/remove: rewrite the master list and 1-2 member entries.
        WriteFresh(rt, group.keys[0]);
        const size_t members = group.keys.size() - 1;
        const size_t touched = 1 + rt.rng.next_below(std::min<size_t>(2, members));
        for (size_t i = 0; i < touched; ++i) {
          AdvanceSpread(group, rt);
          WriteFresh(rt, group.keys[1 + rt.rng.next_below(members)]);
        }
        break;
      }
    }
    if (rt.schema->store == StoreKind::kFile) {
      static_cast<FileConfigStore*>(rt.backing.get())->Flush();
    }
  }

  void ApplyRotation(AppRuntime& rt, const SchemaGroup& group) {
    switch (group.kind) {
      case GroupKind::kUniform: {
        // Noise key churn.
        for (const KeySpec& key : group.keys) WriteFresh(rt, key);
        break;
      }
      case GroupKind::kMruList: {
        // Opening a document shifts a prefix of the list; the dominant
        // Max Display key is untouched.
        const KeySpec& dominant = group.keys[0];
        const auto current = rt.backing->Read(dominant.path);
        const int64_t max_items = current && current->type() == ValueType::kInt
                                      ? current->as_int()
                                      : static_cast<int64_t>(group.keys.size()) - 1;
        const int64_t live = std::min<int64_t>(max_items, static_cast<int64_t>(group.keys.size()) - 1);
        if (live < 1) break;
        const int64_t prefix = 1 + static_cast<int64_t>(rt.rng.next_below(
                                       static_cast<uint64_t>(std::min<int64_t>(live, 4))));
        for (int64_t i = 1; i <= prefix; ++i) {
          WriteFresh(rt, group.keys[static_cast<size_t>(i)]);
          AdvanceSpread(group, rt);
        }
        break;
      }
      case GroupKind::kMasterList: {
        // Reordering rewrites the master key only.
        WriteFresh(rt, group.keys[0]);
        break;
      }
    }
    if (rt.schema->store == StoreKind::kFile) {
      static_cast<FileConfigStore*>(rt.backing.get())->Flush();
    }
  }

  void ApplySwUpdate(AppRuntime& rt) {
    // Rewrites ~30% of all writable keys in a burst of a few seconds.
    for (const SchemaGroup& group : rt.schema->groups) {
      for (const KeySpec& key : group.keys) {
        if (!rt.rng.next_bool(0.3)) continue;
        WriteFresh(rt, key);
        clock_.advance(static_cast<TimeMicros>(rt.rng.next_double() * Seconds(0.05)));
      }
    }
    if (rt.schema->store == StoreKind::kFile) {
      static_cast<FileConfigStore*>(rt.backing.get())->Flush();
    }
  }

  const MachineProfile& profile_;
  Rng rng_;
  SimClock clock_;
  MachineTrace machine_;
  std::vector<AppRuntime> runtimes_;
  std::vector<std::vector<TimeMicros>> sessions_;
  std::vector<ScheduledEvent> events_;
};

}  // namespace

const AppSchema& MachineTrace::SchemaFor(const std::string& app) const {
  for (const AppSchema& schema : schemas) {
    if (schema.name == app) return schema;
  }
  throw Error("machine trace does not host application: " + app);
}

MachineTrace GenerateMachineTrace(const MachineProfile& profile,
                                  std::vector<AppSchema> schemas) {
  Generator generator(profile, std::move(schemas));
  return generator.Run();
}

MachineTrace GenerateMachineTrace(const MachineProfile& profile) {
  std::vector<AppSchema> schemas;
  for (const std::string& app : profile.apps) schemas.push_back(AppSchemaByName(app));
  if (profile.background_keys > 0) {
    schemas.push_back(BuildSystemBackground(profile.background_store, profile.background_keys,
                                            profile.background_churn_keys));
  }
  return GenerateMachineTrace(profile, std::move(schemas));
}

MachineTrace AppSlice(const MachineTrace& machine, const std::string& app) {
  MachineTrace slice;
  slice.profile = machine.profile;
  slice.schemas = {machine.SchemaFor(app)};
  slice.trace = machine.trace.FilterByApp(app);
  const auto copy_entry = [&app](const auto& from, auto& to) {
    auto it = from.find(app);
    if (it != from.end()) to.emplace(app, it->second);
  };
  copy_entry(machine.initial_configs, slice.initial_configs);
  copy_entry(machine.final_configs, slice.final_configs);
  copy_entry(machine.read_counts, slice.read_counts);
  slice.end_time = machine.end_time;
  return slice;
}

TTKV BuildAppTtkv(const MachineTrace& machine, const std::string& app, bool quantize) {
  TTKV ttkv;
  TtkvRecorder recorder(ttkv, quantize);
  for (const AccessEvent& event : machine.trace.events()) {
    if (event.app == app) recorder.OnAccess(event);
  }
  auto it = machine.read_counts.find(app);
  if (it != machine.read_counts.end()) {
    for (const auto& [key, count] : it->second) ttkv.record_reads(key, count);
  }
  return ttkv;
}

TTKV BuildMachineTtkv(const MachineTrace& machine, bool quantize) {
  TTKV ttkv;
  TtkvRecorder recorder(ttkv, quantize);
  for (const AccessEvent& event : machine.trace.events()) recorder.OnAccess(event);
  for (const auto& [app, counts] : machine.read_counts) {
    for (const auto& [key, count] : counts) ttkv.record_reads(key, count);
  }
  return ttkv;
}

TTKV BuildAppTtkvAcrossMachines(const std::vector<const MachineTrace*>& machines,
                                const std::string& app, bool quantize) {
  TTKV ttkv;
  TtkvRecorder recorder(ttkv, quantize);
  TimeMicros offset = 0;
  for (const MachineTrace* machine : machines) {
    for (const AccessEvent& event : machine->trace.events()) {
      if (event.app != app) continue;
      AccessEvent shifted = event;
      shifted.timestamp += offset;
      recorder.OnAccess(shifted);
    }
    auto it = machine->read_counts.find(app);
    if (it != machine->read_counts.end()) {
      for (const auto& [key, count] : it->second) ttkv.record_reads(key, count);
    }
    offset += machine->end_time + Days(1000);
  }
  return ttkv;
}

ConfigMap ReplayToConfig(const ConfigMap& initial, const TraceLog& trace,
                         const std::string& app) {
  ConfigMap state = initial;
  for (const AccessEvent& event : trace.events()) {
    if (event.app != app) continue;
    switch (event.op) {
      case AccessOp::kRead: break;
      case AccessOp::kWrite: state[event.key] = event.value; break;
      case AccessOp::kDelete: state.erase(event.key); break;
    }
  }
  return state;
}

}  // namespace ocasta
