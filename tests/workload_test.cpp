#include <gtest/gtest.h>

#include <set>

#include "apps/catalog.h"
#include "common/error.h"
#include "common/hash.h"
#include "workload/generator.h"
#include "workload/inject.h"
#include "workload/profiles.h"
#include "workload/value_gen.h"

namespace ocasta {
namespace {

// A small two-app machine used by most tests here (fast to generate).
MachineProfile MiniProfile() {
  MachineProfile profile;
  profile.name = "mini";
  profile.days = 20;
  profile.apps = {kGnomeEdit, kEyeOfGnome};
  profile.sessions_per_day = 4;
  profile.reads_per_key_per_session = 2;
  profile.seed = 77;
  return profile;
}

MachineTrace MiniMachine() {
  const MachineProfile profile = MiniProfile();
  std::vector<AppSchema> schemas{BuildGnomeEdit(), BuildEyeOfGnome()};
  return GenerateMachineTrace(profile, std::move(schemas));
}

// ----- Value generation ----------------------------------------------------------------

TEST(NextValue, ProducesDifferentValueWhenPossible) {
  Rng rng(1);
  KeySpec toggle{.path = "k", .type = ValueType::kBool};
  EXPECT_EQ(NextValue(rng, toggle, Value(true)), Value(false));
  EXPECT_EQ(NextValue(rng, toggle, Value(false)), Value(true));

  KeySpec choice{.path = "k", .type = ValueType::kString, .choices = {"a", "b", "c"}};
  for (int i = 0; i < 20; ++i) {
    EXPECT_NE(NextValue(rng, choice, Value("b")), Value("b"));
  }
  KeySpec number{.path = "k", .type = ValueType::kInt, .int_min = 0, .int_max = 100};
  for (int i = 0; i < 20; ++i) {
    const Value v = NextValue(rng, number, Value(50));
    EXPECT_NE(v, Value(50));
    EXPECT_GE(v.as_int(), 0);
    EXPECT_LE(v.as_int(), 100);
  }
}

TEST(NextValue, ListsDrawFromPool) {
  Rng rng(2);
  KeySpec list{.path = "k", .type = ValueType::kStringList, .choices = {"a", "b", "c", "d"}};
  for (int i = 0; i < 10; ++i) {
    const Value v = NextValue(rng, list, std::nullopt);
    EXPECT_GE(v.as_list().size(), 1u);
    EXPECT_LE(v.as_list().size(), 4u);
    for (const std::string& item : v.as_list()) {
      EXPECT_NE(std::find(list.choices.begin(), list.choices.end(), item), list.choices.end());
    }
  }
}

// ----- Profiles ---------------------------------------------------------------------------

TEST(Profiles, NineTable1Machines) {
  const auto profiles = Table1Profiles();
  ASSERT_EQ(profiles.size(), 9u);
  EXPECT_EQ(profiles[0].name, "Windows 7");
  EXPECT_EQ(profiles[8].name, "Linux-4");
  EXPECT_EQ(ProfileByName("Linux-2").days, 84);
  EXPECT_THROW(ProfileByName("Windows 11"), Error);
  // Every scenario machine hosts its application.
  for (const MachineProfile& profile : profiles) {
    for (const std::string& app : profile.apps) {
      EXPECT_NO_THROW(AppSchemaByName(app));
    }
  }
}

// ----- Generator invariants -----------------------------------------------------------------

TEST(Generator, DeterministicForSameSeed) {
  const MachineTrace a = MiniMachine();
  const MachineTrace b = MiniMachine();
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace.events()[i], b.trace.events()[i]);
  }
  EXPECT_EQ(a.final_configs, b.final_configs);
}

TEST(Generator, EventsAreTimeOrdered) {
  const MachineTrace machine = MiniMachine();
  ASSERT_FALSE(machine.trace.empty());
  for (size_t i = 1; i < machine.trace.size(); ++i) {
    EXPECT_LE(machine.trace.events()[i - 1].timestamp, machine.trace.events()[i].timestamp);
  }
  EXPECT_LE(machine.trace.events().back().timestamp, machine.end_time + Minutes(5));
}

TEST(Generator, FinalConfigMatchesReplay) {
  // The live store state must equal the initial config plus the trace —
  // otherwise the logger missed a write.
  const MachineTrace machine = MiniMachine();
  for (const AppSchema& schema : machine.schemas) {
    const ConfigMap replayed =
        ReplayToConfig(machine.initial_configs.at(schema.name), machine.trace, schema.name);
    EXPECT_EQ(replayed, machine.final_configs.at(schema.name)) << schema.name;
  }
}

TEST(Generator, MinChangesGuaranteeHonored) {
  const MachineTrace machine = MiniMachine();
  const TTKV ttkv = BuildAppTtkv(machine, kGnomeEdit);
  // gedit-save has min_changes_per_trace = 3.
  const auto& record = ttkv.record("/apps/gedit-2/preferences/editor/save/can_save");
  EXPECT_GE(record.write_count, 3u);
  // And those forced changes land before the last 14 days (the scenario
  // injection window).
  EXPECT_LT(record.first_modified(), machine.end_time - Days(14));
}

TEST(Generator, ReadCountsPopulated) {
  const MachineTrace machine = MiniMachine();
  const auto& counts = machine.read_counts.at(kGnomeEdit);
  EXPECT_GE(counts.size(), 9u);  // All accessed keys get read counters.
  uint64_t total = 0;
  for (const auto& [key, count] : counts) total += count;
  EXPECT_GT(total, 0u);
}

TEST(Generator, RecordedTracesKeepTheirFingerprints) {
  // FNV-1a of TraceLog::ToText() per machine, pinned so that a change to a
  // logger, a store or the generator cannot alter the recorded traces
  // unnoticed. Covers GConf (Linux-1), file-backed JSON (Linux-2) and PSKV
  // (Linux-3, Linux-4) apps, and registry apps (Windows Vista).
  const std::pair<const char*, uint64_t> kFingerprints[] = {
      {"Linux-1", 0x15615ddbe316a908ULL},       {"Linux-2", 0x7dfb09ad273c9a31ULL},
      {"Linux-3", 0xc263b8f5e1cb4d96ULL},       {"Linux-4", 0xfce365d288a93534ULL},
      {"Windows Vista", 0xfdee3316b6642733ULL},
  };
  for (const auto& [name, fingerprint] : kFingerprints) {
    const MachineTrace machine = GenerateMachineTrace(ProfileByName(name));
    EXPECT_EQ(Fnv1a(machine.trace.ToText()), fingerprint) << name;
  }
}

TEST(Generator, FileAppsLogThroughFlushDiff) {
  MachineProfile profile = MiniProfile();
  profile.apps = {kChrome};
  const MachineTrace machine = GenerateMachineTrace(profile, {BuildChrome()});
  bool any_file_event = false;
  for (const AccessEvent& event : machine.trace.events()) {
    EXPECT_EQ(event.store, StoreKind::kFile);
    EXPECT_NE(event.op, AccessOp::kRead);  // Flush diff sees writes only.
    any_file_event = true;
  }
  EXPECT_TRUE(any_file_event);
}

TEST(Generator, MruResizeDeletesTrimmedItems) {
  MachineProfile profile = MiniProfile();
  profile.days = 40;
  profile.apps = {kWord};
  const MachineTrace machine = GenerateMachineTrace(profile, {BuildWord()});
  // Word's MRU resizes must produce deletion events for trimmed items.
  bool any_item_delete = false;
  for (const AccessEvent& event : machine.trace.events()) {
    if (event.op == AccessOp::kDelete && event.key.find("File MRU\\Item") != std::string::npos) {
      any_item_delete = true;
      break;
    }
  }
  EXPECT_TRUE(any_item_delete);
}

TEST(BuildAppTtkv, QuantizesAndCounts) {
  const MachineTrace machine = MiniMachine();
  const TTKV ttkv = BuildAppTtkv(machine, kGnomeEdit);
  for (uint32_t id = 0; id < ttkv.num_keys(); ++id) {
    for (const Version& version : ttkv.record(id).versions) {
      EXPECT_EQ(version.timestamp % kMicrosPerSecond, 0) << "timestamp not quantised";
    }
  }
  const TraceStats trace_stats = machine.trace.FilterByApp(kGnomeEdit).Stats();
  EXPECT_EQ(ttkv.stats().writes, trace_stats.writes);
}

TEST(AppSlice, KeepsOneApplicationsWholeHistory) {
  const MachineTrace machine = MiniMachine();
  const MachineTrace slice = AppSlice(machine, kGnomeEdit);
  EXPECT_EQ(slice.trace.events(), machine.trace.FilterByApp(kGnomeEdit).events());
  ASSERT_EQ(slice.schemas.size(), 1u);
  EXPECT_EQ(slice.schemas[0].name, kGnomeEdit);
  EXPECT_EQ(slice.initial_configs.size(), 1u);
  EXPECT_EQ(slice.initial_configs.at(kGnomeEdit), machine.initial_configs.at(kGnomeEdit));
  EXPECT_EQ(slice.final_configs.size(), 1u);
  EXPECT_EQ(slice.final_configs.at(kGnomeEdit), machine.final_configs.at(kGnomeEdit));
  EXPECT_EQ(slice.read_counts.size(), 1u);
  EXPECT_EQ(slice.read_counts.at(kGnomeEdit), machine.read_counts.at(kGnomeEdit));
  EXPECT_EQ(slice.end_time, machine.end_time);
  EXPECT_EQ(slice.profile.name, machine.profile.name);

  // The per-application helpers cannot tell the slice from the machine.
  EXPECT_EQ(BuildAppTtkv(slice, kGnomeEdit).Serialize(),
            BuildAppTtkv(machine, kGnomeEdit).Serialize());
  const TimeMicros t = machine.end_time - Days(5);
  EXPECT_EQ(SnapshotAt(slice, kGnomeEdit, t), SnapshotAt(machine, kGnomeEdit, t));
  EXPECT_THROW(AppSlice(machine, "No Such App"), Error);
}

TEST(BuildAppTtkvAcrossMachines, DisjointTimeRanges) {
  const MachineTrace a = MiniMachine();
  MachineProfile profile2 = MiniProfile();
  profile2.seed = 99;
  const MachineTrace b = GenerateMachineTrace(profile2, {BuildGnomeEdit(), BuildEyeOfGnome()});
  const TTKV merged = BuildAppTtkvAcrossMachines({&a, &b}, kGnomeEdit);
  const TTKV only_a = BuildAppTtkv(a, kGnomeEdit);
  const TTKV only_b = BuildAppTtkv(b, kGnomeEdit);
  EXPECT_EQ(merged.stats().writes, only_a.stats().writes + only_b.stats().writes);
  // The second machine's events sit beyond the first machine's horizon.
  const auto events = merged.write_events();
  EXPECT_GT(events.back().timestamp, a.end_time + Days(999));
}

// ----- Injection -----------------------------------------------------------------------------

TEST(Inject, CorruptsFinalStateAndHistory) {
  MachineTrace machine = MiniMachine();
  const std::string key = "/apps/gedit-2/preferences/editor/save/can_save";
  const TimeMicros t_inj = machine.end_time - Days(5);
  machine.trace.RemoveEventsForKeys(kGnomeEdit, {key}, t_inj);

  InjectionSpec spec;
  spec.app = kGnomeEdit;
  spec.at = t_inj;
  spec.corruptions = {{key, Value(false)}};
  InjectError(machine, spec);

  EXPECT_EQ(machine.final_configs.at(kGnomeEdit).at(key), Value(false));
  const TTKV ttkv = BuildAppTtkv(machine, kGnomeEdit);
  EXPECT_EQ(ttkv.value_at(key, machine.end_time), Value(false));
  // The pre-injection value is still reachable by time travel.
  const ConfigMap good = SnapshotAt(machine, kGnomeEdit, t_inj);
  EXPECT_EQ(ttkv.value_at(key, t_inj - 1), good.at(key));
}

TEST(Inject, DeletionCorruption) {
  MachineTrace machine = MiniMachine();
  const std::string key = "/apps/gedit-2/preferences/editor/save/can_save";
  InjectionSpec spec;
  spec.app = kGnomeEdit;
  spec.at = machine.end_time - Days(5);
  spec.corruptions = {{key, std::nullopt}};
  machine.trace.RemoveEventsForKeys(kGnomeEdit, {key}, spec.at);
  InjectError(machine, spec);
  EXPECT_EQ(machine.final_configs.at(kGnomeEdit).count(key), 0u);
}

TEST(Inject, SpuriousWritesAddVersions) {
  MachineTrace machine = MiniMachine();
  const std::string key = "/apps/gedit-2/preferences/editor/save/can_save";
  machine.trace.RemoveEventsForKeys(kGnomeEdit, {key}, machine.end_time - Days(5));
  const TTKV before = BuildAppTtkv(machine, kGnomeEdit);

  InjectionSpec spec;
  spec.app = kGnomeEdit;
  spec.at = machine.end_time - Days(5);
  spec.corruptions = {{key, Value(false)}};
  spec.spurious_writes = 2;
  InjectError(machine, spec);
  const TTKV after = BuildAppTtkv(machine, kGnomeEdit);
  EXPECT_EQ(after.record(key).write_count, before.record(key).write_count + 3);
}

TEST(Inject, EmptyCorruptionsThrow) {
  MachineTrace machine = MiniMachine();
  InjectionSpec spec;
  spec.app = kGnomeEdit;
  EXPECT_THROW(InjectError(machine, spec), Error);
}

}  // namespace
}  // namespace ocasta
