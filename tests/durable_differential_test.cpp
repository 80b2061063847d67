// Differential property test: one random api::Command trace, three
// executions —
//   TtkvOracle       (plain sequential TTKV reference, tests/ttkv_oracle.h)
//   ShardedTtkv      (4 lock-striped shards)
//   DurableEngine    (WAL over a 1-shard ShardedTtkv) that CRASHES at a
//                    random trace offset — the process-side half of the
//                    trace stops, the engine object is dropped without
//                    ceremony, a torn garbage tail is stapled onto the live
//                    WAL segment, the engine is recovered from disk, and
//                    the rest of the trace resumes
// — and the final durable state (key inventory, version histories,
// write/delete counts, engine stats) must be identical across all three.
//
// Read counters are compared only between the always-alive engines: reads
// are deliberately never write-ahead logged, so a recovered engine forgets
// read counts since the last checkpoint (docs/DURABILITY.md).
//
// Traces use explicit, strictly-increasing timestamps: engine-assigned
// stamps come from wall clocks that would legitimately differ across the
// three executions and say nothing about durability.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <gtest/gtest.h>

#include "api/engine.h"
#include "common/io.h"
#include "common/rng.h"
#include "persist/durable_engine.h"
#include "server/sharded_ttkv.h"
#include "ttkv_oracle.h"

namespace ocasta {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/ocasta_differential_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) throw Error("mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

Value RandomValue(Rng& rng) {
  switch (rng.next_below(5)) {
    case 0: return Value(static_cast<int64_t>(rng.next_below(1000)));
    case 1: return Value(rng.next_double());
    case 2: return Value(rng.next_bool(0.5));
    case 3: return Value("v" + std::to_string(rng.next_below(100)));
    default:
      return Value(std::vector<std::string>{"a" + std::to_string(rng.next_below(10)),
                                            "b" + std::to_string(rng.next_below(10))});
  }
}

std::string RandomKey(Rng& rng) { return "/d/" + std::to_string(rng.next_below(40)); }

// One random simple (non-batch) command. `t` supplies the explicit
// timestamp for mutations; weights skew toward writes so histories grow.
api::Command RandomSimpleCommand(Rng& rng, TimeMicros t) {
  const uint64_t roll = rng.next_below(100);
  if (roll < 55) return api::PutCmd{RandomKey(rng), RandomValue(rng), t};
  if (roll < 70) return api::DeleteCmd{RandomKey(rng), t, rng.next_bool(0.3)};
  if (roll < 85) return api::GetCmd{RandomKey(rng)};
  if (roll < 92) return api::GetAtCmd{RandomKey(rng), t / 2};
  if (roll < 97) return api::HistoryCmd{RandomKey(rng)};
  return api::ListKeysCmd{"/d/"};
}

// The trace: mostly simple commands, some batches (depth 2..8), a rare
// compact. Timestamps strictly increase across the whole trace.
std::vector<api::Command> RandomTrace(Rng& rng, size_t length) {
  std::vector<api::Command> trace;
  TimeMicros t = Seconds(1);
  while (trace.size() < length) {
    t += 1000 + static_cast<TimeMicros>(rng.next_below(1000));
    const uint64_t roll = rng.next_below(100);
    if (roll < 80) {
      trace.push_back(RandomSimpleCommand(rng, t));
    } else if (roll < 96) {
      api::BatchCmd batch;
      const size_t depth = 2 + rng.next_below(7);
      for (size_t i = 0; i < depth; ++i) {
        t += 1 + static_cast<TimeMicros>(rng.next_below(10));
        batch.commands.push_back(RandomSimpleCommand(rng, t));
      }
      trace.push_back(std::move(batch));
    } else {
      // Compact far enough behind the write frontier to keep some history.
      trace.push_back(api::CompactCmd{t > Seconds(2) ? t - Seconds(1) : 0});
    }
  }
  return trace;
}

// Durable state of one engine, read back through the public API.
struct DurableState {
  std::vector<std::string> keys;  // All keys ever recorded, sorted.
  TTKV snapshot;
};

DurableState StateOf(api::Engine& engine) {
  DurableState state;
  state.snapshot = api::Snapshot(engine);
  for (uint32_t id = 0; id < state.snapshot.num_keys(); ++id) {
    state.keys.push_back(state.snapshot.record(id).key);
  }
  std::sort(state.keys.begin(), state.keys.end());
  return state;
}

// Asserts the durable dimensions of two snapshots are identical;
// `compare_reads` additionally matches read counters (valid only between
// engines that never crashed).
void ExpectSameDurableState(const char* label, api::Engine& a, api::Engine& b,
                            bool compare_reads) {
  const DurableState sa = StateOf(a);
  const DurableState sb = StateOf(b);
  ASSERT_EQ(sa.keys, sb.keys) << label;
  for (const std::string& key : sa.keys) {
    const VersionedRecord* ra = sa.snapshot.find(key);
    const VersionedRecord* rb = sb.snapshot.find(key);
    ASSERT_NE(ra, nullptr) << label << " " << key;
    ASSERT_NE(rb, nullptr) << label << " " << key;
    EXPECT_EQ(ra->versions, rb->versions) << label << " " << key;
    EXPECT_EQ(ra->write_count, rb->write_count) << label << " " << key;
    EXPECT_EQ(ra->delete_count, rb->delete_count) << label << " " << key;
    if (compare_reads) {
      EXPECT_EQ(ra->read_count, rb->read_count) << label << " " << key;
    }
  }
  const EngineStats ea = api::Stats(a);
  const EngineStats eb = api::Stats(b);
  EXPECT_EQ(ea.ttkv.writes, eb.ttkv.writes) << label;
  EXPECT_EQ(ea.ttkv.deletes, eb.ttkv.deletes) << label;
  EXPECT_EQ(ea.ttkv.num_keys, eb.ttkv.num_keys) << label;
  if (compare_reads) {
    EXPECT_EQ(ea.ttkv.reads, eb.ttkv.reads) << label;
  }
}

// Drives `trace[begin, end)` into the engine, alternating Apply and
// ApplyBatch chunks the same deterministic way for every engine.
void Drive(api::Engine& engine, const std::vector<api::Command>& trace, size_t begin,
           size_t end) {
  size_t i = begin;
  while (i < end) {
    // Chunk size keyed off the trace position, not a per-engine RNG, so
    // all executions issue identical ApplyBatch boundaries.
    const size_t chunk = 1 + (i * 2654435761u) % 5;
    if (chunk == 1 || i + chunk > end) {
      engine.Apply(trace[i]);
      ++i;
    } else {
      engine.ApplyBatch(std::span(trace).subspan(i, chunk));
      i += chunk;
    }
  }
}

std::unique_ptr<persist::DurableEngine> OpenDurable(const std::string& dir,
                                                    persist::DurableOptions options) {
  return std::make_unique<persist::DurableEngine>(
      dir, [](TTKV recovered) -> std::unique_ptr<api::Engine> {
        auto engine = std::make_unique<ShardedTtkv>(1);
        engine->ImportSnapshot(recovered);
        return engine;
      },
      options);
}

TEST(DurableDifferentialTest, CrashRecoveredEngineMatchesInMemoryEngines) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 7919);
    const std::vector<api::Command> trace = RandomTrace(rng, 300);
    const size_t crash_at = 30 + rng.next_below(trace.size() - 60);

    TtkvOracle oracle;
    ShardedTtkv sharded(4, 1.0);
    Drive(oracle, trace, 0, trace.size());
    Drive(sharded, trace, 0, trace.size());

    TempDir dir;
    persist::DurableOptions options;
    // Tiny segments + occasional mid-flight checkpoints exercise rotation
    // and the snapshot seam inside the differential, not just in the unit
    // tests.
    options.wal.segment_bytes = 4096;
    options.checkpoint_wal_bytes = 0;
    options.checkpoint_interval_seconds = 0;
    {
      auto durable = OpenDurable(dir.path, options);
      Drive(*durable, trace, 0, crash_at);
      if (seed % 2 == 0) durable->Checkpoint();
      // Crash: drop the engine with no shutdown hook, then tear the log
      // tail the way a power cut mid-write(2) would.
    }
    {
      // Staple a torn half-record onto the newest segment.
      std::string newest;
      for (const auto& entry : fs::directory_iterator(dir.path)) {
        const std::string name = entry.path().filename().string();
        if (name.starts_with("wal-") && name.ends_with(".log") && name > newest) {
          newest = name;
        }
      }
      ASSERT_FALSE(newest.empty());
      const std::string path = dir.path + "/" + newest;
      WriteFile(path, ReadFile(path) + std::string("\x30\x00\x00\x00\xde\xad", 6));
    }
    auto recovered = OpenDurable(dir.path, options);
    EXPECT_GT(recovered->recovery().dropped_bytes, 0u);
    Drive(*recovered, trace, crash_at, trace.size());

    ExpectSameDurableState("oracle vs sharded", oracle, sharded, /*compare_reads=*/true);
    ExpectSameDurableState("oracle vs durable", oracle, *recovered, /*compare_reads=*/false);
    ExpectSameDurableState("sharded vs durable", sharded, *recovered,
                           /*compare_reads=*/false);
  }
}

// The seam-heavy variant: checkpoint BETWEEN every chunk of traffic, crash,
// recover, and compare — recovery must compose snapshot + replay correctly
// at every possible seam position, not just one.
TEST(DurableDifferentialTest, CheckpointAtEverySeamStaysFaithful) {
  Rng rng(424243);
  const std::vector<api::Command> trace = RandomTrace(rng, 120);

  TtkvOracle reference;
  Drive(reference, trace, 0, trace.size());

  TempDir dir;
  persist::DurableOptions options;
  options.wal.segment_bytes = 2048;
  options.checkpoint_wal_bytes = 0;
  {
    auto durable = OpenDurable(dir.path, options);
    for (size_t i = 0; i < trace.size(); ++i) {
      durable->Apply(trace[i]);
      if (i % 10 == 9) durable->Checkpoint();
    }
  }
  auto recovered = OpenDurable(dir.path, options);
  ExpectSameDurableState("reference vs seam-recovered", reference, *recovered,
                         /*compare_reads=*/false);
}

}  // namespace
}  // namespace ocasta
