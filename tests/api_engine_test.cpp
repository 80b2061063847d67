// Behavioral tests for the in-process api::Engine: the single-shard
// ShardedTtkv end-to-end, the DeleteCmd force/suppress policy and batch
// semantics at one shard and many, and the grouped-locking fast path (a
// BatchCmd must cost at most num_shards lock acquisitions instead of one
// per command).
#include "api/engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "api/backends.h"
#include "clustering/engine.h"
#include "common/time.h"
#include "server/sharded_ttkv.h"

namespace ocasta {
namespace {

using api::BatchCmd;
using api::Command;
using api::DeleteCmd;
using api::GetCmd;
using api::PutCmd;
using api::Result;

TEST(OneShardEngine, FullCommandVocabulary) {
  ShardedTtkv engine(1);
  EXPECT_STREQ(engine.backend_name(), "sharded");
  api::Ping(engine);

  api::Put(engine, "/app/shell", Value("zsh"), Seconds(1));
  api::Put(engine, "/app/shell", Value("bash"), Seconds(2));
  api::Put(engine, "/app/cols", Value(80), Seconds(3));
  EXPECT_EQ(api::Get(engine, "/app/shell"), Value("bash"));
  EXPECT_EQ(api::GetAt(engine, "/app/shell", Seconds(1)), Value("zsh"));
  EXPECT_EQ(api::Get(engine, "/nope"), std::nullopt);

  EXPECT_TRUE(api::Delete(engine, "/app/cols", Seconds(4)));
  EXPECT_EQ(api::ListKeys(engine, "/app/"), (std::vector<std::string>{"/app/shell"}));

  const auto record = api::History(engine, "/app/shell");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->write_count, 2u);

  const EngineStats stats = api::Stats(engine);
  EXPECT_EQ(stats.num_shards, 1u);
  EXPECT_EQ(stats.puts, 3u);
  EXPECT_EQ(stats.deletes, 1u);
  EXPECT_EQ(stats.ttkv.num_keys, 2u);

  const TTKV snapshot = api::Snapshot(engine);
  EXPECT_EQ(snapshot.num_keys(), 2u);
  EXPECT_EQ(snapshot.latest("/app/shell"), Value("bash"));

  EXPECT_EQ(api::Compact(engine, Seconds(10)), 2u);  // Old shell + tombstoned cols versions.
  api::Shutdown(engine);                             // No-op for in-process engines.
}

// A cluster partition with names sorted inside each cluster and clusters
// sorted, so two clusterings compare by membership alone.
std::vector<std::vector<std::string>> Partition(std::vector<std::vector<std::string>> clusters) {
  for (auto& keys : clusters) std::sort(keys.begin(), keys.end());
  std::sort(clusters.begin(), clusters.end());
  return clusters;
}

// An adopted store (trace replay, recovery, follower bootstrap) is served
// AND clustered: CLUSTER_NOW over the imported history partitions the keys
// exactly as the offline pipeline does over the same TTKV.
TEST(OneShardEngine, ImportedTtkvClustersLikeOfflinePipeline) {
  TTKV seed;
  for (int burst = 0; burst < 6; ++burst) {
    const TimeMicros t = Seconds(100 * (burst + 1));
    seed.record_write("net/a", Value(burst), t);
    seed.record_write("net/b", Value(burst), t + Seconds(0.3));
    if (burst < 2) seed.record_write("ui/theme", Value(burst), t + Seconds(0.5));
    seed.record_write("ui/font", Value(burst), t + Seconds(40));
    if (burst % 3 == 0) seed.record_delete("ui/zoom", t + Seconds(40.2));
  }
  ShardedTtkv engine(1);
  engine.ImportSnapshot(seed);
  EXPECT_EQ(api::Get(engine, "net/a"), Value(5));

  ClusteringParams params;
  params.window_seconds = 1.0;
  params.threshold_correlation = 1.5;
  std::vector<std::vector<std::string>> offline;
  const ClusterSet set = ClusterKeys(seed, params);
  for (const KeyCluster& cluster : set.clusters()) {
    offline.emplace_back();
    for (uint32_t id : cluster.keys) offline.back().push_back(seed.key_name(id));
  }
  std::vector<std::vector<std::string>> online;
  for (const NamedCluster& cluster : api::ClusterNow(engine, 1.5)) online.push_back(cluster.keys);
  ASSERT_EQ(Partition(online), Partition(offline));
  ASSERT_EQ(online.size(), 4u);  // {net/a, net/b} and three singletons.
  EXPECT_EQ(Partition(online).front(), (std::vector<std::string>{"net/a", "net/b"}));
}

TEST(OneShardEngine, ServerAssignedTimestampsAreMonotonic) {
  ShardedTtkv engine(1);
  api::Put(engine, "/mono", Value(1));
  api::Put(engine, "/mono", Value(2));
  const auto record = api::History(engine, "/mono");
  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->versions.size(), 2u);
  EXPECT_LT(record->versions[0].timestamp, record->versions[1].timestamp);
}

// --- DeleteCmd force/suppress policy, at one shard and many ----------------

void ExerciseDeletePolicy(api::Engine& engine) {
  // Suppressed path (force = false): absent keys record nothing.
  EXPECT_FALSE(api::Delete(engine, "/del/absent", Seconds(1)));
  EXPECT_EQ(api::History(engine, "/del/absent"), std::nullopt);

  // Live key: tombstoned either way; a second non-force delete is a no-op.
  api::Put(engine, "/del/live", Value(1), Seconds(1));
  EXPECT_TRUE(api::Delete(engine, "/del/live", Seconds(2)));
  EXPECT_FALSE(api::Delete(engine, "/del/live", Seconds(3)));
  {
    const auto record = api::History(engine, "/del/live");
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->delete_count, 1u);
    EXPECT_EQ(record->versions.size(), 2u);  // Write + one tombstone.
  }

  // Forced path: records unconditionally — even for a never-seen key...
  EXPECT_FALSE(api::Delete(engine, "/del/forced-absent", Seconds(4), /*force=*/true));
  {
    const auto record = api::History(engine, "/del/forced-absent");
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->delete_count, 1u);
    EXPECT_EQ(record->write_count, 0u);
  }
  // ...and even when already tombstoned (trace replay keeps every event).
  EXPECT_FALSE(api::Delete(engine, "/del/live", Seconds(5), /*force=*/true));
  {
    const auto record = api::History(engine, "/del/live");
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->delete_count, 2u);
    EXPECT_EQ(record->versions.size(), 3u);
  }
}

TEST(DeletePolicy, OneShard) {
  ShardedTtkv engine(1);
  ExerciseDeletePolicy(engine);
}

TEST(DeletePolicy, ShardedTtkv) {
  ShardedTtkv engine(4);
  ExerciseDeletePolicy(engine);
}

// --- Batch semantics --------------------------------------------------------

void ExerciseBatchSemantics(api::Engine& engine) {
  BatchCmd batch;
  batch.commands.push_back(PutCmd{"/b/k", Value("v1"), Seconds(1)});
  batch.commands.push_back(PutCmd{"/b/k", Value("v2"), Seconds(2)});  // Same key: ordered.
  batch.commands.push_back(GetCmd{"/b/k"});
  batch.commands.push_back(PutCmd{"", Value(0), 0});  // Fails alone.
  batch.commands.push_back(api::StatsCmd{});          // Cross-shard barrier mid-batch.
  batch.commands.push_back(DeleteCmd{"/b/k", Seconds(3), false});

  const std::vector<Result> results = engine.ApplyBatch(std::span(batch.commands));
  ASSERT_EQ(results.size(), 6u);
  EXPECT_TRUE(std::holds_alternative<api::OkResult>(results[0].op));
  EXPECT_TRUE(std::holds_alternative<api::OkResult>(results[1].op));
  EXPECT_EQ(std::get<api::ValueResult>(results[2].op).value, Value("v2"));
  EXPECT_TRUE(std::holds_alternative<api::ErrorResult>(results[3].op));
  const EngineStats mid = std::get<api::StatsResult>(results[4].op).stats;
  EXPECT_EQ(mid.puts, 2u);  // The barrier observes every put before it.
  EXPECT_TRUE(std::get<api::ExistedResult>(results[5].op).existed);

  // Per-key version order survived the grouped execution.
  const auto record = api::History(engine, "/b/k");
  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->versions.size(), 3u);
  EXPECT_EQ(record->versions[0].value, Value("v1"));
  EXPECT_EQ(record->versions[1].value, Value("v2"));
  EXPECT_TRUE(record->versions[2].is_delete);
}

TEST(BatchSemantics, OneShard) {
  ShardedTtkv engine(1);
  ExerciseBatchSemantics(engine);
}

TEST(BatchSemantics, ShardedTtkv) {
  ShardedTtkv engine(4);
  ExerciseBatchSemantics(engine);
}

TEST(BatchSemantics, NestedBatchViaApply) {
  ShardedTtkv engine(4);
  BatchCmd inner;
  inner.commands.push_back(PutCmd{"/nest/a", Value(1), Seconds(1)});
  BatchCmd outer;
  outer.commands.push_back(std::move(inner));
  outer.commands.push_back(GetCmd{"/nest/a"});
  const auto result = api::Expect<api::BatchResult>(engine.Apply(outer), "BATCH");
  ASSERT_EQ(result.results.size(), 2u);
  const auto& inner_result = std::get<api::BatchResult>(result.results[0].op);
  ASSERT_EQ(inner_result.results.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<api::OkResult>(inner_result.results[0].op));
  EXPECT_EQ(std::get<api::ValueResult>(result.results[1].op).value, Value(1));
}

// The point of the batched fast path: K single-key commands grouped into
// one BatchCmd lock each shard once — at most num_shards acquisitions —
// where K single Applys cost K.
TEST(BatchSemantics, GroupedBatchLocksEachShardOnce) {
  constexpr size_t kShards = 4;
  constexpr int kCommands = 32;
  ShardedTtkv engine(kShards);

  BatchCmd batch;
  for (int i = 0; i < kCommands; ++i) {
    batch.commands.push_back(PutCmd{"grp/key" + std::to_string(i), Value(i), Seconds(i + 1)});
  }
  const uint64_t before = engine.shard_lock_acquisitions();
  engine.ApplyBatch(std::span(batch.commands));
  const uint64_t batched_locks = engine.shard_lock_acquisitions() - before;
  EXPECT_LE(batched_locks, kShards);
  EXPECT_GE(batched_locks, 1u);

  // The same commands applied one by one cost one lock each.
  ShardedTtkv single(kShards);
  const uint64_t single_before = single.shard_lock_acquisitions();
  for (const Command& cmd : batch.commands) single.Apply(cmd);
  EXPECT_EQ(single.shard_lock_acquisitions() - single_before,
            static_cast<uint64_t>(kCommands));

  // Both execution strategies produce identical stores.
  EXPECT_EQ(engine.Snapshot(), single.Snapshot());
}

TEST(BatchSemantics, LockCountSurfacesInStats) {
  ShardedTtkv engine(2);
  api::Put(engine, "/locked", Value(1), Seconds(1));
  const EngineStats stats = engine.Stats();
  EXPECT_GE(stats.lock_acquisitions, 1u);
}

// --- Backend factory --------------------------------------------------------

TEST(Backends, MakeEngineSelectsImplementations) {
  api::BackendOptions options;
  options.backend = "sharded";
  options.num_shards = 2;
  EXPECT_STREQ(api::MakeEngine(options)->backend_name(), "sharded");
  options.backend = "remote";
  EXPECT_STREQ(api::MakeEngine(options)->backend_name(), "remote");
  options.backend = "redis";
  EXPECT_THROW(api::MakeEngine(options), Error);
  // The retired single-mutex backend points at its replacement.
  options.backend = "local";
  try {
    api::MakeEngine(options);
    ADD_FAILURE() << "backend \"local\" was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--backend sharded --shards 1"), std::string::npos)
        << e.what();
  }
}

TEST(Backends, EngineHelpersSurfaceErrorsAsStoreError) {
  ShardedTtkv engine(1);
  EXPECT_THROW(api::Put(engine, "", Value(1)), StoreError);
  ShardedTtkv sharded(2);
  EXPECT_THROW(api::Put(sharded, "", Value(1)), StoreError);
}

}  // namespace
}  // namespace ocasta
