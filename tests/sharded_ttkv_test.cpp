// Tests for the sharded thread-safe TTKV engine behind ocastad, including
// the concurrency determinism properties the daemon relies on: per-shard
// version order, counter determinism under colliding writers, and
// single-threaded-replay equivalence for shard-partitioned writers.
#include "server/sharded_ttkv.h"

#include <gtest/gtest.h>

#include <chrono>
#include <span>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "common/error.h"

namespace ocasta {
namespace {

TEST(ShardedTtkv, PutGetDeleteRoundTrip) {
  ShardedTtkv engine(4);
  api::Put(engine, "/apps/editor/font", Value("mono"), Seconds(1));
  api::Put(engine, "/apps/editor/size", Value(12), Seconds(2));
  EXPECT_EQ(api::Get(engine, "/apps/editor/font"), Value("mono"));
  EXPECT_EQ(api::Get(engine, "/apps/editor/size"), Value(12));
  EXPECT_EQ(api::Get(engine, "/apps/editor/missing"), std::nullopt);

  EXPECT_TRUE(api::Delete(engine, "/apps/editor/font", Seconds(3)));
  EXPECT_EQ(api::Get(engine, "/apps/editor/font"), std::nullopt);
  // Deleting an absent or already-deleted key records nothing.
  EXPECT_FALSE(api::Delete(engine, "/apps/editor/font", Seconds(4)));
  EXPECT_FALSE(api::Delete(engine, "/apps/editor/never", Seconds(4)));

  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.ttkv.num_keys, 2u);
  EXPECT_EQ(stats.ttkv.writes, 3u);  // Two puts + one tombstone.
  EXPECT_EQ(stats.ttkv.deletes, 1u);
  EXPECT_EQ(stats.puts, 2u);
  EXPECT_EQ(stats.deletes, 1u);
  EXPECT_EQ(stats.num_shards, 4u);
}

TEST(ShardedTtkv, TimeTravelAcrossShards) {
  ShardedTtkv engine(3);
  api::Put(engine, "k", Value(1), Seconds(10));
  api::Put(engine, "k", Value(2), Seconds(20));
  EXPECT_EQ(api::GetAt(engine, "k", Seconds(15)), Value(1));
  EXPECT_EQ(api::GetAt(engine, "k", Seconds(25)), Value(2));
  EXPECT_EQ(api::GetAt(engine, "k", Seconds(5)), std::nullopt);
}

TEST(ShardedTtkv, HistoryAndListKeys) {
  ShardedTtkv engine(4);
  api::Put(engine, "/a/x", Value(1), Seconds(1));
  api::Put(engine, "/a/y", Value(2), Seconds(2));
  api::Put(engine, "/b/z", Value(3), Seconds(3));
  api::Delete(engine, "/a/y", Seconds(4));

  const auto record = api::History(engine, "/a/y");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->write_count, 1u);
  EXPECT_EQ(record->delete_count, 1u);
  ASSERT_EQ(record->versions.size(), 2u);
  EXPECT_TRUE(record->versions.back().is_delete);
  EXPECT_FALSE(api::History(engine, "/nope").has_value());

  // Tombstoned keys drop out of the live listing.
  EXPECT_EQ(engine.ListKeys("/a"), (std::vector<std::string>{"/a/x"}));
  EXPECT_EQ(engine.ListKeys(""), (std::vector<std::string>{"/a/x", "/b/z"}));
}

TEST(ShardedTtkv, SnapshotMergesShardsIndependentOfShardCount) {
  const auto fill = [](ShardedTtkv& engine) {
    api::Put(engine, "alpha", Value(1), Seconds(1));
    api::Put(engine, "beta", Value("b"), Seconds(2));
    api::Put(engine, "alpha", Value(3), Seconds(3));
    api::Delete(engine, "beta", Seconds(4));
    api::Get(engine, "alpha");  // One read, counted in the snapshot.
  };
  ShardedTtkv one(1);
  ShardedTtkv many(7);
  fill(one);
  fill(many);
  const TTKV a = one.Snapshot();
  const TTKV b = many.Snapshot();
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.stats().reads, 1u);
  EXPECT_EQ(a.latest("alpha"), Value(3));
  EXPECT_EQ(a.latest("beta"), std::nullopt);
}

TEST(ShardedTtkv, ServerAssignedTimestampsAreMonotonicPerKey) {
  ShardedTtkv engine(2);
  for (int i = 0; i < 100; ++i) api::Put(engine, "hot", Value(i));  // t = 0 → stamped.
  const auto record = api::History(engine, "hot");
  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->versions.size(), 100u);
  for (size_t i = 1; i < record->versions.size(); ++i) {
    EXPECT_LE(record->versions[i - 1].timestamp, record->versions[i].timestamp);
  }
}

TEST(ShardedTtkv, CompactBeforeSpansShards) {
  ShardedTtkv engine(4);
  for (int k = 0; k < 16; ++k) {
    const std::string key = "key" + std::to_string(k);
    for (int v = 0; v < 4; ++v) api::Put(engine, key, Value(v), Seconds(10 * (v + 1)));
  }
  const size_t dropped = engine.CompactBefore(Seconds(35));
  EXPECT_EQ(dropped, 16u * 2u);  // Versions at 10s and 20s go; 30s survives as the floor.
  EXPECT_EQ(api::GetAt(engine, "key0", Seconds(36)), Value(2));
  EXPECT_EQ(engine.Stats().ttkv.writes, 64u);  // Lifetime counters unaffected.
}

TEST(ShardedTtkv, ClusterNowFindsCoModifiedKeys) {
  ShardedTtkv engine(4);
  // Three bursts of {a, b} within a window, plus a solo key far away.
  for (int burst = 0; burst < 3; ++burst) {
    const TimeMicros t = Seconds(100 * (burst + 1));
    api::Put(engine, "grp/a", Value(burst), t);
    api::Put(engine, "grp/b", Value(burst), t + Seconds(0.2));
    api::Put(engine, "solo", Value(burst), t + Seconds(50));
  }
  const auto clusters = engine.ClusterNow(1.5);
  bool found = false;
  for (const NamedCluster& cluster : clusters) {
    if (cluster.keys.size() == 2) {
      EXPECT_EQ(cluster.keys, (std::vector<std::string>{"grp/a", "grp/b"}));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ShardedTtkv, RejectsEmptyKeysAndZeroShards) {
  EXPECT_THROW(ShardedTtkv(0), Error);
  ShardedTtkv engine(2);
  EXPECT_THROW(api::Put(engine, "", Value(1)), StoreError);
  EXPECT_THROW(api::Delete(engine, ""), StoreError);
}

TEST(ShardedTtkv, RejectsNegativeClusterWindowAtConstruction) {
  // A bad window fails before a daemon serves, not at the first CLUSTER_NOW.
  EXPECT_THROW(ShardedTtkv(4, -1.0), Error);
  EXPECT_NO_THROW(ShardedTtkv(4, 0.0));
}

TEST(ShardedTtkv, ImportOfOneBurstHistoryIsFast) {
  // 4,000 keys written 10 us apart (one co-modification burst), each
  // rewritten 1,000 s later. Restoring does no clustering work, so it is
  // linear in the history; clustering a burst of N keys is O(N^2).
  TTKV history;
  for (int i = 0; i < 4000; ++i) {
    const std::string key = "burst/k" + std::to_string(i);
    history.record_write(key, Value(i), Seconds(1) + 10 * i);
    history.record_write(key, Value(i + 1), Seconds(1001) + 10 * i);
  }
  ShardedTtkv engine(4);
  const auto start = std::chrono::steady_clock::now();
  engine.ImportSnapshot(history);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed.count(), 5.0);
  EXPECT_EQ(engine.Stats().ttkv.num_keys, 4000u);
  EXPECT_EQ(api::Get(engine, "burst/k3999"), Value(4000));
}

// --- Concurrency ------------------------------------------------------------

// Writers on disjoint shards: the final state must be exactly what a
// single-threaded replay of the same per-shard sequences produces.
TEST(ShardedTtkvConcurrency, DisjointShardWritersMatchSingleThreadedReplay) {
  constexpr size_t kShards = 4;
  constexpr size_t kKeysPerShard = 40;
  constexpr int kWritesPerKey = 25;

  ShardedTtkv probe(kShards);
  // Partition a key universe by the shard each key actually hashes to.
  std::vector<std::vector<std::string>> keys_by_shard(kShards);
  const auto all_full = [&] {
    for (const auto& bucket : keys_by_shard) {
      if (bucket.size() < kKeysPerShard) return false;
    }
    return true;
  };
  for (int i = 0; !all_full(); ++i) {
    const std::string key = "det/key" + std::to_string(i);
    auto& bucket = keys_by_shard[probe.shard_of(key)];
    if (bucket.size() < kKeysPerShard) bucket.push_back(key);
  }

  const auto write_shard = [&](ShardedTtkv& engine, size_t shard) {
    for (int v = 0; v < kWritesPerKey; ++v) {
      for (const std::string& key : keys_by_shard[shard]) {
        api::Put(engine, key, Value(v), Seconds(v + 1));
      }
    }
  };

  // Concurrent run: one thread per shard.
  ShardedTtkv concurrent(kShards);
  {
    std::vector<std::thread> threads;
    for (size_t s = 0; s < kShards; ++s) {
      threads.emplace_back([&, s] { write_shard(concurrent, s); });
    }
    for (std::thread& t : threads) t.join();
  }

  // Single-threaded replay of the same per-shard op sequences.
  ShardedTtkv sequential(kShards);
  for (size_t s = 0; s < kShards; ++s) write_shard(sequential, s);

  EXPECT_TRUE(concurrent.Snapshot() == sequential.Snapshot());
}

// Colliding writers on a shared hot key set: totals are deterministic and
// per-key version order stays monotone even though interleaving is not.
TEST(ShardedTtkvConcurrency, CollidingWritersKeepDeterministicCounters) {
  constexpr int kThreads = 8;
  constexpr int kWritesPerThread = 500;
  const std::vector<std::string> hot_keys = {"hot/a", "hot/b", "hot/c"};

  ShardedTtkv engine(4);
  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      for (int i = 0; i < kWritesPerThread; ++i) {
        // Server-assigned timestamps: colliding writers must never throw.
        api::Put(engine, hot_keys[(id + i) % hot_keys.size()], Value(id * kWritesPerThread + i));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.ttkv.writes, static_cast<uint64_t>(kThreads) * kWritesPerThread);
  EXPECT_EQ(stats.puts, static_cast<uint64_t>(kThreads) * kWritesPerThread);
  EXPECT_EQ(stats.ttkv.num_keys, hot_keys.size());

  uint64_t versions = 0;
  for (const std::string& key : hot_keys) {
    const auto record = api::History(engine, key);
    ASSERT_TRUE(record.has_value());
    versions += record->versions.size();
    for (size_t i = 1; i < record->versions.size(); ++i) {
      ASSERT_LE(record->versions[i - 1].timestamp, record->versions[i].timestamp);
    }
  }
  EXPECT_EQ(versions, static_cast<uint64_t>(kThreads) * kWritesPerThread);
}

// Mixed readers/writers/snapshotters racing: no crashes, snapshots are
// internally consistent, and the final write total adds up.
TEST(ShardedTtkvConcurrency, MixedOpsUnderContention) {
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 300;
  ShardedTtkv engine(4);
  std::vector<std::thread> threads;
  for (int id = 0; id < kWriters; ++id) {
    threads.emplace_back([&, id] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const std::string key = "mix/key" + std::to_string(i % 17);
        api::Put(engine, key, Value(id), 0);
        api::Get(engine, key);
        if (i % 10 == 9) api::Delete(engine, key);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 30; ++i) {
      const TTKV snapshot = engine.Snapshot();
      const TtkvStats stats = snapshot.stats();
      ASSERT_LE(stats.deletes, stats.writes);
      engine.ListKeys("mix/");
      engine.ClusterNow(2.0);
    }
  });
  for (std::thread& t : threads) t.join();

  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.puts, static_cast<uint64_t>(kWriters) * kOpsPerWriter);
  EXPECT_EQ(stats.ttkv.writes - stats.ttkv.deletes,
            static_cast<uint64_t>(kWriters) * kOpsPerWriter);
}

// --- shared_mutex read path --------------------------------------------------

TEST(ShardedTtkvSharedLocks, ReadsTakeSharedLocksWritesTakeExclusive) {
  ShardedTtkv engine(4);
  api::Put(engine, "rw/key", Value(1), Seconds(1));  // 1 exclusive.
  const uint64_t writes_after_put = engine.write_lock_acquisitions();
  EXPECT_GE(writes_after_put, 1u);
  EXPECT_EQ(engine.read_lock_acquisitions(), 0u);

  api::Get(engine, "rw/key");               // shared
  api::GetAt(engine, "rw/key", Seconds(1));  // shared
  api::History(engine, "rw/key");            // shared
  EXPECT_EQ(engine.read_lock_acquisitions(), 3u);
  EXPECT_EQ(engine.write_lock_acquisitions(), writes_after_put);

  // The split surfaces in EngineStats and sums to the total.
  const EngineStats stats = engine.Stats();  // Stats itself locks exclusively.
  EXPECT_EQ(stats.read_lock_acquisitions, 3u);
  EXPECT_GE(stats.write_lock_acquisitions, writes_after_put);
  EXPECT_EQ(stats.lock_acquisitions,
            stats.read_lock_acquisitions + stats.write_lock_acquisitions);
  // Read accounting still lands on the record and the aggregate.
  EXPECT_EQ(stats.gets, 1u);
  EXPECT_EQ(stats.ttkv.reads, 1u);
}

TEST(ShardedTtkvSharedLocks, ReadOnlyBatchGroupsTakeSharedLocks) {
  constexpr size_t kShards = 4;
  ShardedTtkv engine(kShards);
  for (int i = 0; i < 16; ++i) {
    api::Put(engine, "batch/key" + std::to_string(i), Value(i), Seconds(i + 1));
  }
  const uint64_t reads_before = engine.read_lock_acquisitions();
  const uint64_t writes_before = engine.write_lock_acquisitions();

  // All-reads batch: every shard group locks SHARED (and at most once per
  // shard, preserving the grouped-locking guarantee).
  api::BatchCmd reads;
  for (int i = 0; i < 16; ++i) {
    reads.commands.push_back(api::GetCmd{"batch/key" + std::to_string(i)});
    reads.commands.push_back(api::HistoryCmd{"batch/key" + std::to_string(i)});
  }
  engine.ApplyBatch(std::span(reads.commands));
  EXPECT_EQ(engine.write_lock_acquisitions(), writes_before);
  EXPECT_LE(engine.read_lock_acquisitions() - reads_before, kShards);
  EXPECT_GE(engine.read_lock_acquisitions() - reads_before, 1u);

  // One write in a shard's group forces that group exclusive.
  api::BatchCmd mixed;
  mixed.commands.push_back(api::GetCmd{"batch/key0"});
  mixed.commands.push_back(api::PutCmd{"batch/key0", Value(99), Seconds(100)});
  engine.ApplyBatch(std::span(mixed.commands));
  EXPECT_GE(engine.write_lock_acquisitions(), writes_before + 1);
}

TEST(ShardedTtkvSharedLocks, ConcurrentReadersAndWritersKeepCountsExact) {
  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr int kOps = 400;
  ShardedTtkv engine(2);  // Few shards: force same-shard reader overlap.
  api::Put(engine, "hot/key", Value(0), Seconds(1));

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        api::Get(engine, "hot/key");
        const auto record = api::History(engine, "hot/key");
        ASSERT_TRUE(record.has_value());
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kOps; ++i) api::Put(engine, "hot/key", Value(w * kOps + i), 0);
    });
  }
  for (std::thread& t : threads) t.join();

  const EngineStats stats = engine.Stats();
  // Every read was counted exactly once despite shared-lock concurrency
  // (the atomic read counters are the point of read_latest_shared).
  EXPECT_EQ(stats.gets, static_cast<uint64_t>(kReaders) * kOps);
  EXPECT_EQ(stats.ttkv.reads, static_cast<uint64_t>(kReaders) * kOps);
  EXPECT_EQ(stats.puts, static_cast<uint64_t>(kWriters) * kOps + 1);
  EXPECT_GE(stats.read_lock_acquisitions, static_cast<uint64_t>(kReaders) * kOps * 2);
}

}  // namespace
}  // namespace ocasta
