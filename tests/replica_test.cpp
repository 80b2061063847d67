// Replication suite: ReplicationHub quorum accounting, follower WAL
// shipping end-to-end through two real daemons, snapshot bootstrap,
// crash-at-a-random-offset resync (the differential test), the quorum
// commit gate, NOT_LEADER rejection plus client failover, and promotion.
//
// The load-bearing assertion style is BYTE equality: after catch-up the
// follower's merged TTKV image must serialize to exactly the leader's
// bytes, because the follower applied the leader's own WAL records at the
// leader's own LSNs — anything weaker would let "semantically similar"
// divergence (re-stamped timestamps, re-ordered batches) slip through.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <thread>

#include "api/codec.h"
#include "api/engine.h"
#include "client/ttkv_client.h"
#include "persist/durable_engine.h"
#include "replica/replication_hub.h"
#include "server/server.h"
#include "server/sharded_ttkv.h"
#include "ttkv/serialize.h"

namespace ocasta {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/ocasta_replica_test_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) throw Error("mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

// Polls `cond` until true or ~10s elapse (replication is asynchronous; the
// follower pulls on a 5ms interval here, so normal catch-up is

// milliseconds and the deadline only matters on a broken build).
bool WaitFor(const std::function<bool()>& cond, double timeout_seconds = 10.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_seconds));
  while (!cond()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

ServerOptions LeaderOptions(const std::string& dir) {
  ServerOptions options;
  options.port = 0;
  options.num_shards = 4;
  options.data_dir = dir;
  return options;
}

ServerOptions FollowerOptions(const std::string& dir, uint16_t leader_port) {
  ServerOptions options = LeaderOptions(dir);
  options.follow_host = "127.0.0.1";
  options.follow_port = leader_port;
  return options;
}

persist::DurableEngine& Durable(TtkvServer& server) {
  return dynamic_cast<persist::DurableEngine&>(server.engine());
}

uint64_t LastLsn(TtkvServer& server) { return Durable(server).wal().last_lsn(); }

// Blocks until the follower has durably applied everything the leader has
// logged so far. applied_lsn advances AFTER the inner apply, so state
// reads that follow are safe.
void WaitCaughtUp(TtkvServer& leader, TtkvServer& follower) {
  const uint64_t target = LastLsn(leader);
  ASSERT_TRUE(WaitFor([&] { return follower.follower()->applied_lsn() >= target; }))
      << "follower stuck at " << follower.follower()->applied_lsn() << " of " << target
      << " (last_error: " << follower.follower()->last_error() << ")";
}

std::string EngineImage(TtkvServer& server) { return api::Snapshot(server.engine()).Serialize(); }

// --- ReplicationHub unit tests ----------------------------------------------

TEST(ReplicationHubTest, QuorumLsnIsNthHighestAck) {
  replica::ReplicationHub hub({.quorum_followers = 2, .ack_timeout_seconds = 0.05});
  EXPECT_EQ(hub.QuorumAckedLsn(), 0u);  // Nobody has ever pulled.
  hub.OnFollowerAck("f1", 5, 5);
  EXPECT_EQ(hub.QuorumAckedLsn(), 0u);  // One follower cannot make a quorum of two.
  hub.OnFollowerAck("f2", 3, 5);
  EXPECT_EQ(hub.QuorumAckedLsn(), 3u);  // 2nd-highest of {5, 3}.
  hub.OnFollowerAck("f3", 9, 9);
  EXPECT_EQ(hub.QuorumAckedLsn(), 5u);  // 2nd-highest of {5, 3, 9}.
  EXPECT_EQ(hub.follower_count(), 3u);
}

TEST(ReplicationHubTest, AnonymousProbesGetNoQuorumStanding) {
  replica::ReplicationHub hub({.quorum_followers = 1, .ack_timeout_seconds = 0.05});
  hub.OnFollowerAck("", 100, 100);
  EXPECT_EQ(hub.follower_count(), 0u);
  EXPECT_EQ(hub.QuorumAckedLsn(), 0u);
}

TEST(ReplicationHubTest, AcksDoNotRatchet) {
  replica::ReplicationHub hub({.quorum_followers = 1, .ack_timeout_seconds = 0.05});
  hub.OnFollowerAck("f1", 9, 9);
  EXPECT_EQ(hub.QuorumAckedLsn(), 9u);
  // A re-bootstrapped follower reports a LOWER cursor; the hub must track
  // it (the old data was durable only in its past life).
  hub.OnFollowerAck("f1", 4, 9);
  EXPECT_EQ(hub.QuorumAckedLsn(), 4u);
}

TEST(ReplicationHubTest, ZeroQuorumIsAlwaysSatisfied) {
  replica::ReplicationHub hub({.quorum_followers = 0, .ack_timeout_seconds = 0.05});
  EXPECT_EQ(hub.QuorumAckedLsn(), UINT64_MAX);
  hub.WaitQuorum(12345);  // Must not block or throw.
}

TEST(ReplicationHubTest, WaitQuorumTimesOutWithDiagnosticMessage) {
  replica::ReplicationHub hub({.quorum_followers = 2, .ack_timeout_seconds = 0.05});
  hub.OnFollowerAck("f1", 7, 7);
  try {
    hub.WaitQuorum(7);
    FAIL() << "expected WaitQuorum to time out";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("quorum not reached"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("durable on the leader"), std::string::npos);
  }
}

TEST(ReplicationHubTest, WaitQuorumWakesOnAck) {
  replica::ReplicationHub hub({.quorum_followers = 1, .ack_timeout_seconds = 5.0});
  std::thread acker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    hub.OnFollowerAck("f1", 8, 8);
  });
  hub.WaitQuorum(8);  // Released by the ack, well before the 5s timeout.
  acker.join();
  EXPECT_EQ(hub.QuorumAckedLsn(), 8u);
}

// --- End-to-end: follower tails a live leader -------------------------------

TEST(ReplicaTest, FollowerTailsLeaderByteForByte) {
  TempDir leader_dir, follower_dir;
  TtkvServer leader(LeaderOptions(leader_dir.path));
  leader.Start();

  TtkvClient client("127.0.0.1", leader.port());
  client.Put("/apps/term/shell", Value("zsh"), Seconds(1));
  client.Put("/apps/term/cols", Value(80), Seconds(2));
  client.Delete("/apps/term/cols", Seconds(3));

  TtkvServer follower(FollowerOptions(follower_dir.path, leader.port()));
  follower.Start();
  ASSERT_TRUE(follower.is_follower());
  ASSERT_NE(follower.follower(), nullptr);

  // Mutations AFTER the follower attached, including a nested batch — the
  // WAL records a batch as one frame and the follower must apply it the
  // same way.
  client.Put("/apps/term/shell", Value("bash"), Seconds(4));
  api::BatchCmd batch;
  batch.commands.push_back(api::PutCmd{"/batch/a", Value(int64_t{7}), Seconds(5)});
  api::BatchCmd nested;
  nested.commands.push_back(api::PutCmd{"/batch/b", Value("inner"), Seconds(6)});
  nested.commands.push_back(api::DeleteCmd{"/apps/term/shell", Seconds(7), false});
  batch.commands.push_back(std::move(nested));
  client.Apply(std::move(batch));

  WaitCaughtUp(leader, follower);
  EXPECT_EQ(EngineImage(follower), EngineImage(leader));

  // STATS totals travel with the stream (satellite: stats contract).
  const EngineStats leader_stats = api::Stats(leader.engine());
  const EngineStats follower_stats = api::Stats(follower.engine());
  EXPECT_EQ(follower_stats.puts, leader_stats.puts);
  EXPECT_EQ(follower_stats.deletes, leader_stats.deletes);

  // Reads are served locally by the follower.
  EXPECT_EQ(api::GetAt(follower.engine(), "/batch/b", Seconds(6)), Value("inner"));

  follower.Stop();
  leader.Stop();
}

TEST(ReplicaTest, FollowerRejectsMutationsAndClientFailsOver) {
  TempDir leader_dir, follower_dir;
  TtkvServer leader(LeaderOptions(leader_dir.path));
  leader.Start();
  TtkvServer follower(FollowerOptions(follower_dir.path, leader.port()));
  follower.Start();

  // Raw mutation at the follower: a typed NOT_LEADER carrying the leader's
  // address, with NOTHING applied.
  TtkvClient raw("127.0.0.1", follower.port());
  const api::Result rejected = raw.ApplyRaw(api::PutCmd{"/x", Value(1), Seconds(1)});
  const auto* redirect = std::get_if<api::NotLeaderResult>(&rejected.op);
  ASSERT_NE(redirect, nullptr);
  EXPECT_EQ(redirect->leader_host, "127.0.0.1");
  EXPECT_EQ(redirect->leader_port, leader.port());
  EXPECT_EQ(LastLsn(follower), 0u);

  // The typed client follows the redirect transparently: the Put lands on
  // the leader and replicates back to the follower.
  TtkvClient failover("127.0.0.1", follower.port());
  failover.Put("/routed", Value("via-redirect"), Seconds(2));
  EXPECT_EQ(LastLsn(leader), 1u);
  WaitCaughtUp(leader, follower);
  EXPECT_EQ(api::GetAt(follower.engine(), "/routed", Seconds(2)), Value("via-redirect"));

  // Reads at the follower are NOT redirected.
  TtkvClient reader("127.0.0.1", follower.port());
  EXPECT_EQ(reader.Get("/routed"), Value("via-redirect"));

  follower.Stop();
  leader.Stop();
}

TEST(ReplicaTest, StatusProbeReportsRoleAndLsn) {
  TempDir leader_dir, follower_dir;
  TtkvServer leader(LeaderOptions(leader_dir.path));
  leader.Start();
  TtkvClient client("127.0.0.1", leader.port());
  client.Put("/a", Value(1), Seconds(1));

  TtkvServer follower(FollowerOptions(follower_dir.path, leader.port()));
  follower.Start();
  WaitCaughtUp(leader, follower);

  TtkvClient leader_probe("127.0.0.1", leader.port());
  const api::ReplicateResult leader_status = leader_probe.Replicate("", 0, 0);
  EXPECT_FALSE(leader_status.follower);
  EXPECT_EQ(leader_status.leader_lsn, 1u);
  EXPECT_TRUE(leader_status.records.empty());  // max_records == 0: pure probe.

  TtkvClient follower_probe("127.0.0.1", follower.port());
  const api::ReplicateResult follower_status = follower_probe.Replicate("", 0, 0);
  EXPECT_TRUE(follower_status.follower);
  EXPECT_EQ(follower_status.leader_lsn, 1u);

  // The anonymous probes above must not have granted quorum standing.
  EXPECT_EQ(leader.replication_hub()->follower_count(), 1u);  // The real follower only.

  follower.Stop();
  leader.Stop();
}

// --- Snapshot bootstrap -----------------------------------------------------

TEST(ReplicaTest, BootstrapsFromSnapshotWhenLeaderLogIsTruncated) {
  TempDir leader_dir, follower_dir;
  uint64_t expected_puts = 0;
  {
    // Build the leader's dir offline with a tiny segment size, then
    // checkpoint with retained_snapshots = 1 so the log before the
    // snapshot is GONE — a fresh follower cannot catch up from records.
    persist::DurableOptions options;
    options.wal.segment_bytes = 256;
    options.retained_snapshots = 1;
    options.checkpoint_wal_bytes = 0;
    persist::DurableEngine engine(
        leader_dir.path,
        [](TTKV recovered) -> std::unique_ptr<api::Engine> {
          auto inner = std::make_unique<ShardedTtkv>(1);
          inner->ImportSnapshot(recovered);
          return inner;
        },
        options);
    for (int i = 0; i < 20; ++i) {
      api::Put(engine, "/seed/" + std::to_string(i), Value(int64_t{i}), Seconds(i + 1));
      ++expected_puts;
    }
    engine.Checkpoint();
  }

  TtkvServer leader(LeaderOptions(leader_dir.path));
  leader.Start();
  const uint64_t anchor = LastLsn(leader);
  ASSERT_EQ(anchor, 20u);

  TtkvServer follower(FollowerOptions(follower_dir.path, leader.port()));
  follower.Start();
  // The follower must have reseeded from the snapshot: recovery saw a
  // snapshot at the leader's checkpoint LSN and an empty log on top.
  EXPECT_EQ(Durable(follower).recovery().snapshot_lsn, anchor);
  EXPECT_EQ(Durable(follower).recovery().replayed, 0u);
  EXPECT_EQ(EngineImage(follower), EngineImage(leader));

  // Op-counter totals rode inside the snapshot (OCDS header), so STATS at
  // the follower reports lifetime totals, not zero.
  EXPECT_EQ(api::Stats(follower.engine()).puts, expected_puts);

  // Leader recovery and follower bootstrap both rebuild the cluster
  // tracker from the snapshot's history, so CLUSTER_NOW agrees and sees
  // the seed writes (1 s apart: one co-modification burst).
  const auto sorted_keys = [](TtkvServer& server) {
    std::vector<std::vector<std::string>> clusters;
    for (NamedCluster& cluster : api::ClusterNow(server.engine(), 1.5)) {
      std::sort(cluster.keys.begin(), cluster.keys.end());
      clusters.push_back(std::move(cluster.keys));
    }
    return clusters;
  };
  const auto leader_clusters = sorted_keys(leader);
  ASSERT_EQ(leader_clusters.size(), 1u);
  EXPECT_EQ(leader_clusters[0].size(), expected_puts);
  EXPECT_EQ(sorted_keys(follower), leader_clusters);

  // And the live tail continues from the snapshot seam without a gap.
  TtkvClient client("127.0.0.1", leader.port());
  client.Put("/after/snapshot", Value("tail"), Seconds(100));
  WaitCaughtUp(leader, follower);
  EXPECT_EQ(api::GetAt(follower.engine(), "/after/snapshot", Seconds(100)), Value("tail"));
  EXPECT_EQ(EngineImage(follower), EngineImage(leader));

  follower.Stop();
  leader.Stop();
}

// --- Differential test: crash the follower at a random offset ---------------

// Applies a seeded random trace (puts, deletes, nested batches) through a
// client; explicit timestamps keep the trace deterministic.
void ApplyRandomTrace(TtkvClient& client, std::mt19937& rng, int ops, TimeMicros* clock) {
  std::uniform_int_distribution<int> kind(0, 9);
  std::uniform_int_distribution<int> key_id(0, 15);
  auto key = [&] { return "/trace/" + std::to_string(key_id(rng)); };
  for (int i = 0; i < ops; ++i) {
    *clock += Seconds(1);
    const int k = kind(rng);
    if (k < 6) {
      client.Put(key(), Value(static_cast<int64_t>(rng())), *clock);
    } else if (k < 8) {
      client.Delete(key(), *clock, (k == 7));
    } else {
      api::BatchCmd batch;
      batch.commands.push_back(api::PutCmd{key(), Value("batched"), *clock});
      api::BatchCmd nested;
      *clock += Seconds(1);
      nested.commands.push_back(api::DeleteCmd{key(), *clock, true});
      *clock += Seconds(1);
      nested.commands.push_back(api::PutCmd{key(), Value(3.5), *clock});
      batch.commands.push_back(std::move(nested));
      client.Apply(std::move(batch));
    }
  }
}

// Chops a random number of bytes off the end of the follower's newest WAL
// segment — the moral equivalent of kill -9 mid-write plus a torn page.
void TruncateNewestSegment(const std::string& dir, std::mt19937& rng) {
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("wal-") && name.ends_with(".log")) segments.push_back(entry.path());
  }
  ASSERT_FALSE(segments.empty());
  std::sort(segments.begin(), segments.end());
  const fs::path& newest = segments.back();
  const uint64_t size = static_cast<uint64_t>(fs::file_size(newest));
  std::uniform_int_distribution<uint64_t> cut(0, size);
  fs::resize_file(newest, size - cut(rng));
}

TEST(ReplicaTest, CrashedFollowerResyncsToIdenticalState) {
  std::mt19937 rng(20260807);  // Seeded: failures must reproduce.
  TempDir leader_dir, follower_dir;
  TtkvServer leader(LeaderOptions(leader_dir.path));
  leader.Start();
  TtkvClient client("127.0.0.1", leader.port());
  TimeMicros clock = 0;

  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto follower =
        std::make_unique<TtkvServer>(FollowerOptions(follower_dir.path, leader.port()));
    follower->Start();
    ApplyRandomTrace(client, rng, 40, &clock);
    WaitCaughtUp(leader, *follower);
    ASSERT_EQ(EngineImage(*follower), EngineImage(leader));

    // "Crash": destroy the server (no clean shutdown hook exists on
    // purpose), then tear bytes off its WAL tail. The next round's server
    // recovers from the damaged dir and must catch back up to byte
    // equality — re-pulling the truncated records from the leader.
    follower.reset();
    TruncateNewestSegment(follower_dir.path, rng);
  }

  leader.Stop();
}

// --- Quorum acks ------------------------------------------------------------

TEST(ReplicaTest, QuorumGateBlocksAcksUntilAFollowerCovers) {
  TempDir leader_dir, follower_dir;
  ServerOptions options = LeaderOptions(leader_dir.path);
  options.acks = "quorum";
  options.quorum_followers = 1;
  options.quorum_timeout_seconds = 0.3;
  TtkvServer leader(options);
  leader.Start();
  // The quorum deadlock guard: a gated mutation parks its event-loop
  // worker, so the daemon must keep at least one more loop free for the
  // follower's REPLICATE pulls.
  EXPECT_GE(leader.io_threads(), 2u);

  // No follower attached: the write must FAIL the ack — while staying
  // durable locally (the documented ambiguity).
  TtkvClient client("127.0.0.1", leader.port());
  try {
    client.Put("/q/a", Value(1), Seconds(1));
    FAIL() << "expected the quorum gate to time out";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find("quorum not reached"), std::string::npos) << e.what();
  }
  EXPECT_EQ(LastLsn(leader), 1u);  // Logged before the gate.

  TtkvServer follower(FollowerOptions(follower_dir.path, leader.port()));
  follower.Start();
  ASSERT_TRUE(WaitFor([&] { return leader.replication_hub()->follower_count() >= 1; }));

  // With a live follower the gate opens: the ack means "on disk in two
  // places".
  client.Put("/q/b", Value(2), Seconds(2));
  EXPECT_GE(leader.replication_hub()->QuorumAckedLsn(), 2u);
  WaitCaughtUp(leader, follower);
  EXPECT_EQ(api::GetAt(follower.engine(), "/q/b", Seconds(2)), Value(2));
  EXPECT_EQ(api::GetAt(follower.engine(), "/q/a", Seconds(1)), Value(1));  // Replicated late.

  follower.Stop();
  leader.Stop();
}

// --- Promotion --------------------------------------------------------------

TEST(ReplicaTest, PromotedFollowerAcceptsWritesAtTheNextLsn) {
  TempDir leader_dir, follower_dir;
  auto leader = std::make_unique<TtkvServer>(LeaderOptions(leader_dir.path));
  leader->Start();
  TtkvClient client("127.0.0.1", leader->port());
  client.Put("/pre/failover", Value("acked"), Seconds(1));
  client.Put("/pre/failover2", Value("acked2"), Seconds(2));

  TtkvServer follower(FollowerOptions(follower_dir.path, leader->port()));
  follower.Start();
  WaitCaughtUp(*leader, follower);
  const std::string leader_image = EngineImage(*leader);

  leader.reset();  // The leader "dies".

  TtkvClient promoter("127.0.0.1", follower.port());
  promoter.Promote();
  EXPECT_FALSE(follower.is_follower());
  EXPECT_EQ(EngineImage(follower), leader_image);  // Nothing lost, nothing invented.

  // PROMOTE is idempotent: a failover script may retry it.
  promoter.Promote();

  // The new leader assigns the NEXT LSN of the shipped stream and serves
  // mutations directly — no more NOT_LEADER.
  promoter.Put("/post/failover", Value("new-leader"), Seconds(3));
  EXPECT_EQ(LastLsn(follower), 3u);
  EXPECT_EQ(promoter.Get("/post/failover"), Value("new-leader"));
  const api::ReplicateResult status = promoter.Replicate("", 0, 0);
  EXPECT_FALSE(status.follower);

  follower.Stop();
}

}  // namespace
}  // namespace ocasta
