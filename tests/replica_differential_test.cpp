// Replication differential property test: one seeded random command trace,
// three executions —
//   TtkvOracle    (plain sequential TTKV reference, tests/ttkv_oracle.h)
//   leader        (a real TtkvServer driven over TCP with the same trace)
//   follower      (tails the leader's WAL — and CRASHES at random trace
//                  offsets: the server object is dropped with no shutdown
//                  hook, a random cut is torn off its newest WAL segment,
//                  and a new server re-bootstraps from the damaged dir)
// — and at the end the follower must equal the leader BYTE-FOR-BYTE
// (api::Snapshot().Serialize(), read counters included: reads inside
// logged batches replay on the follower), while the leader must match the
// reference on every durable dimension.
//
// This is the replication counterpart of durable_differential_test.cpp:
// that suite proves recovery-from-own-disk is faithful; this one proves a
// follower — which applies the leader's records through the same recovery
// path — converges to the identical bytes through crashes and resyncs.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <random>
#include <thread>

#include "api/codec.h"
#include "api/engine.h"
#include "client/ttkv_client.h"
#include "persist/durable_engine.h"
#include "server/server.h"
#include "ttkv/serialize.h"
#include "ttkv_oracle.h"

namespace ocasta {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/ocasta_replica_diff_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) throw Error("mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

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

uint64_t LastLsn(TtkvServer& server) {
  return dynamic_cast<persist::DurableEngine&>(server.engine()).wal().last_lsn();
}

void WaitCaughtUp(TtkvServer& leader, TtkvServer& follower) {
  const uint64_t target = LastLsn(leader);
  ASSERT_TRUE(WaitFor([&] { return follower.follower()->applied_lsn() >= target; }))
      << "follower stuck at " << follower.follower()->applied_lsn() << " of " << target
      << " (last_error: " << follower.follower()->last_error() << ")";
}

std::string EngineImage(api::Engine& engine) { return api::Snapshot(engine).Serialize(); }

Value RandomValue(std::mt19937& rng) {
  switch (rng() % 4) {
    case 0: return Value(static_cast<int64_t>(rng() % 1000));
    case 1: return Value(0.5 * static_cast<double>(rng() % 100));
    case 2: return Value((rng() % 2) == 0);
    default: return Value("v" + std::to_string(rng() % 64));
  }
}

std::string RandomKey(std::mt19937& rng) { return "/rd/" + std::to_string(rng() % 24); }

// One random command. Mutations carry explicit strictly-increasing
// timestamps (engine-assigned stamps would legitimately differ between the
// reference and the leader). Standalone GETs are EXCLUDED — they are not
// write-ahead logged, so their read-count side effect cannot replicate —
// but GETs inside mutating batches are included on purpose: the whole
// batch is one WAL record, so the follower replays those reads and the
// read counters must match byte-for-byte.
api::Command RandomCommand(std::mt19937& rng, TimeMicros* clock) {
  *clock += Seconds(1);
  const uint64_t roll = rng() % 100;
  if (roll < 55) return api::PutCmd{RandomKey(rng), RandomValue(rng), *clock};
  if (roll < 70) return api::DeleteCmd{RandomKey(rng), *clock, (rng() % 3) == 0};
  if (roll < 96) {
    api::BatchCmd batch;
    batch.commands.push_back(api::PutCmd{RandomKey(rng), RandomValue(rng), *clock});
    if (roll < 80) batch.commands.push_back(api::GetCmd{RandomKey(rng)});
    api::BatchCmd nested;
    *clock += Seconds(1);
    nested.commands.push_back(api::DeleteCmd{RandomKey(rng), *clock, true});
    *clock += Seconds(1);
    nested.commands.push_back(api::PutCmd{RandomKey(rng), RandomValue(rng), *clock});
    batch.commands.push_back(std::move(nested));
    return batch;
  }
  // Compact far enough behind the write frontier to keep some history.
  return api::CompactCmd{*clock > Seconds(40) ? *clock - Seconds(30) : 0};
}

// Tears a random cut off the end of the follower's newest WAL segment —
// kill -9 mid-write plus a torn page.
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
  fs::resize_file(newest, size - (rng() % (size + 1)));
}

TEST(ReplicaDifferentialTest, CrashingFollowerConvergesToLeaderBytes) {
  for (uint32_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed * 7919);
    TimeMicros clock = 0;

    TempDir leader_dir, follower_dir;
    TtkvServer leader(LeaderOptions(leader_dir.path));
    leader.Start();
    TtkvClient client("127.0.0.1", leader.port());
    TtkvOracle reference;

    auto follower =
        std::make_unique<TtkvServer>(FollowerOptions(follower_dir.path, leader.port()));
    follower->Start();

    // Three segments of traffic with a follower crash between each: the
    // crash offset is wherever the trace happens to be, and the torn cut
    // is a random byte position — over the seeds this lands mid-record,
    // at record boundaries, and inside the segment header.
    constexpr int kSegments = 3;
    constexpr int kOpsPerSegment = 35;
    for (int segment = 0; segment < kSegments; ++segment) {
      SCOPED_TRACE("segment " + std::to_string(segment));
      for (int i = 0; i < kOpsPerSegment; ++i) {
        api::Command cmd = RandomCommand(rng, &clock);
        reference.Apply(cmd);
        client.Apply(std::move(cmd));
      }
      if (segment == kSegments - 1) break;
      // Crash while the pull loop may be mid-flight; no clean shutdown.
      follower.reset();
      TruncateNewestSegment(follower_dir.path, rng);
      follower =
          std::make_unique<TtkvServer>(FollowerOptions(follower_dir.path, leader.port()));
      follower->Start();
    }

    WaitCaughtUp(leader, *follower);
    // The headline assertion: identical BYTES, not just identical answers.
    EXPECT_EQ(EngineImage(follower->engine()), EngineImage(leader.engine()));

    // And the leader itself faithfully executed the trace: every record
    // matches the in-process reference. (Not a byte comparison — the
    // single-TTKV reference serializes in insertion order, the sharded
    // leader's merged image in sorted-key order; the CONTENT per key must
    // be identical, read counters included.)
    const TTKV leader_image = api::Snapshot(leader.engine());
    const TTKV reference_image = api::Snapshot(reference);
    ASSERT_EQ(leader_image.num_keys(), reference_image.num_keys());
    for (uint32_t id = 0; id < reference_image.num_keys(); ++id) {
      const VersionedRecord& want = reference_image.record(id);
      const VersionedRecord* got = leader_image.find(want.key);
      ASSERT_NE(got, nullptr) << want.key;
      EXPECT_EQ(got->versions, want.versions) << want.key;
      EXPECT_EQ(got->write_count, want.write_count) << want.key;
      EXPECT_EQ(got->delete_count, want.delete_count) << want.key;
      EXPECT_EQ(got->read_count, want.read_count) << want.key;
    }

    const EngineStats leader_stats = api::Stats(leader.engine());
    const EngineStats follower_stats = api::Stats(follower->engine());
    EXPECT_EQ(follower_stats.puts, leader_stats.puts);
    EXPECT_EQ(follower_stats.gets, leader_stats.gets);
    EXPECT_EQ(follower_stats.deletes, leader_stats.deletes);

    follower->Stop();
    leader.Stop();
  }
}

// The same convergence claim, ending in PROMOTION instead of catch-up: the
// leader dies for real, the crashed-and-resynced follower takes over, and
// the new leader's image must be exactly the dead leader's image.
TEST(ReplicaDifferentialTest, PromotedFollowerMatchesDeadLeaderBytes) {
  std::mt19937 rng(20260807);
  TimeMicros clock = 0;

  TempDir leader_dir, follower_dir;
  auto leader = std::make_unique<TtkvServer>(LeaderOptions(leader_dir.path));
  leader->Start();
  TtkvClient client("127.0.0.1", leader->port());

  auto follower =
      std::make_unique<TtkvServer>(FollowerOptions(follower_dir.path, leader->port()));
  follower->Start();

  for (int i = 0; i < 30; ++i) {
    api::Command cmd = RandomCommand(rng, &clock);
    client.Apply(std::move(cmd));
  }
  // Crash + resync once before the failover, so promotion runs on a
  // follower with recovery scar tissue, not a pristine one.
  follower.reset();
  TruncateNewestSegment(follower_dir.path, rng);
  follower =
      std::make_unique<TtkvServer>(FollowerOptions(follower_dir.path, leader->port()));
  follower->Start();
  for (int i = 0; i < 30; ++i) {
    api::Command cmd = RandomCommand(rng, &clock);
    client.Apply(std::move(cmd));
  }

  WaitCaughtUp(*leader, *follower);
  const std::string dead_leader_image = EngineImage(leader->engine());
  const uint64_t dead_leader_lsn = LastLsn(*leader);
  leader.reset();

  TtkvClient promoter("127.0.0.1", follower->port());
  promoter.Promote();
  EXPECT_FALSE(follower->is_follower());
  EXPECT_EQ(EngineImage(follower->engine()), dead_leader_image);

  // The promoted log continues exactly where the shipped history ended.
  promoter.Put("/after/promotion", Value("ok"), clock + Seconds(1));
  EXPECT_EQ(LastLsn(*follower), dead_leader_lsn + 1);

  follower->Stop();
}

}  // namespace
}  // namespace ocasta
