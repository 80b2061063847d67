// The write-ahead log and DurableEngine recovery suites.
//
// The WAL corruption matrix mirrors the codec and TTKV::Deserialize
// corruption suites: every-prefix truncation of the final record, a CRC
// flip mid-log, a garbage tail, and empty/zero-length segments must all
// recover to the last valid record — never crash, never resurrect bytes
// past the first lie. The DurableEngine tests prove the decorator's
// contract (acknowledged => recovered) and the snapshot/log seam's
// idempotency: a record the snapshot already contains is skipped on
// replay, not double-applied.
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <gtest/gtest.h>

#include "api/codec.h"
#include "common/io.h"
#include "persist/durable_engine.h"
#include "persist/wal.h"
#include "server/sharded_ttkv.h"

namespace ocasta {
namespace persist {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/ocasta_persist_test_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) throw Error("mkdtemp failed");
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

// Payloads are codec-encoded commands in production; for WAL-level tests
// any bytes do.
std::string PutPayload(int i) {
  return api::EncodeCommand(
      api::PutCmd{"/k/" + std::to_string(i), Value(int64_t{i}), Seconds(i + 1)});
}

std::vector<std::string> SegmentFiles(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("wal-") && name.ends_with(".log")) out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> SnapshotFiles(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("snap-") && name.ends_with(".ttkv")) out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Appends `count` records (payload i = PutPayload(i)) through a Wal and
// closes it, leaving the directory for scanning/corrupting.
void WriteLog(const std::string& dir, int count, size_t segment_bytes = 64u << 20) {
  Wal wal(dir, WalOptions{.segment_bytes = segment_bytes, .fsync = FsyncPolicy::kBatch});
  for (int i = 0; i < count; ++i) wal.Sync(wal.Append(PutPayload(i)));
}

TEST(WalTest, RoundTripsRecordsAcrossReopen) {
  TempDir dir;
  WriteLog(dir.path, 5);

  Wal wal(dir.path, WalOptions{});
  const std::vector<WalRecord> records = wal.TakeRecovered();
  ASSERT_EQ(records.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(records[static_cast<size_t>(i)].lsn, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(records[static_cast<size_t>(i)].payload, PutPayload(i));
  }
  EXPECT_EQ(wal.last_lsn(), 5u);
  EXPECT_EQ(wal.recovered_dropped_bytes(), 0u);

  // Appending continues the sequence.
  EXPECT_EQ(wal.Append(PutPayload(5)), 6u);
}

TEST(WalTest, EveryPrefixTruncationOfFinalRecordRecovers) {
  TempDir base;
  WriteLog(base.path, 4);
  const std::string segment = SegmentFiles(base.path).at(0);
  const std::string full = ReadFile(segment);

  // Find where record 4 starts: scan after writing only 3 records.
  TempDir three;
  WriteLog(three.path, 3);
  const size_t three_bytes = ReadFile(SegmentFiles(three.path).at(0)).size();
  ASSERT_LT(three_bytes, full.size());

  for (size_t cut = three_bytes; cut < full.size(); ++cut) {
    TempDir dir;
    WriteFile(dir.path + "/wal-00000000000000000001.log", full.substr(0, cut));
    const WalScan scan = Wal::Scan(dir.path);
    EXPECT_EQ(scan.records.size(), 3u) << "cut at " << cut;
    EXPECT_EQ(scan.last_lsn, 3u);
    EXPECT_EQ(scan.dropped_bytes, cut - three_bytes);

    // Reopening truncates the torn tail and appends cleanly after it.
    Wal wal(dir.path, WalOptions{});
    EXPECT_EQ(wal.Append(PutPayload(99)), 4u);
  }
}

TEST(WalTest, CrcFlipMidLogStopsAtLastValidRecord) {
  TempDir base;
  WriteLog(base.path, 3);
  TempDir one;
  WriteLog(one.path, 1);
  const size_t one_bytes = ReadFile(SegmentFiles(one.path).at(0)).size();

  const std::string segment = SegmentFiles(base.path).at(0);
  std::string bytes = ReadFile(segment);
  // Flip one payload byte inside record 2 (between the one- and two-record
  // offsets, past record 2's header).
  bytes[one_bytes + 16 + 2] = static_cast<char>(bytes[one_bytes + 16 + 2] ^ 0x40);
  WriteFile(segment, bytes);

  const WalScan scan = Wal::Scan(base.path);
  // Recovery must stop at record 1: record 3 is intact on disk but sits
  // beyond a corrupt record, and a log is only trustworthy up to its first
  // lie.
  EXPECT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.last_lsn, 1u);
  EXPECT_EQ(scan.dropped_bytes, bytes.size() - one_bytes);

  Wal wal(base.path, WalOptions{});
  EXPECT_EQ(wal.Append(PutPayload(7)), 2u);
}

TEST(WalTest, GarbageTailIsTruncated) {
  TempDir dir;
  WriteLog(dir.path, 3);
  const std::string segment = SegmentFiles(dir.path).at(0);
  const size_t clean_size = ReadFile(segment).size();
  const std::string garbage = "!!garbage written by a torn batch!!";
  WriteFile(segment, ReadFile(segment) + garbage);

  Wal wal(dir.path, WalOptions{});
  EXPECT_EQ(wal.TakeRecovered().size(), 3u);
  EXPECT_EQ(wal.recovered_dropped_bytes(), garbage.size());
  // The torn suffix is physically gone.
  EXPECT_EQ(ReadFile(segment).size(), clean_size);
}

TEST(WalTest, EmptyAndZeroLengthSegmentsAreHarmless) {
  {
    // A zero-length segment file: the crash remnant of a rotation.
    TempDir dir;
    WriteFile(dir.path + "/wal-00000000000000000001.log", "");
    const WalScan scan = Wal::Scan(dir.path);
    EXPECT_TRUE(scan.records.empty());
    EXPECT_EQ(scan.last_lsn, 0u);
    Wal wal(dir.path, WalOptions{});
    EXPECT_EQ(wal.Append(PutPayload(0)), 1u);
  }
  {
    // A header-only segment: opened, never written.
    TempDir dir;
    WriteLog(dir.path, 0);
    const WalScan scan = Wal::Scan(dir.path);
    EXPECT_TRUE(scan.records.empty());
    Wal wal(dir.path, WalOptions{});
    EXPECT_EQ(wal.Append(PutPayload(0)), 1u);
  }
  {
    // An empty directory.
    TempDir dir;
    Wal wal(dir.path, WalOptions{});
    EXPECT_TRUE(wal.TakeRecovered().empty());
    EXPECT_EQ(wal.Append(PutPayload(0)), 1u);
  }
}

TEST(WalTest, RotatesSegmentsAndScansAcrossThem) {
  TempDir dir;
  WriteLog(dir.path, 40, /*segment_bytes=*/256);
  EXPECT_GT(SegmentFiles(dir.path).size(), 2u);

  const WalScan scan = Wal::Scan(dir.path);
  ASSERT_EQ(scan.records.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(scan.records[static_cast<size_t>(i)].payload, PutPayload(i));
  }
  EXPECT_GT(scan.segments, 2u);
}

TEST(WalTest, TruncateThroughDropsCoveredSegmentsOnly) {
  TempDir dir;
  size_t before = 0;
  {
    Wal wal(dir.path, WalOptions{.segment_bytes = 256, .fsync = FsyncPolicy::kOff});
    for (int i = 0; i < 40; ++i) wal.Append(PutPayload(i));
    before = SegmentFiles(dir.path).size();
    ASSERT_GT(before, 2u);
    EXPECT_GT(wal.TruncateThrough(20), 0u);
    EXPECT_LT(SegmentFiles(dir.path).size(), before);
  }
  // The surviving tail — a log that no longer starts at LSN 1 — must scan
  // contiguously from the first remaining segment through LSN 40.
  const WalScan scan = Wal::Scan(dir.path);
  ASSERT_FALSE(scan.records.empty());
  EXPECT_LE(scan.records.front().lsn, 21u);  // Whole segments only.
  EXPECT_EQ(scan.last_lsn, 40u);
  EXPECT_EQ(scan.dropped_bytes, 0u);
  for (size_t i = 1; i < scan.records.size(); ++i) {
    EXPECT_EQ(scan.records[i].lsn, scan.records[i - 1].lsn + 1);
  }
  // And appends continue the numbering after reopen.
  Wal wal(dir.path, WalOptions{});
  EXPECT_EQ(wal.Append(PutPayload(40)), 41u);
}

TEST(WalTest, ResetToRestartsNumbering) {
  TempDir dir;
  WriteLog(dir.path, 3);
  Wal wal(dir.path, WalOptions{});
  wal.TakeRecovered();
  wal.ResetTo(11);
  EXPECT_EQ(wal.last_lsn(), 10u);
  EXPECT_EQ(wal.Append(PutPayload(0)), 11u);
  EXPECT_THROW(wal.ResetTo(5), Error);
}

TEST(WalTest, ReadFromServesBoundedContiguousTail) {
  TempDir dir;
  WriteLog(dir.path, 10, /*segment_bytes=*/128);  // Force rotation mid-run.
  Wal wal(dir.path, WalOptions{.segment_bytes = 128});
  wal.TakeRecovered();

  // Full log from the start.
  WalTail all = wal.ReadFrom(1, 100, 1u << 20);
  ASSERT_TRUE(all.reachable);
  ASSERT_EQ(all.records.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(all.records[static_cast<size_t>(i)].lsn, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(all.records[static_cast<size_t>(i)].payload, PutPayload(i));
  }

  // Mid-log start across a segment boundary, record-capped.
  const WalTail mid = wal.ReadFrom(5, 3, 1u << 20);
  ASSERT_TRUE(mid.reachable);
  ASSERT_EQ(mid.records.size(), 3u);
  EXPECT_EQ(mid.records[0].lsn, 5u);
  EXPECT_EQ(mid.records[2].lsn, 7u);

  // Caught-up reader: reachable with nothing to send.
  const WalTail caught_up = wal.ReadFrom(11, 100, 1u << 20);
  EXPECT_TRUE(caught_up.reachable);
  EXPECT_TRUE(caught_up.records.empty());

  // A cursor AHEAD of the log (divergent timeline) is not reachable.
  EXPECT_FALSE(wal.ReadFrom(12, 100, 1u << 20).reachable);

  // The byte cap never starves the first record, however tiny.
  const WalTail tiny = wal.ReadFrom(1, 100, 1);
  ASSERT_TRUE(tiny.reachable);
  EXPECT_EQ(tiny.records.size(), 1u);
}

TEST(WalTest, ReadFromBehindTruncationIsUnreachable) {
  TempDir dir;
  WriteLog(dir.path, 12, /*segment_bytes=*/128);
  Wal wal(dir.path, WalOptions{.segment_bytes = 128});
  wal.TakeRecovered();
  ASSERT_GT(wal.TruncateThrough(6), 0u);  // Drops fully-covered segments.

  // What survives is exactly what a scan sees; everything from its first
  // record on is reachable, anything earlier is not — the follower holding
  // such a cursor must reseed from a snapshot.
  const WalScan scan = Wal::Scan(dir.path);
  ASSERT_FALSE(scan.records.empty());
  const uint64_t first = scan.records.front().lsn;
  ASSERT_GT(first, 1u);  // Truncation really dropped the head of the log.

  EXPECT_FALSE(wal.ReadFrom(1, 100, 1u << 20).reachable);
  EXPECT_FALSE(wal.ReadFrom(first - 1, 100, 1u << 20).reachable);
  const WalTail tail = wal.ReadFrom(first, 100, 1u << 20);
  ASSERT_TRUE(tail.reachable);
  EXPECT_EQ(tail.records.front().lsn, first);
  EXPECT_EQ(tail.records.back().lsn, 12u);
}

TEST(PersistTest, FsyncPolicyNamesRoundTrip) {
  EXPECT_EQ(FsyncPolicyByName("off"), FsyncPolicy::kOff);
  EXPECT_EQ(FsyncPolicyByName("batch"), FsyncPolicy::kBatch);
  EXPECT_EQ(FsyncPolicyByName("always"), FsyncPolicy::kAlways);
  EXPECT_THROW(FsyncPolicyByName("sometimes"), Error);
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kBatch), "batch");
}

// --- DurableEngine ----------------------------------------------------------

std::unique_ptr<DurableEngine> Open(const std::string& dir, size_t shards,
                                    DurableOptions options) {
  return std::make_unique<DurableEngine>(
      dir, [shards](TTKV recovered) -> std::unique_ptr<api::Engine> {
        auto engine = std::make_unique<ShardedTtkv>(shards, 1.0);
        engine->ImportSnapshot(recovered);
        return engine;
      },
      options);
}

std::unique_ptr<DurableEngine> OpenOneShard(const std::string& dir,
                                            DurableOptions options = {}) {
  return Open(dir, 1, options);
}

std::unique_ptr<DurableEngine> OpenSharded(const std::string& dir,
                                           DurableOptions options = {}) {
  return Open(dir, 4, options);
}

TEST(DurableEngineTest, RecoversAckedWritesAfterUncleanClose) {
  TempDir dir;
  {
    auto engine = OpenOneShard(dir.path);
    api::Put(*engine, "/a", Value(int64_t{1}), Seconds(1));
    api::Put(*engine, "/a", Value(int64_t{2}), Seconds(2));
    api::Put(*engine, "/b", Value("hello"), Seconds(3));
    EXPECT_TRUE(api::Delete(*engine, "/b", Seconds(4)));
    // No clean shutdown hook exists on purpose: destruction == crash.
  }
  auto engine = OpenOneShard(dir.path);
  EXPECT_EQ(engine->recovery().replayed, 4u);
  EXPECT_EQ(engine->recovery().snapshot_lsn, 0u);
  EXPECT_EQ(api::Get(*engine, "/a"), Value(int64_t{2}));
  EXPECT_EQ(api::Get(*engine, "/b"), std::nullopt);
  const auto record = api::History(*engine, "/a");
  ASSERT_TRUE(record.has_value());
  ASSERT_EQ(record->versions.size(), 2u);
  EXPECT_EQ(record->versions[0].timestamp, Seconds(1));
  EXPECT_EQ(record->write_count, 2u);
}

TEST(DurableEngineTest, EngineAssignedStampsAreLoggedExplicitly) {
  TempDir dir;
  TimeMicros stamped = 0;
  {
    auto engine = OpenOneShard(dir.path);
    engine->Apply(api::PutCmd{"/t", Value(int64_t{9}), 0});  // Backend-assigned stamp.
    stamped = api::History(*engine, "/t")->versions.at(0).timestamp;
    EXPECT_GT(stamped, 0);
  }
  auto engine = OpenOneShard(dir.path);
  // Replay must reproduce the stamp assigned at log time, not re-stamp.
  EXPECT_EQ(api::History(*engine, "/t")->versions.at(0).timestamp, stamped);
  // And fresh stamps keep moving forward from the recovered clock.
  engine->Apply(api::PutCmd{"/t", Value(int64_t{10}), 0});
  EXPECT_GT(api::History(*engine, "/t")->versions.at(1).timestamp, stamped);
}

TEST(DurableEngineTest, SnapshotSeamIsIdempotent) {
  // The latent-gap regression: a snapshot at LSN S followed by a replay
  // that does not respect S would re-apply records 1..S on top of the
  // deserialized store, doubling every version at the seam.
  TempDir dir;
  {
    auto engine = OpenOneShard(dir.path);
    api::Put(*engine, "/seam", Value(int64_t{1}), Seconds(1));
    api::Put(*engine, "/seam", Value(int64_t{2}), Seconds(2));
    engine->Checkpoint();  // snap-2 now contains both versions; WAL still does too.
    api::Put(*engine, "/seam", Value(int64_t{3}), Seconds(3));
  }
  // The log retains records at or below the snapshot seam (retention keeps
  // the WAL until an OLDER snapshot covers it) — exactly the double-apply
  // hazard.
  ASSERT_EQ(SnapshotFiles(dir.path).size(), 1u);
  auto engine = OpenOneShard(dir.path);
  EXPECT_EQ(engine->recovery().snapshot_lsn, 2u);
  EXPECT_EQ(engine->recovery().replayed, 1u);   // Only the post-snapshot record.
  EXPECT_GE(engine->recovery().skipped, 0u);
  const auto record = api::History(*engine, "/seam");
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->versions.size(), 3u);  // Not 5: records 1..2 not re-applied.
  EXPECT_EQ(record->write_count, 3u);
  EXPECT_EQ(api::Get(*engine, "/seam"), Value(int64_t{3}));
}

TEST(DurableEngineTest, CheckpointWithNoNewWritesDoesNotDoubleApply) {
  TempDir dir;
  {
    auto engine = OpenOneShard(dir.path);
    api::Put(*engine, "/x", Value(int64_t{1}), Seconds(1));
    engine->Checkpoint();
  }
  {
    auto engine = OpenOneShard(dir.path);
    EXPECT_EQ(api::History(*engine, "/x")->versions.size(), 1u);
    engine->Checkpoint();  // Same LSN: must be a no-op, not a second snapshot.
    EXPECT_EQ(SnapshotFiles(dir.path).size(), 1u);
  }
  auto engine = OpenOneShard(dir.path);
  EXPECT_EQ(api::History(*engine, "/x")->versions.size(), 1u);
}

TEST(DurableEngineTest, CorruptNewestSnapshotFallsBackToOlder) {
  TempDir dir;
  {
    auto engine = OpenOneShard(dir.path);
    api::Put(*engine, "/f", Value(int64_t{1}), Seconds(1));
    engine->Checkpoint();
    api::Put(*engine, "/f", Value(int64_t{2}), Seconds(2));
    engine->Checkpoint();
    api::Put(*engine, "/f", Value(int64_t{3}), Seconds(3));
  }
  auto snaps = SnapshotFiles(dir.path);
  ASSERT_EQ(snaps.size(), 2u);
  // Tear the newest snapshot in half.
  const std::string newest = snaps.back();
  WriteFile(newest, ReadFile(newest).substr(0, ReadFile(newest).size() / 2));

  auto engine = OpenOneShard(dir.path);
  EXPECT_EQ(engine->recovery().snapshot_lsn, 1u);  // Fell back.
  EXPECT_EQ(engine->recovery().replayed, 2u);      // Records 2 and 3.
  EXPECT_EQ(api::Get(*engine, "/f"), Value(int64_t{3}));
  EXPECT_EQ(api::History(*engine, "/f")->versions.size(), 3u);
}

TEST(DurableEngineTest, RefusesProvablyPartialRecovery) {
  // Checkpoint truncation deleted the early WAL segments trusting the
  // snapshot; if every snapshot then corrupts, the surviving log tail
  // cannot reconstruct records 1..N — recovery must refuse to boot a
  // silently partial store.
  TempDir dir;
  DurableOptions options;
  options.wal.segment_bytes = 256;  // Force rotation so truncation has prey.
  options.retained_snapshots = 1;
  {
    auto engine = OpenOneShard(dir.path, options);
    for (int i = 0; i < 30; ++i) {
      api::Put(*engine, "/p/" + std::to_string(i), Value(int64_t{i}), Seconds(i + 1));
    }
    engine->Checkpoint();  // Truncates segments covered by the snapshot.
    api::Put(*engine, "/p/tail", Value(int64_t{99}), Seconds(40));
  }
  ASSERT_EQ(SnapshotFiles(dir.path).size(), 1u);
  const std::string snap = SnapshotFiles(dir.path).at(0);
  WriteFile(snap, "corrupt");
  EXPECT_THROW(OpenOneShard(dir.path, options), Error);
}

TEST(DurableEngineTest, TornTailLosesOnlyTheTornRecord) {
  TempDir dir;
  {
    auto engine = OpenOneShard(dir.path);
    api::Put(*engine, "/t", Value(int64_t{1}), Seconds(1));
    api::Put(*engine, "/t", Value(int64_t{2}), Seconds(2));
  }
  // Simulate a crash mid-write: garbage where record 3 would be.
  const std::string segment = SegmentFiles(dir.path).at(0);
  WriteFile(segment, ReadFile(segment) + std::string("\x14\x00\x00\x00torn", 8));

  auto engine = OpenOneShard(dir.path);
  EXPECT_GT(engine->recovery().dropped_bytes, 0u);
  EXPECT_EQ(engine->recovery().replayed, 2u);
  EXPECT_EQ(api::Get(*engine, "/t"), Value(int64_t{2}));
  // The log keeps working past the truncation.
  api::Put(*engine, "/t", Value(int64_t{3}), Seconds(3));
}

TEST(DurableEngineTest, CheckpointTruncatesCoveredWalSegments) {
  TempDir dir;
  DurableOptions options;
  options.wal.segment_bytes = 256;  // Force rotation quickly.
  options.retained_snapshots = 1;
  {
    auto engine = OpenOneShard(dir.path, options);
    for (int i = 0; i < 30; ++i) {
      api::Put(*engine, "/k/" + std::to_string(i), Value(int64_t{i}), Seconds(i + 1));
    }
    const size_t before = SegmentFiles(dir.path).size();
    ASSERT_GT(before, 2u);
    engine->Checkpoint();
    EXPECT_LT(SegmentFiles(dir.path).size(), before);
  }
  auto engine = OpenOneShard(dir.path, options);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(api::Get(*engine, "/k/" + std::to_string(i)), Value(int64_t{i}));
  }
}

TEST(DurableEngineTest, BatchMutationsAreDurableUnderEveryPolicy) {
  for (const FsyncPolicy policy :
       {FsyncPolicy::kOff, FsyncPolicy::kBatch, FsyncPolicy::kAlways}) {
    TempDir dir;
    DurableOptions options;
    options.wal.fsync = policy;
    {
      auto engine = OpenSharded(dir.path, options);
      std::vector<api::Command> batch;
      for (int i = 0; i < 8; ++i) {
        batch.push_back(api::PutCmd{"/b/" + std::to_string(i), Value(int64_t{i}), Seconds(i + 1)});
      }
      batch.push_back(api::GetCmd{"/b/0"});  // Read-only member: not logged.
      batch.push_back(api::DeleteCmd{"/b/3", Seconds(20), false});
      const auto results = engine->ApplyBatch(batch);
      ASSERT_EQ(results.size(), 10u);
      for (const auto& result : results) EXPECT_FALSE(api::IsError(result));
    }
    auto engine = OpenSharded(dir.path, options);
    for (int i = 0; i < 8; ++i) {
      if (i == 3) {
        EXPECT_EQ(api::Get(*engine, "/b/3"), std::nullopt);
      } else {
        EXPECT_EQ(api::Get(*engine, "/b/" + std::to_string(i)), Value(int64_t{i}));
      }
    }
  }
}

TEST(DurableEngineTest, CompactIsLoggedAndReplayed) {
  TempDir dir;
  {
    auto engine = OpenOneShard(dir.path);
    api::Put(*engine, "/c", Value(int64_t{1}), Seconds(1));
    api::Put(*engine, "/c", Value(int64_t{2}), Seconds(2));
    api::Put(*engine, "/c", Value(int64_t{3}), Seconds(3));
    EXPECT_EQ(api::Compact(*engine, Seconds(3)), 1u);
    EXPECT_EQ(api::History(*engine, "/c")->versions.size(), 2u);
  }
  auto engine = OpenOneShard(dir.path);
  EXPECT_EQ(api::History(*engine, "/c")->versions.size(), 2u);
  EXPECT_EQ(api::Get(*engine, "/c"), Value(int64_t{3}));
}

TEST(DurableEngineTest, ReadsAndErrorsAreNotLogged) {
  TempDir dir;
  {
    auto engine = OpenOneShard(dir.path);
    api::Put(*engine, "/r", Value(int64_t{1}), Seconds(1));
    api::Get(*engine, "/r");
    api::Get(*engine, "/r");
    engine->Apply(api::StatsCmd{});
    // A rejected mutation is logged (replay reproduces the same rejection
    // deterministically) but must not corrupt recovery.
    EXPECT_TRUE(api::IsError(engine->Apply(api::PutCmd{"", Value(int64_t{1}), Seconds(2)})));
    EXPECT_EQ(engine->wal().last_lsn(), 2u);  // The put + the rejected put; no reads.
  }
  auto engine = OpenOneShard(dir.path);
  EXPECT_EQ(api::Get(*engine, "/r"), Value(int64_t{1}));
  EXPECT_EQ(api::Stats(*engine).ttkv.num_keys, 1u);
}

TEST(DurableEngineTest, ShardedImportSnapshotMatchesLocalRecovery) {
  TempDir dir;
  {
    auto engine = OpenOneShard(dir.path);
    for (int i = 0; i < 20; ++i) {
      api::Put(*engine, "/m/" + std::to_string(i % 5), Value(int64_t{i}), Seconds(i + 1));
    }
    engine->Checkpoint();
    api::Delete(*engine, "/m/0", Seconds(40));
  }
  // The same directory recovers through a 4-shard and a 1-shard factory:
  // the snapshot split across shards via ImportSnapshot, the log tail
  // replayed on top.
  auto sharded = OpenSharded(dir.path);
  auto local = OpenOneShard(dir.path);
  const TTKV a = api::Snapshot(*sharded);
  const TTKV b = api::Snapshot(*local);
  ASSERT_EQ(a.num_keys(), b.num_keys());
  for (uint32_t id = 0; id < a.num_keys(); ++id) {
    const VersionedRecord& rec = a.record(id);
    const VersionedRecord* other = b.find(rec.key);
    ASSERT_NE(other, nullptr) << rec.key;
    EXPECT_EQ(rec.versions, other->versions) << rec.key;
    EXPECT_EQ(rec.write_count, other->write_count);
    EXPECT_EQ(rec.delete_count, other->delete_count);
  }
}

// CLUSTER_NOW after a restart sees the whole history: the part inside the
// snapshot (restored by ImportSnapshot) as well as the replayed log
// tail. Here the {a, b} co-modifications all sit inside the
// snapshot and {c, d}'s in the tail.
TEST(DurableEngineTest, ClusterNowSurvivesCheckpointAndRestart) {
  TempDir dir;
  const auto partition = [](api::Engine& engine) {
    std::vector<std::vector<std::string>> clusters;
    for (NamedCluster& cluster : api::ClusterNow(engine, 1.5)) {
      std::sort(cluster.keys.begin(), cluster.keys.end());
      clusters.push_back(std::move(cluster.keys));
    }
    std::sort(clusters.begin(), clusters.end());
    return clusters;
  };
  std::vector<std::vector<std::string>> before;
  {
    auto engine = OpenSharded(dir.path);
    for (int burst = 0; burst < 3; ++burst) {
      const TimeMicros t = Seconds(100 * (burst + 1));
      api::Put(*engine, "/c/a", Value(int64_t{burst}), t);
      api::Put(*engine, "/c/b", Value(int64_t{burst}), t + Seconds(0.3));
    }
    engine->Checkpoint();
    for (int burst = 3; burst < 6; ++burst) {
      const TimeMicros t = Seconds(100 * (burst + 1));
      api::Put(*engine, "/c/c", Value(int64_t{burst}), t);
      api::Put(*engine, "/c/d", Value(int64_t{burst}), t + Seconds(0.3));
    }
    before = partition(*engine);
  }
  ASSERT_EQ(before, (std::vector<std::vector<std::string>>{{"/c/a", "/c/b"}, {"/c/c", "/c/d"}}));
  auto engine = OpenSharded(dir.path);
  ASSERT_GT(engine->recovery().snapshot_lsn, 0u);
  EXPECT_EQ(partition(*engine), before);
}

TEST(DurableEngineTest, FallsBackThroughEveryRetainedSnapshot) {
  // Recovery must walk EVERY retained snapshot newest-first, not just try
  // the newest and give up: with retained_snapshots = 3 and the two newest
  // generations corrupt, the oldest still anchors recovery and the log
  // replays the difference.
  TempDir dir;
  DurableOptions options;
  options.retained_snapshots = 3;
  {
    auto engine = OpenOneShard(dir.path, options);
    api::Put(*engine, "/g", Value(int64_t{1}), Seconds(1));
    engine->Checkpoint();  // snap @ 1
    api::Put(*engine, "/g", Value(int64_t{2}), Seconds(2));
    engine->Checkpoint();  // snap @ 2
    api::Put(*engine, "/g", Value(int64_t{3}), Seconds(3));
    engine->Checkpoint();  // snap @ 3
    api::Put(*engine, "/g", Value(int64_t{4}), Seconds(4));
  }
  auto snaps = SnapshotFiles(dir.path);
  ASSERT_EQ(snaps.size(), 3u);
  WriteFile(snaps[2], "garbage");                                   // Newest: corrupt.
  WriteFile(snaps[1], ReadFile(snaps[1]).substr(0, 3));             // Middle: torn.

  auto engine = OpenOneShard(dir.path, options);
  EXPECT_EQ(engine->recovery().snapshot_lsn, 1u);  // Fell back twice.
  EXPECT_EQ(engine->recovery().replayed, 3u);      // Records 2, 3, 4.
  EXPECT_EQ(api::Get(*engine, "/g"), Value(int64_t{4}));
  EXPECT_EQ(api::History(*engine, "/g")->versions.size(), 4u);
}

TEST(DurableEngineTest, AllSnapshotsCorruptFallsBackToBareLogReplay) {
  // When every snapshot is unreadable but the log still reaches record 1,
  // nothing is actually lost: recovery must boot from an empty store and
  // replay the whole log instead of refusing (the refusal is reserved for
  // the provably-partial case where truncation already ate the head).
  TempDir dir;
  {
    auto engine = OpenOneShard(dir.path);  // Default: big segments, nothing truncated.
    api::Put(*engine, "/b", Value(int64_t{1}), Seconds(1));
    engine->Checkpoint();
    api::Put(*engine, "/b", Value(int64_t{2}), Seconds(2));
    engine->Checkpoint();
    api::Put(*engine, "/b", Value(int64_t{3}), Seconds(3));
  }
  for (const std::string& snap : SnapshotFiles(dir.path)) WriteFile(snap, "corrupt");

  auto engine = OpenOneShard(dir.path);
  EXPECT_EQ(engine->recovery().snapshot_lsn, 0u);  // No snapshot anchored.
  EXPECT_EQ(engine->recovery().replayed, 3u);      // The full log.
  EXPECT_EQ(api::Get(*engine, "/b"), Value(int64_t{3}));
  EXPECT_EQ(api::History(*engine, "/b")->versions.size(), 3u);
}

TEST(DurableEngineTest, StatsTotalsSurviveRestart) {
  // The stats contract (docs/DURABILITY.md): STATS presents LIFETIME
  // op-counter totals, so a checkpoint must persist them (OCDS header) and
  // recovery must baseline the fresh inner engine with them. Before the
  // wrapper, every restart silently reset puts/gets/deletes to zero.
  TempDir dir;
  {
    auto engine = OpenOneShard(dir.path);
    api::Put(*engine, "/s/a", Value(int64_t{1}), Seconds(1));
    api::Put(*engine, "/s/b", Value(int64_t{2}), Seconds(2));
    api::Get(*engine, "/s/a");
    api::Get(*engine, "/s/a");
    api::Get(*engine, "/s/b");
    api::Delete(*engine, "/s/b", Seconds(3));
    engine->Checkpoint();
    // One more put AFTER the checkpoint: replayed from the log, so the
    // recovered total must be baseline + replay, not just the baseline.
    api::Put(*engine, "/s/c", Value(int64_t{3}), Seconds(4));
  }
  auto engine = OpenOneShard(dir.path);
  const EngineStats stats = api::Stats(*engine);
  EXPECT_EQ(stats.puts, 3u);
  EXPECT_EQ(stats.gets, 3u);
  EXPECT_EQ(stats.deletes, 1u);

  // And the counters keep counting from there.
  api::Put(*engine, "/s/d", Value(int64_t{4}), Seconds(5));
  api::Get(*engine, "/s/a");
  const EngineStats after = api::Stats(*engine);
  EXPECT_EQ(after.puts, 4u);
  EXPECT_EQ(after.gets, 4u);
}

TEST(DurableEngineTest, DurableSnapshotCodecRoundTripsAndReadsLegacyImages) {
  DurableSnapshot snap;
  snap.puts = 7;
  snap.gets = 11;
  snap.deletes = 2;
  snap.ttkv.record_write("/c/k", Value("v"), Seconds(1));
  const DurableSnapshot decoded = DecodeDurableSnapshot(EncodeDurableSnapshot(snap));
  EXPECT_EQ(decoded.puts, 7u);
  EXPECT_EQ(decoded.gets, 11u);
  EXPECT_EQ(decoded.deletes, 2u);
  EXPECT_EQ(decoded.ttkv.Serialize(), snap.ttkv.Serialize());

  // A pre-wrapper file is the bare TTKV image: readable, totals unknown.
  const DurableSnapshot legacy = DecodeDurableSnapshot(snap.ttkv.Serialize());
  EXPECT_EQ(legacy.puts, 0u);
  EXPECT_EQ(legacy.ttkv.Serialize(), snap.ttkv.Serialize());
}

TEST(DurableEngineTest, LegacyBareSnapshotFileStillAnchorsRecovery) {
  // A data dir written before the OCDS wrapper holds bare TTKV images;
  // they must keep loading (with zero baselines) rather than bricking the
  // store on upgrade.
  TempDir dir;
  TTKV image;
  image.record_write("/old/key", Value("survives"), Seconds(1));
  image.record_write("/old/key2", Value(int64_t{5}), Seconds(2));
  char name[64];
  std::snprintf(name, sizeof(name), "snap-%020llu.ttkv", 2ull);
  WriteFile(dir.path + "/" + name, image.Serialize());

  auto engine = OpenOneShard(dir.path);
  EXPECT_EQ(engine->recovery().snapshot_lsn, 2u);
  EXPECT_EQ(api::Get(*engine, "/old/key"), Value("survives"));
  EXPECT_EQ(api::Stats(*engine).puts, 0u);  // Totals unknown for legacy images.

  // New writes append past the legacy seam.
  api::Put(*engine, "/new/key", Value(int64_t{9}), Seconds(3));
  EXPECT_EQ(api::Stats(*engine).puts, 1u);
}

TEST(DurableEngineTest, BackendNameAndPassThroughs) {
  TempDir dir;
  auto engine = OpenOneShard(dir.path);
  EXPECT_STREQ(engine->backend_name(), "durable");
  EXPECT_FALSE(api::IsError(engine->Apply(api::PingCmd{})));
  EXPECT_FALSE(api::IsError(engine->Apply(api::ShutdownCmd{})));
  EXPECT_TRUE(api::ListKeys(*engine).empty());
}

}  // namespace
}  // namespace persist
}  // namespace ocasta
