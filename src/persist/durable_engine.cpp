#include "persist/durable_engine.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "api/codec.h"
#include "common/io.h"
#include "obs/slow_log.h"
#include "ttkv/serialize.h"

namespace ocasta::persist {

namespace {

// Microseconds since `t0`, for the slow-op trace's WAL-time attribution.
double MicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string SnapshotName(uint64_t lsn) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "snap-%020llu.ttkv", static_cast<unsigned long long>(lsn));
  return buf;
}

// snap-*.ttkv files in `dir`, ascending by the LSN embedded in the name.
std::vector<std::pair<uint64_t, std::string>> ListSnapshots(const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> snaps;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return snaps;
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.starts_with("snap-") && name.ends_with(".ttkv")) {
      const uint64_t lsn = std::strtoull(name.c_str() + 5, nullptr, 10);
      if (lsn > 0) snaps.emplace_back(lsn, name);
    }
  }
  ::closedir(d);
  std::sort(snaps.begin(), snaps.end());
  return snaps;
}

// Deepest version timestamp a command carries, for restoring the monotonic
// clock after replay (0 = none).
TimeMicros MaxTimestampOf(const api::Command& cmd) {
  if (const auto* put = std::get_if<api::PutCmd>(&cmd.op)) return put->timestamp;
  if (const auto* del = std::get_if<api::DeleteCmd>(&cmd.op)) return del->timestamp;
  if (const auto* batch = std::get_if<api::BatchCmd>(&cmd.op)) {
    TimeMicros max_t = 0;
    for (const api::Command& sub : batch->commands) max_t = std::max(max_t, MaxTimestampOf(sub));
    return max_t;
  }
  return 0;
}

// Wrapper magic of the durable snapshot file format ("OCDS" header + op
// counter totals + embedded TTKV image). Distinct from the TTKV image's
// own magic, so a bare pre-v5 image is recognized by exclusion.
constexpr uint32_t kDurableSnapMagic = 0x5344434f;
constexpr uint8_t kDurableSnapVersion = 1;

}  // namespace

bool IsMutating(const api::Command& cmd) { return api::IsMutating(cmd); }

std::string EncodeDurableSnapshot(const DurableSnapshot& snap) {
  BinaryWriter w;
  w.u32(kDurableSnapMagic);
  w.u8(kDurableSnapVersion);
  w.u64(snap.puts);
  w.u64(snap.gets);
  w.u64(snap.deletes);
  w.str(snap.ttkv.Serialize());
  return w.take();
}

DurableSnapshot DecodeDurableSnapshot(const std::string& bytes) {
  DurableSnapshot snap;
  BinaryReader probe(bytes);
  if (bytes.size() >= 5 && probe.u32() == kDurableSnapMagic) {
    if (probe.u8() != kDurableSnapVersion) {
      throw ParseError("unknown durable snapshot version");
    }
    snap.puts = probe.u64();
    snap.gets = probe.u64();
    snap.deletes = probe.u64();
    snap.ttkv = TTKV::Deserialize(probe.str());
    if (!probe.at_end()) throw ParseError("trailing bytes after durable snapshot");
    return snap;
  }
  // Pre-wrapper file: the bytes are the TTKV image itself, totals unknown.
  snap.ttkv = TTKV::Deserialize(bytes);
  return snap;
}

DurableEngine::DurableEngine(std::string data_dir, InnerFactory factory, DurableOptions options)
    : dir_(std::move(data_dir)), options_(options), wal_(dir_, options.wal) {
  // 0. Sweep snapshots that died mid-write: a crash between creating
  //    snap-<lsn>.ttkv.tmp and its rename leaves the tmp behind, and later
  //    checkpoints use different LSNs so the name never gets reused.
  if (DIR* d = ::opendir(dir_.c_str())) {
    while (dirent* entry = ::readdir(d)) {
      const std::string_view name = entry->d_name;
      if (name.starts_with("snap-") && name.ends_with(".tmp")) {
        ::unlink((dir_ + "/" + std::string(name)).c_str());
      }
    }
    ::closedir(d);
  }

  // 1. Newest snapshot that deserializes cleanly anchors recovery. The
  //    walk tries EVERY retained snapshot, newest first / oldest last —
  //    with retained_snapshots == N, up to N corrupt generations fall
  //    back before recovery resorts to a bare log replay (see
  //    PersistTest.FallsBackThroughEveryRetainedSnapshot).
  TTKV snapshot;
  uint64_t snapshot_lsn = 0;
  const auto snaps = ListSnapshots(dir_);
  for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
    try {
      DurableSnapshot image = DecodeDurableSnapshot(ReadFile(dir_ + "/" + it->second));
      snapshot = std::move(image.ttkv);
      snapshot_lsn = it->first;
      baseline_puts_ = image.puts;
      baseline_gets_ = image.gets;
      baseline_deletes_ = image.deletes;
      break;
    } catch (const Error&) {
      // Torn or bit-flipped snapshot: keep walking back. With no valid
      // snapshot at all, the full log replays from an empty store.
    }
  }
  recovery_.snapshot_lsn = snapshot_lsn;
  recovery_.dropped_bytes = wal_.recovered_dropped_bytes();

  // 2. Restore the stamp clock past everything recovered (the snapshot
  //    here, replayed records below), so fresh engine-assigned stamps
  //    never collide with restored history.
  for (uint32_t id = 0; id < snapshot.num_keys(); ++id) {
    clock_.AdvanceTo(snapshot.record(id).last_modified());
  }

  // 3. Inner engine from the snapshot, then replay strictly PAST the
  //    snapshot seam: a record with lsn <= snapshot_lsn is already inside
  //    the snapshot, and applying it again would double-append versions
  //    (see PersistTest.SnapshotSeamIsIdempotent).
  inner_ = factory(std::move(snapshot));
  std::vector<WalRecord> records = wal_.TakeRecovered();
  // Refuse to serve a provably partial store: if the log's first surviving
  // record is beyond snapshot_lsn + 1, the records in between existed once
  // (checkpoint truncation deleted their segments trusting a snapshot that
  // is now unreadable) and nothing can resurrect them. Silently booting
  // without acknowledged writes would be worse than refusing to run.
  if (!records.empty() && records.front().lsn > snapshot_lsn + 1) {
    throw Error("unrecoverable data dir " + dir_ + ": log starts at record " +
                std::to_string(records.front().lsn) + " but no usable snapshot covers 1.." +
                std::to_string(records.front().lsn - 1) +
                " (every newer snapshot failed to load)");
  }
  if (records.empty() && snapshot_lsn == 0 && !snaps.empty()) {
    throw Error("unrecoverable data dir " + dir_ +
                ": snapshots exist but none loads, and no log records survive");
  }
  if (snapshot_lsn > wal_.last_lsn()) {
    // The log is entirely behind the snapshot (kernel crash under
    // fsync=off): every surviving record is covered. Restart numbering
    // past the snapshot so future records replay.
    recovery_.skipped += records.size();
    wal_.ResetTo(snapshot_lsn + 1);
  } else {
    for (WalRecord& record : records) {
      if (record.lsn <= snapshot_lsn) {
        ++recovery_.skipped;
        continue;
      }
      const api::Command cmd = api::DecodeCommand(record.payload);
      clock_.AdvanceTo(MaxTimestampOf(cmd));
      inner_->Apply(cmd);
      ++recovery_.replayed;
    }
  }
  checkpointed_lsn_ = snapshot_lsn;

  // 4. Background checkpointing, when any trigger is configured.
  if (options_.checkpoint_wal_bytes > 0 || options_.checkpoint_interval_seconds > 0) {
    checkpoint_thread_ = std::thread(&DurableEngine::CheckpointThread, this);
  }
}

DurableEngine::~DurableEngine() {
  // Deliberately NO parting checkpoint: a clean shutdown must exercise the
  // same replay path as a crash, or recovery bugs hide behind tidy exits.
  if (checkpoint_thread_.joinable()) {
    {
      const lockdep::guard lock(wake_mu_);
      stopping_ = true;
    }
    wake_cv_.notify_all();
    checkpoint_thread_.join();
  }
}

void DurableEngine::Stamp(api::Command* cmd) {
  if (auto* put = std::get_if<api::PutCmd>(&cmd->op)) {
    if (put->timestamp == 0) put->timestamp = clock_.Next();
    return;
  }
  if (auto* del = std::get_if<api::DeleteCmd>(&cmd->op)) {
    if (del->timestamp == 0) del->timestamp = clock_.Next();
    return;
  }
  if (auto* batch = std::get_if<api::BatchCmd>(&cmd->op)) {
    for (api::Command& sub : batch->commands) Stamp(&sub);
  }
}

void DurableEngine::MaybeWakeCheckpointer() {
  if (options_.checkpoint_wal_bytes > 0 &&
      wal_.appended_bytes() - checkpointed_wal_bytes_.load(std::memory_order_relaxed) >=
          options_.checkpoint_wal_bytes) {
    // Taken-then-dropped lock: without it the notify can land between the
    // checkpoint thread's predicate evaluation and its wait(), and the
    // last mutation before an idle period would leave the byte-triggered
    // checkpoint unscheduled forever.
    { const lockdep::guard lock(wake_mu_); }
    wake_cv_.notify_all();
  }
}

void DurableEngine::AddStatsBaseline(api::Result* result) const {
  if (auto* stats = std::get_if<api::StatsResult>(&result->op)) {
    stats->stats.puts += baseline_puts_;
    stats->stats.gets += baseline_gets_;
    stats->stats.deletes += baseline_deletes_;
    return;
  }
  if (auto* batch = std::get_if<api::BatchResult>(&result->op)) {
    for (api::Result& sub : batch->results) AddStatsBaseline(&sub);
  }
}

api::Result DurableEngine::Apply(const api::Command& cmd) {
  if (!api::IsMutating(cmd)) {
    api::Result result = inner_->Apply(cmd);
    AddStatsBaseline(&result);
    return result;
  }
  // Stamp and encode before the mutation lock: the record's bytes are
  // fixed here, mu_ only decides its position in the log/apply order.
  api::Command stamped = cmd;
  Stamp(&stamped);
  const std::string payload = api::EncodeCommand(stamped);
  // When a slow-op trace is armed for this request (the server did it),
  // attribute the WAL's share of the latency: append under mu_ plus the
  // group-commit wait in Sync.
  obs::OpTrace& trace = obs::OpTrace::Current();
  uint64_t lsn = 0;
  api::Result result;
  {
    const lockdep::guard lock(mu_);
    if (trace.active) {
      const auto t0 = std::chrono::steady_clock::now();
      lsn = wal_.Append(payload);
      trace.wal_us += MicrosSince(t0);
    } else {
      lsn = wal_.Append(payload);
    }
    result = inner_->Apply(stamped);
  }
  // The flush happens outside mu_ so queued writers group-commit: one
  // fdatasync acknowledges every record written before it started.
  if (trace.active) {
    const auto t0 = std::chrono::steady_clock::now();
    wal_.Sync(lsn);
    trace.wal_us += MicrosSince(t0);
  } else {
    wal_.Sync(lsn);
  }
  // Quorum gate (when configured): the ack is withheld until enough
  // followers cover this LSN; a gate timeout throws past us — the write
  // is durable locally but reported failed, see docs/REPLICATION.md.
  if (options_.commit_gate) options_.commit_gate(lsn);
  MaybeWakeCheckpointer();
  AddStatsBaseline(&result);
  return result;
}

std::vector<api::Result> DurableEngine::ApplyBatch(std::span<const api::Command> cmds) {
  bool any_mutating = false;
  for (const api::Command& cmd : cmds) any_mutating |= api::IsMutating(cmd);
  // Read-only batches never touch the log or the mutation lock.
  if (!any_mutating) {
    std::vector<api::Result> results = inner_->ApplyBatch(cmds);
    for (api::Result& result : results) AddStatsBaseline(&result);
    return results;
  }

  // Stamp + encode outside mu_ (see Apply).
  std::vector<api::Command> stamped(cmds.begin(), cmds.end());
  std::vector<std::string> payloads;
  payloads.reserve(stamped.size());
  for (api::Command& cmd : stamped) {
    if (!api::IsMutating(cmd)) continue;
    Stamp(&cmd);
    payloads.push_back(api::EncodeCommand(cmd));
  }
  obs::OpTrace& trace = obs::OpTrace::Current();
  uint64_t lsn = 0;
  std::vector<api::Result> results;
  {
    const lockdep::guard lock(mu_);
    const auto t0 = trace.active ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
    if (options_.wal.fsync == FsyncPolicy::kAlways) {
      // One flush per record: the worst-case policy the bench quantifies
      // against group commit. `lsn` tracks the last record for the commit
      // gate; the post-mu_ Sync it triggers is a no-op (already synced).
      for (const std::string& payload : payloads) {
        lsn = wal_.Append(payload);
        wal_.Sync(lsn);
      }
    } else {
      lsn = wal_.Append(std::span<const std::string>(payloads));
    }
    if (trace.active) trace.wal_us += MicrosSince(t0);
    results = inner_->ApplyBatch(std::span<const api::Command>(stamped));
  }
  if (lsn != 0) {
    if (trace.active) {
      const auto t0 = std::chrono::steady_clock::now();
      wal_.Sync(lsn);
      trace.wal_us += MicrosSince(t0);
    } else {
      wal_.Sync(lsn);
    }
    if (options_.commit_gate) options_.commit_gate(lsn);
  }
  MaybeWakeCheckpointer();
  for (api::Result& result : results) AddStatsBaseline(&result);
  return results;
}

DurableEngine::SnapshotImage DurableEngine::CaptureSnapshot() {
  DurableSnapshot image;
  SnapshotImage out;
  {
    // Same capture discipline as Checkpoint(): stall mutations so the
    // image is an exact LSN cut; serialize after release.
    const lockdep::guard lock(mu_);
    out.lsn = wal_.last_lsn();
    image.ttkv = api::Snapshot(*inner_);
    const EngineStats stats = api::Stats(*inner_);
    image.puts = baseline_puts_ + stats.puts;
    image.gets = baseline_gets_ + stats.gets;
    image.deletes = baseline_deletes_ + stats.deletes;
  }
  out.bytes = EncodeDurableSnapshot(image);
  return out;
}

void DurableEngine::ApplyReplicated(std::span<const WalRecord> records) {
  if (records.empty()) return;
  // Decode outside mu_: a payload that fails its decode is format skew
  // between leader and follower, and nothing may be appended.
  std::vector<api::Command> cmds;
  cmds.reserve(records.size());
  TimeMicros max_t = 0;
  for (const WalRecord& record : records) {
    cmds.push_back(api::DecodeCommand(record.payload));
    max_t = std::max(max_t, MaxTimestampOf(cmds.back()));
  }
  uint64_t last = 0;
  {
    const lockdep::guard lock(mu_);
    const uint64_t next = wal_.last_lsn() + 1;
    if (records.front().lsn != next) {
      throw Error("replication stream gap: got lsn " + std::to_string(records.front().lsn) +
                  ", local log expects " + std::to_string(next));
    }
    for (size_t i = 0; i < records.size(); ++i) {
      if (records[i].lsn != next + i) {
        throw Error("replication stream not contiguous at lsn " +
                    std::to_string(records[i].lsn));
      }
      wal_.Append(records[i].payload);
      // Same order as recovery replay: append, then apply. Inner results
      // are discarded exactly as replay discards them — a command the
      // leader logged-then-rejected rejects identically here.
      inner_->Apply(cmds[i]);
    }
    last = wal_.last_lsn();
  }
  // Keep the stamp clock ahead of replicated history so post-promotion
  // engine-assigned timestamps never collide with it.
  clock_.AdvanceTo(max_t);
  // The follower's durability ack: its next pull carries since_lsn ==
  // `last`, which must not outrun the local flush.
  wal_.Sync(last);
  MaybeWakeCheckpointer();
}

void DurableEngine::WriteSnapshotFile(uint64_t lsn, const std::string& bytes) {
  const std::string path = dir_ + "/" + SnapshotName(lsn);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw Error("cannot create snapshot: " + tmp + ": " + ErrnoString(errno));
  const char* data = bytes.data();
  size_t remaining = bytes.size();
  while (remaining > 0) {
    const ssize_t n = ::write(fd, data, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw Error("snapshot write failed: " + tmp + ": " + ErrnoString(errno));
    }
    data += n;
    remaining -= static_cast<size_t>(n);
  }
  // An unflushed snapshot must never be published: Checkpoint() truncates
  // WAL segments on the strength of this file, and trusting a failed fsync
  // here would delete the only other copy of those records (the same
  // fsyncgate discipline Wal::Sync applies to the log).
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw Error("snapshot fsync failed: " + tmp + ": " + ErrnoString(errno));
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw Error("snapshot rename failed: " + path + ": " + ErrnoString(errno));
  }
  FsyncDir(dir_);
}

void DurableEngine::Checkpoint() {
  const lockdep::guard checkpoint_lock(checkpoint_mu_);
  uint64_t lsn = 0;
  DurableSnapshot image;
  {
    // Stall mutations for the capture so the snapshot is an exact LSN cut;
    // serialization and file IO happen after release. The op-counter
    // totals ride the same cut, so a restart resumes counting where this
    // snapshot left off.
    const lockdep::guard lock(mu_);
    lsn = wal_.last_lsn();
    if (lsn == 0 || lsn == checkpointed_lsn_) return;
    image.ttkv = api::Snapshot(*inner_);
    const EngineStats stats = api::Stats(*inner_);
    image.puts = baseline_puts_ + stats.puts;
    image.gets = baseline_gets_ + stats.gets;
    image.deletes = baseline_deletes_ + stats.deletes;
  }
  WriteSnapshotFile(lsn, EncodeDurableSnapshot(image));
  checkpointed_lsn_ = lsn;
  checkpointed_wal_bytes_.store(wal_.appended_bytes(), std::memory_order_relaxed);

  // Prune snapshots beyond the retention window, then drop the WAL
  // segments the OLDEST retained snapshot covers — an older anchor plus
  // its replay tail stays available even if the newest snapshot corrupts.
  const size_t retain = std::max<size_t>(options_.retained_snapshots, 1);
  auto snaps = ListSnapshots(dir_);
  if (snaps.size() > retain) {
    for (size_t i = 0; i + retain < snaps.size(); ++i) {
      ::unlink((dir_ + "/" + snaps[i].second).c_str());
    }
    snaps.erase(snaps.begin(), snaps.end() - static_cast<ptrdiff_t>(retain));
  }
  if (snaps.size() >= retain) wal_.TruncateThrough(snaps.front().first);
}

void DurableEngine::CheckpointThread() {
  const auto bytes_due = [this] {
    return options_.checkpoint_wal_bytes > 0 &&
           wal_.appended_bytes() - checkpointed_wal_bytes_.load(std::memory_order_relaxed) >=
               options_.checkpoint_wal_bytes;
  };
  for (;;) {
    {
      // Explicit wait loops instead of predicate waits: the predicate
      // lambda would read stopping_ (guarded by wake_mu_) from a scope the
      // thread-safety analysis treats as lock-free.
      lockdep::relock_guard lock(wake_mu_);
      if (options_.checkpoint_interval_seconds > 0) {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration<double>(options_.checkpoint_interval_seconds);
        // Timeout falls through to Checkpoint(), same as the old wait_for.
        while (!stopping_ && !bytes_due() &&
               wake_cv_.wait_until(lock, deadline) != std::cv_status::timeout) {
        }
      } else {
        while (!stopping_ && !bytes_due()) wake_cv_.wait(lock);
      }
      if (stopping_) return;
    }
    Checkpoint();
  }
}

}  // namespace ocasta::persist
