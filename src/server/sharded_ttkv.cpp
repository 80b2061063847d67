#include "server/sharded_ttkv.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>

#include "clustering/engine.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/strings.h"

namespace ocasta {

ShardedTtkv::ShardedTtkv(size_t num_shards, double cluster_window_seconds,
                         obs::MetricsRegistry* metrics)
    : cluster_window_seconds_(cluster_window_seconds), metrics_(metrics) {
  if (num_shards == 0) throw Error("ShardedTtkv needs at least one shard");
  // Checked here so a bad window fails at startup, not at the first query.
  if (Seconds(cluster_window_seconds) < 0) {
    throw Error("co-modification window must be non-negative");
  }
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) shards_.push_back(std::make_unique<Shard>());
  if (metrics_ != nullptr) {
    ctr_puts_ = &metrics_->GetCounter("ocasta_engine_ops_total", {{"op", "put"}});
    ctr_gets_ = &metrics_->GetCounter("ocasta_engine_ops_total", {{"op", "get"}});
    ctr_deletes_ = &metrics_->GetCounter("ocasta_engine_ops_total", {{"op", "delete"}});
    auto hist = [this](const char* op) {
      return &metrics_->GetHistogram("ocasta_engine_apply_ns", {{"op", op}});
    };
    op_hist_[api::CommandOp(api::PutCmd{}).index()] = hist("put");
    op_hist_[api::CommandOp(api::GetCmd{}).index()] = hist("get");
    op_hist_[api::CommandOp(api::DeleteCmd{}).index()] = hist("delete");
    op_hist_[api::CommandOp(api::GetAtCmd{}).index()] = hist("get_at");
    op_hist_[api::CommandOp(api::HistoryCmd{}).index()] = hist("history");
    batch_hist_ = &metrics_->GetHistogram("ocasta_engine_batch_commands");
  }
}

size_t ShardedTtkv::shard_of(const std::string& key) const {
  return Fnv1a(key) % shards_.size();
}

lockdep::ordered_shared_mutex& ShardedTtkv::WriteLock(const Shard& shard) const {
  write_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  return shard.mu;
}

lockdep::ordered_shared_mutex& ShardedTtkv::ReadLock(const Shard& shard) const {
  read_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  return shard.mu;
}

void ShardedTtkv::FlushCounts(const OpCounts& counts) {
  if (counts.puts != 0) ctr_puts_->Inc(counts.puts);
  if (counts.gets != 0) ctr_gets_->Inc(counts.gets);
  if (counts.deletes != 0) ctr_deletes_->Inc(counts.deletes);
}

namespace {

// Shard routing key + stamp need of a single-key command, resolved with a
// single variant inspection; key == nullptr for cross-shard commands. The
// ONE table defining "single-key command" — Apply and ApplyBatch both
// route through it. `is_read` marks commands eligible for a SHARED shard
// lock (no TTKV mutation beyond atomic read counters).
struct KeyInfo {
  const std::string* key = nullptr;
  bool needs_stamp = false;
  bool is_read = false;
};

KeyInfo KeyInfoOf(const api::Command& cmd) {
  if (const auto* put = std::get_if<api::PutCmd>(&cmd.op)) {
    return {&put->key, put->timestamp == 0, false};
  }
  if (const auto* del = std::get_if<api::DeleteCmd>(&cmd.op)) {
    return {&del->key, del->timestamp == 0, false};
  }
  if (const auto* get = std::get_if<api::GetCmd>(&cmd.op)) return {&get->key, false, true};
  if (const auto* get_at = std::get_if<api::GetAtCmd>(&cmd.op)) {
    return {&get_at->key, false, true};
  }
  if (const auto* history = std::get_if<api::HistoryCmd>(&cmd.op)) {
    return {&history->key, false, true};
  }
  return {};
}

// Records one apply's latency into its op's histogram when it goes out of
// scope. Sampled 1-in-N (see obs::HotPathSampler): the clock reads cost
// more than the apply itself, while the op counters stay exact. A null
// histogram (metrics off) reads no clock.
class ApplyTimer {
 public:
  explicit ApplyTimer(obs::LatencyHistogram* hist) {
    thread_local obs::HotPathSampler sample;
    if (hist != nullptr && sample()) {
      hist_ = hist;
      t0_ = std::chrono::steady_clock::now();
    }
  }
  ~ApplyTimer() {
    if (hist_ == nullptr) return;
    hist_->Record(static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                            std::chrono::steady_clock::now() - t0_)
                                            .count()));
  }
  ApplyTimer(const ApplyTimer&) = delete;
  ApplyTimer& operator=(const ApplyTimer&) = delete;

 private:
  obs::LatencyHistogram* hist_ = nullptr;
  std::chrono::steady_clock::time_point t0_;
};

// Copies a record under a SHARED lock: read_count may be concurrently
// bumped by read_latest_shared's atomic increment, so it is loaded
// atomically instead of through the (racy) default copy constructor.
VersionedRecord CopyRecordShared(const VersionedRecord& rec) {
  VersionedRecord out;
  out.key = rec.key;
  out.versions = rec.versions;
  out.write_count = rec.write_count;
  out.delete_count = rec.delete_count;
  out.read_count = std::atomic_ref<uint64_t>(const_cast<VersionedRecord&>(rec).read_count)
                       .load(std::memory_order_relaxed);
  return out;
}

}  // namespace

std::vector<std::string> ShardedTtkv::ListKeys(const std::string& prefix) const {
  std::vector<std::string> keys;
  for (const auto& shard : shards_) {
    const lockdep::writer_guard lock(WriteLock(*shard));
    for (uint32_t id = 0; id < shard->ttkv.num_keys(); ++id) {
      const VersionedRecord& rec = shard->ttkv.record(id);
      if (StartsWith(rec.key, prefix) && rec.latest().has_value()) keys.push_back(rec.key);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

EngineStats ShardedTtkv::Stats() const {
  EngineStats out;
  out.num_shards = shards_.size();
  out.puts = ctr_puts_->value();
  out.gets = ctr_gets_->value();
  out.deletes = ctr_deletes_->value();
  out.read_lock_acquisitions = read_lock_acquisitions();
  out.write_lock_acquisitions = write_lock_acquisitions();
  out.lock_acquisitions = out.read_lock_acquisitions + out.write_lock_acquisitions;
  for (const auto& shard : shards_) {
    const lockdep::writer_guard lock(WriteLock(*shard));
    const TtkvStats s = shard->ttkv.stats();
    out.ttkv.reads += s.reads;
    out.ttkv.writes += s.writes;
    out.ttkv.deletes += s.deletes;
    out.ttkv.num_keys += s.num_keys;
    out.ttkv.size_bytes += s.size_bytes;
  }
  return out;
}

TTKV ShardedTtkv::Snapshot() const {
  std::vector<VersionedRecord> records;
  for (const auto& shard : shards_) {
    const lockdep::writer_guard lock(WriteLock(*shard));
    for (uint32_t id = 0; id < shard->ttkv.num_keys(); ++id) {
      records.push_back(shard->ttkv.record(id));
    }
  }
  std::sort(records.begin(), records.end(),
            [](const VersionedRecord& a, const VersionedRecord& b) { return a.key < b.key; });
  TTKV merged;
  for (VersionedRecord& rec : records) merged.ImportRecord(std::move(rec));
  return merged;
}

void ShardedTtkv::ImportSnapshot(const TTKV& snapshot) {
  // Group records by shard and lock each shard ONCE — the same shape as
  // ApplyBatch's grouped locking, and it keeps the lock_acquisitions
  // telemetry from starting N high on a freshly recovered engine.
  std::vector<std::vector<uint32_t>> by_shard(shards_.size());
  TimeMicros newest = 0;
  for (uint32_t id = 0; id < snapshot.num_keys(); ++id) {
    const VersionedRecord& rec = snapshot.record(id);
    by_shard[shard_of(rec.key)].push_back(id);
    newest = std::max(newest, rec.last_modified());
  }
  for (size_t s = 0; s < by_shard.size(); ++s) {
    if (by_shard[s].empty()) continue;
    Shard& shard = *shards_[s];
    const lockdep::writer_guard lock(WriteLock(shard));
    for (uint32_t id : by_shard[s]) shard.ttkv.ImportRecord(snapshot.record(id));
  }
  clock_.AdvanceTo(newest);
}

size_t ShardedTtkv::CompactBefore(TimeMicros horizon) {
  size_t dropped = 0;
  for (const auto& shard : shards_) {
    const lockdep::writer_guard lock(WriteLock(*shard));
    dropped += shard->ttkv.CompactBefore(horizon);
  }
  return dropped;
}

std::vector<NamedCluster> ShardedTtkv::ClusterNow(double threshold_correlation,
                                                  Linkage linkage) const {
  // Gather every shard's history into one key-id space (shard-major).
  // write_events() and key_names() only read, so shared locks suffice.
  std::vector<std::string> names;
  std::vector<WriteEvent> events;
  for (const auto& shard : shards_) {
    const lockdep::reader_guard lock(ReadLock(*shard));
    const auto base = static_cast<uint32_t>(names.size());
    const std::vector<std::string>& shard_names = shard->ttkv.key_names();
    names.insert(names.end(), shard_names.begin(), shard_names.end());
    for (WriteEvent event : shard->ttkv.write_events()) {
      event.key_id += base;
      events.push_back(event);
    }
  }
  // Renumber keys in name order: HAC breaks distance ties by key id, and
  // name order is the one id space every shard count shares.
  std::vector<uint32_t> by_name(names.size());
  std::iota(by_name.begin(), by_name.end(), 0u);
  std::sort(by_name.begin(), by_name.end(),
            [&](uint32_t a, uint32_t b) { return names[a] < names[b]; });
  std::vector<uint32_t> id_of(names.size());
  for (uint32_t id = 0; id < by_name.size(); ++id) id_of[by_name[id]] = id;
  for (WriteEvent& event : events) event.key_id = id_of[event.key_id];
  std::sort(events.begin(), events.end(), [](const WriteEvent& a, const WriteEvent& b) {
    return a.timestamp != b.timestamp ? a.timestamp < b.timestamp : a.key_id < b.key_id;
  });

  const ClusteringParams params{.window_seconds = cluster_window_seconds_,
                                .threshold_correlation = threshold_correlation,
                                .linkage = linkage};
  const ClusterSet set = ClusterKeys(events, names.size(), params);
  std::vector<NamedCluster> out;
  out.reserve(set.size());
  for (const KeyCluster& cluster : set.clusters()) {
    NamedCluster named;
    named.version_count = cluster.version_count;
    named.last_modified = cluster.last_modified;
    named.keys.reserve(cluster.keys.size());
    for (uint32_t id : cluster.keys) named.keys.push_back(names[by_name[id]]);
    out.push_back(std::move(named));
  }
  return out;
}

// --- api::Engine ------------------------------------------------------------

api::Result ShardedTtkv::ApplyWriteLocked(Shard& shard, const api::Command& cmd,
                                          TimeMicros stamp, OpCounts* counts) {
  try {
    // The clamped record calls resolve the key's record once; timestamps
    // older than the key's newest version are clamped up (concurrent
    // writers race between stamping and locking, and TTKV only needs
    // per-key order).
    if (const auto* put = std::get_if<api::PutCmd>(&cmd.op)) {
      if (put->key.empty()) throw StoreError("empty key");
      shard.ttkv.record_write_clamped(put->key, put->value,
                                      put->timestamp != 0 ? put->timestamp : stamp);
      ++counts->puts;
      return api::OkResult{};
    }
    if (const auto* del = std::get_if<api::DeleteCmd>(&cmd.op)) {
      if (del->key.empty()) throw StoreError("empty key");
      const VersionedRecord* rec = shard.ttkv.find(del->key);
      const bool existed = rec != nullptr && rec->latest().has_value();
      // Blind deletes record nothing unless forced (see api::DeleteCmd).
      if (!existed && !del->force) return api::ExistedResult{false};
      shard.ttkv.record_delete_clamped(del->key, del->timestamp != 0 ? del->timestamp : stamp);
      ++counts->deletes;
      return api::ExistedResult{existed};
    }
    throw Error("ApplyWriteLocked on a non-mutating command");
  } catch (const Error& e) {
    return api::ErrorResult{e.what()};
  }
}

api::Result ShardedTtkv::ApplyReadLocked(Shard& shard, const api::Command& cmd,
                                         OpCounts* counts) {
  try {
    if (const auto* get = std::get_if<api::GetCmd>(&cmd.op)) {
      ++counts->gets;
      // Safe under shared OR exclusive locks (atomic read accounting).
      return api::ValueResult{shard.ttkv.read_latest_shared(get->key)};
    }
    if (const auto* get_at = std::get_if<api::GetAtCmd>(&cmd.op)) {
      const VersionedRecord* rec = shard.ttkv.find(get_at->key);
      api::ValueResult res;
      if (rec != nullptr) res.value = rec->value_at(get_at->timestamp);
      return res;
    }
    if (const auto* history = std::get_if<api::HistoryCmd>(&cmd.op)) {
      const VersionedRecord* rec = shard.ttkv.find(history->key);
      if (rec == nullptr) return api::HistoryResult{};
      return api::HistoryResult{CopyRecordShared(*rec)};
    }
    throw Error("ApplyReadLocked on a non-read command");
  } catch (const Error& e) {
    return api::ErrorResult{e.what()};
  }
}

api::Result ShardedTtkv::Apply(const api::Command& cmd) {
  const KeyInfo info = KeyInfoOf(cmd);
  if (info.key != nullptr) {
    Shard& shard = *shards_[shard_of(*info.key)];
    OpCounts counts;
    api::Result result;
    {
      // Apply latency includes the shard-lock wait — that is the latency a
      // client actually observes under contention.
      const ApplyTimer timer(op_hist_[cmd.op.index()]);
      if (info.is_read) {
        const lockdep::reader_guard lock(ReadLock(shard));
        result = ApplyReadLocked(shard, cmd, &counts);
      } else {
        const lockdep::writer_guard lock(WriteLock(shard));
        const TimeMicros stamp = info.needs_stamp ? clock_.Next() : 0;
        result = ApplyWriteLocked(shard, cmd, stamp, &counts);
      }
    }
    FlushCounts(counts);
    return result;
  }

  try {
    if (std::holds_alternative<api::PingCmd>(cmd.op)) return api::OkResult{};
    if (std::holds_alternative<api::StatsCmd>(cmd.op)) return api::StatsResult{Stats()};
    if (const auto* list = std::get_if<api::ListKeysCmd>(&cmd.op)) {
      return api::KeysResult{ListKeys(list->prefix)};
    }
    if (std::holds_alternative<api::SnapshotCmd>(cmd.op)) {
      return api::SnapshotResult{Snapshot()};
    }
    if (const auto* compact = std::get_if<api::CompactCmd>(&cmd.op)) {
      return api::CompactResult{CompactBefore(compact->horizon)};
    }
    if (const auto* cluster = std::get_if<api::ClusterNowCmd>(&cmd.op)) {
      return api::ClustersResult{ClusterNow(cluster->threshold_correlation, cluster->linkage)};
    }
    // The engine has no connections to drain; the server recognizes
    // top-level SHUTDOWN itself.
    if (std::holds_alternative<api::ShutdownCmd>(cmd.op)) return api::OkResult{};
    if (std::holds_alternative<api::MetricsCmd>(cmd.op)) {
      api::MetricsResult res;
      if (metrics_ != nullptr) res.snapshot = metrics_->Snapshot();
      return res;
    }
    if (const auto* batch = std::get_if<api::BatchCmd>(&cmd.op)) {
      return api::BatchResult{ApplyBatch(std::span(batch->commands))};
    }
    // Replication ops are daemon-level: the server answers them before
    // engine dispatch when a WAL exists (see TtkvServer::HandleRequest).
    if (std::holds_alternative<api::ReplicateCmd>(cmd.op)) {
      throw Error("REPLICATE requires a durable daemon (--data-dir)");
    }
    if (std::holds_alternative<api::PromoteCmd>(cmd.op)) {
      throw Error("PROMOTE requires a daemon started as a follower");
    }
    throw Error("unhandled command");
  } catch (const Error& e) {
    return api::ErrorResult{e.what()};
  }
}

void ShardedTtkv::ApplyGroupExclusive(Shard& shard, std::span<const RunEntry> entries,
                                      std::span<const api::Command> cmds,
                                      std::vector<api::Result>* results, OpCounts* counts) {
  for (const RunEntry& entry : entries) {
    const api::Command& sub = cmds[entry.index];
    // Per-op time inside the group: the grouped lock is already held, so
    // this is pure apply cost (lock amortization is the batch's win and is
    // visible in ocasta_engine_batch_commands).
    const ApplyTimer timer(op_hist_[sub.op.index()]);
    // An exclusive hold satisfies the read path's shared requirement, so a
    // mixed group dispatches per entry.
    (*results)[entry.index] =
        entry.is_read ? ApplyReadLocked(shard, sub, counts)
                      : ApplyWriteLocked(shard, sub, entry.stamp, counts);
  }
}

void ShardedTtkv::ApplyGroupShared(Shard& shard, std::span<const RunEntry> entries,
                                   std::span<const api::Command> cmds,
                                   std::vector<api::Result>* results, OpCounts* counts) {
  for (const RunEntry& entry : entries) {
    const api::Command& sub = cmds[entry.index];
    const ApplyTimer timer(op_hist_[sub.op.index()]);
    (*results)[entry.index] = ApplyReadLocked(shard, sub, counts);
  }
}

std::vector<api::Result> ShardedTtkv::ApplyBatch(std::span<const api::Command> cmds) {
  if (batch_hist_ != nullptr) batch_hist_->Record(cmds.size());
  std::vector<api::Result> results(cmds.size());
  // The run of consecutive single-key commands currently being grouped.
  // All grouping work — hashing, stamp reservation, sorting — happens out
  // here, outside any lock; each shard mutex is then held only while its
  // own commands apply. The per-op contended atomics are amortized too:
  // one StampClock CAS reserves every engine-assigned timestamp in the run
  // (assigned in batch order, so per-key stamps stay monotonic), and op
  // counters flush once per run.
  std::vector<RunEntry> run;
  size_t stamps_needed = 0;

  const auto flush_run = [&] {
    if (run.empty()) return;
    OpCounts counts;
    if (stamps_needed > 0) {
      TimeMicros stamp = clock_.Next(stamps_needed);
      for (RunEntry& entry : run) {
        if (entry.stamp != 0) entry.stamp = stamp++;
      }
      stamps_needed = 0;
    }
    // Sorting on (shard, batch index) groups by shard while keeping
    // same-shard commands in original batch order (same key → same shard,
    // so per-key order is preserved) — equivalent to a stable sort by
    // shard, without stable_sort's temporary buffer allocation.
    std::sort(run.begin(), run.end(), [](const RunEntry& a, const RunEntry& b) {
      return a.shard != b.shard ? a.shard < b.shard : a.index < b.index;
    });
    for (size_t j = 0; j < run.size();) {
      const uint32_t sid = run[j].shard;
      Shard& shard = *shards_[sid];
      // A shard group whose commands are ALL reads takes the shared lock,
      // so read-heavy batches from different connections overlap on the
      // same shard; one write in the group forces exclusive.
      size_t end = j;
      bool all_reads = true;
      for (; end < run.size() && run[end].shard == sid; ++end) all_reads &= run[end].is_read;
      const std::span<const RunEntry> group(run.data() + j, end - j);
      if (all_reads) {
        const lockdep::reader_guard lock(ReadLock(shard));
        ApplyGroupShared(shard, group, cmds, &results, &counts);
      } else {
        const lockdep::writer_guard lock(WriteLock(shard));
        ApplyGroupExclusive(shard, group, cmds, &results, &counts);
      }
      j = end;
    }
    // Counters flush per run so a barrier command (e.g. STATS) observes
    // every grouped command before it.
    FlushCounts(counts);
    run.clear();
  };

  for (size_t i = 0; i < cmds.size(); ++i) {
    const KeyInfo info = KeyInfoOf(cmds[i]);
    if (info.key != nullptr) {
      run.push_back(RunEntry{.shard = static_cast<uint32_t>(shard_of(*info.key)),
                             .index = static_cast<uint32_t>(i),
                             .stamp = info.needs_stamp ? 1 : 0,
                             .is_read = info.is_read});
      stamps_needed += info.needs_stamp ? 1 : 0;
      continue;
    }
    // Cross-shard command: it must observe every grouped command before it
    // in the batch, so flush the run first (a barrier).
    flush_run();
    results[i] = Apply(cmds[i]);
  }
  flush_run();
  return results;
}

}  // namespace ocasta
