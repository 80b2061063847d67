// The sharded, thread-safe TTKV engine behind the ocastad daemon, and the
// repository's one in-process api::Engine: a single-store engine (the
// paper's one-store-per-recorder deployment) is ShardedTtkv(1).
//
// The paper's TTKV runs inside one Redis server and serves many recorders
// at once; the in-process TTKV is single-threaded. This engine bridges the
// two: N independent TTKV shards (keys hashed with FNV-1a), each guarded by
// its own std::shared_mutex, so writers to different shards never contend
// AND readers of the same shard don't either: GET/GET_AT/HISTORY (and
// read-only batch groups) take shared locks, writes take exclusive ones.
// GET's read accounting happens under the shared lock with relaxed atomic
// increments (TTKV::read_latest_shared); everything that reads those
// counters non-atomically (STATS, SNAPSHOT, serialization) takes the
// exclusive lock. EngineStats reports read and write lock acquisitions
// separately. A separate mutex-striped OnlineClusterTracker observes every
// write/delete so the daemon can answer CLUSTER_NOW queries without
// replaying history.
//
// ShardedTtkv implements api::Engine natively. Single-key commands lock
// their shard once; ApplyBatch is the batched fast path: consecutive
// single-key commands are grouped by shard and each shard is locked ONCE
// for its whole group, so a batch of K commands costs at most num_shards
// lock acquisitions instead of K (shard_lock_acquisitions() and
// EngineStats::lock_acquisitions expose the count; bench_loadgen --suite
// measures the win). Grouping preserves per-key order — equal keys hash to
// the same shard and apply in batch order — but not cross-key order
// between shards; cross-shard commands (STATS, SNAPSHOT, ...) act as
// barriers within a batch.
//
// Timestamps: callers may supply explicit microsecond timestamps (trace
// replay, deterministic tests) or pass 0 to have the engine stamp the
// operation from a monotonicized wall clock. Because concurrent writers
// race between stamping and applying, timestamps are clamped per key to be
// non-decreasing (equal timestamps are legal in TTKV — the paper's traces
// are second-quantized anyway).
//
// Clustering: writes append a small pending event to their own shard (no
// cross-shard lock on the write path); the shared tracker is fed lazily —
// on CLUSTER_NOW, or when a shard's buffer fills — by merging all pending
// events in timestamp order under the tracker lock.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/types.h"
#include "clustering/online.h"
#include "common/lockdep.h"
#include "common/time.h"
#include "obs/metrics.h"
#include "ttkv/ttkv.h"
#include "ttkv/value.h"

namespace ocasta {

class ShardedTtkv final : public api::Engine {
 public:
  // `metrics` (optional, must outlive the engine) turns on per-op apply
  // latency histograms and batch-size histograms, and moves the op
  // counters into the registry (docs/OBSERVABILITY.md). Null = off: the
  // apply path reads no clock and counts ops in engine-owned counters.
  explicit ShardedTtkv(size_t num_shards = 8, double cluster_window_seconds = 1.0,
                       obs::MetricsRegistry* metrics = nullptr);

  // --- api::Engine ----------------------------------------------------------
  api::Result Apply(const api::Command& cmd) override;
  std::vector<api::Result> ApplyBatch(std::span<const api::Command> cmds) override;
  const char* backend_name() const override { return "sharded"; }

  size_t num_shards() const { return shards_.size(); }
  size_t shard_of(const std::string& key) const;

  // Shard-lock acquisitions since construction (batching telemetry);
  // total = shared + exclusive.
  uint64_t shard_lock_acquisitions() const {
    return read_lock_acquisitions_.load(std::memory_order_relaxed) +
           write_lock_acquisitions_.load(std::memory_order_relaxed);
  }
  uint64_t read_lock_acquisitions() const {
    return read_lock_acquisitions_.load(std::memory_order_relaxed);
  }
  uint64_t write_lock_acquisitions() const {
    return write_lock_acquisitions_.load(std::memory_order_relaxed);
  }

  // Keys with a live (non-tombstoned) value matching `prefix`, sorted.
  std::vector<std::string> ListKeys(const std::string& prefix) const;

  EngineStats Stats() const;

  // Merged single-TTKV snapshot of all shards, records sorted by key so the
  // result is independent of shard count. Shards are locked one at a time:
  // the snapshot is per-shard consistent, not a global point-in-time cut.
  TTKV Snapshot() const;

  // TTKV::CompactBefore across every shard; returns total versions dropped.
  size_t CompactBefore(TimeMicros horizon);

  // Splits a merged snapshot back into shards — the inverse of Snapshot(),
  // used by crash recovery (persist/durable_engine.h), follower bootstrap
  // and shard-count migration. Every record lands in its key's shard, the
  // restored write history feeds the cluster tracker in time order (so
  // CLUSTER_NOW answers as it did before the restart), and the stamp
  // clock advances past the newest restored timestamp so fresh
  // engine-assigned stamps never collide with restored history. The keys
  // must be new to this engine (throws StoreError otherwise), so restore
  // into a fresh instance.
  void ImportSnapshot(const TTKV& snapshot);

  // Clusters all keys observed so far (see OnlineClusterTracker).
  std::vector<NamedCluster> ClusterNow(double threshold_correlation,
                                       Linkage linkage = Linkage::kComplete) const;

 private:
  // A write/delete awaiting the shared cluster tracker (values are not
  // needed for co-modification analysis).
  struct PendingEvent {
    TimeMicros timestamp = 0;
    bool is_delete = false;
    std::string key;
  };

  struct Shard {
    // Lock order (enforced by lockdep): tracker_mu_ may be held while
    // taking a shard mutex (DrainTracker's sweep); the reverse — taking
    // tracker_mu_ under a shard mutex — is a rank violation.
    mutable lockdep::ordered_shared_mutex mu{lockdep::kShardClass};
    TTKV ttkv OCASTA_GUARDED_BY(mu);
    mutable std::vector<PendingEvent> pending OCASTA_GUARDED_BY(mu);
  };

  // Count a shard-lock acquisition and hand back the shard's mutex for a
  // lockdep guard to take. Every shard lock in this engine goes through
  // these two so the lock telemetry stays honest; OCASTA_RETURN_CAPABILITY
  // teaches the analysis the returned mutex IS shard.mu, so a guard built
  // on the return value counts as holding shard.mu. Shared locks are legal
  // only for operations whose TTKV access is read-only or
  // atomic-counter-only (see read_latest_shared).
  lockdep::ordered_shared_mutex& WriteLock(const Shard& shard) const
      OCASTA_RETURN_CAPABILITY(shard.mu);
  lockdep::ordered_shared_mutex& ReadLock(const Shard& shard) const
      OCASTA_RETURN_CAPABILITY(shard.mu);

  // Engine op counts accumulated during a run of commands and flushed
  // with one atomic add per counter (instead of one contended RMW per op).
  struct OpCounts {
    uint64_t puts = 0;
    uint64_t gets = 0;
    uint64_t deletes = 0;
  };
  void FlushCounts(const OpCounts& counts);

  // Applies one mutating single-key command (Put/Delete) to its shard with
  // the shard mutex held exclusively; never throws. `stamp` is the
  // pre-reserved engine stamp used when the command's timestamp is 0.
  // `need_drain` is OR-ed when the shard's pending buffer crossed the
  // drain threshold (the caller drains after releasing the lock), and op
  // counts accumulate into `counts` (the caller flushes).
  api::Result ApplyWriteLocked(Shard& shard, const api::Command& cmd, TimeMicros stamp,
                               bool* need_drain, OpCounts* counts) OCASTA_REQUIRES(shard.mu);

  // Applies one read command (Get/GetAt/History) with the shard mutex held
  // at least shared (an exclusive hold satisfies it too — mixed batch
  // groups run reads under the exclusive lock); never throws.
  api::Result ApplyReadLocked(Shard& shard, const api::Command& cmd, OpCounts* counts)
      OCASTA_REQUIRES_SHARED(shard.mu);

  // One grouped single-key command of a batch: its shard, its index in the
  // batch, and its pre-reserved engine stamp. During collection `stamp` is
  // a flag (1 = the command needs an engine-assigned timestamp); the flush
  // rewrites it with the reserved stamp. `is_read` propagates shared-lock
  // eligibility so an all-reads shard group can take the shared lock.
  struct RunEntry {
    uint32_t shard = 0;
    uint32_t index = 0;
    TimeMicros stamp = 0;
    bool is_read = false;
  };

  // Apply one shard's group of a batch run with its mutex held (ApplyBatch
  // takes the lock once per group — the batching win). The exclusive
  // flavor dispatches each entry on is_read; the shared flavor is
  // reads-only by construction.
  void ApplyGroupExclusive(Shard& shard, std::span<const RunEntry> entries,
                           std::span<const api::Command> cmds,
                           std::vector<api::Result>* results, bool* need_drain,
                           OpCounts* counts) OCASTA_REQUIRES(shard.mu);
  void ApplyGroupShared(Shard& shard, std::span<const RunEntry> entries,
                        std::span<const api::Command> cmds,
                        std::vector<api::Result>* results, OpCounts* counts)
      OCASTA_REQUIRES_SHARED(shard.mu);

  // Moves every shard's pending events into the tracker, merged in
  // timestamp order. Takes tracker_mu_ then each shard mutex in turn;
  // writers never hold a shard mutex while taking tracker_mu_. This
  // ordering is machine-checked: lockdep ranks kTrackerClass below
  // kShardClass, so the inverted acquisition aborts in debug builds
  // (tests/lockdep_test.cpp proves it does).
  void DrainTracker() const OCASTA_EXCLUDES(tracker_mu_);

  // Feeds one write/delete to the tracker, clamped so it never moves the
  // tracker backwards.
  void FeedTrackerLocked(TimeMicros t, bool is_delete, std::string key) const
      OCASTA_REQUIRES(tracker_mu_);

  std::vector<std::unique_ptr<Shard>> shards_;
  StampClock clock_;
  mutable std::atomic<uint64_t> read_lock_acquisitions_{0};
  mutable std::atomic<uint64_t> write_lock_acquisitions_{0};

  // One counter per op: the registry's ocasta_engine_ops_total{op=...}
  // when metrics are on, else the engine-owned fallback below. FlushCounts
  // bumps it and Stats() reads it, so STATS and the exported metric are
  // the same number. A registry shared by two engines therefore sums
  // their counts — give each engine its own.
  obs::Counter own_puts_, own_gets_, own_deletes_;
  obs::Counter* ctr_puts_ = &own_puts_;
  obs::Counter* ctr_gets_ = &own_gets_;
  obs::Counter* ctr_deletes_ = &own_deletes_;

  // Optional instrumentation; null when metrics are off. The histogram
  // array is indexed by CommandOp variant index.
  obs::MetricsRegistry* metrics_ = nullptr;
  std::array<obs::LatencyHistogram*, std::variant_size_v<api::CommandOp>> op_hist_{};
  obs::LatencyHistogram* batch_hist_ = nullptr;

  mutable lockdep::ordered_mutex tracker_mu_{lockdep::kTrackerClass};
  mutable OnlineClusterTracker tracker_ OCASTA_GUARDED_BY(tracker_mu_);
  mutable TimeMicros tracker_last_ OCASTA_GUARDED_BY(tracker_mu_) = 0;
};

}  // namespace ocasta
