// DurableEngine — write-ahead logging + crash recovery over any api::Engine.
//
// A decorator: reads pass straight through to the inner engine, while every
// MUTATING command (Put, Delete, Compact, and any Batch containing one) is
// appended to the WAL before it is applied — acknowledged means logged, and
// logged means recoverable. The typed api::Command vocabulary is the log
// record: the same codec that frames the wire protocol frames the log, so
// replay is literally re-Apply()ing decoded commands.
//
// Determinism is the load-bearing property. Engine-assigned timestamps
// (timestamp == 0) are stamped HERE, from a lock-free monotonic clock,
// before logging, so the record replays to byte-identical state instead of
// re-stamping from a later wall clock. Mutations are serialized by one
// mutex across {append, apply}, making log order equal apply order — per-
// key clamping then replays identically whatever order stamps were drawn
// in. Everything expensive is hoisted out of that mutex: stamping and
// encoding happen before it, and the fdatasync (the slow part) after it,
// so concurrent writers group-commit — one disk flush acknowledges every
// writer queued behind it.
//
// Recovery (the constructor): load the newest snapshot that deserializes
// cleanly (snap-<lsn>.ttkv, falling back to older ones, then to empty),
// build the inner engine from it, then replay only WAL records with
// lsn > snapshot lsn — strictly after the snapshot seam, so a record the
// snapshot already contains is never double-applied — and truncate any torn
// tail (see Wal). Checkpoint() re-anchors the log: snapshot the inner
// engine at an exact LSN cut, retain the last `retained_snapshots`
// snapshots, and delete the WAL segments the oldest retained snapshot
// covers. A background thread checkpoints on a byte threshold and/or
// interval.
//
// Engine op counters (STATS puts/gets/deletes) are presented as TOTALS
// across restarts: each snapshot file carries the totals at its LSN cut
// (DurableSnapshot below), recovery seeds baselines from them, and replay
// re-derives the post-snapshot mutation counts. The cluster tracker is
// rebuilt from the same history (ShardedTtkv::ImportSnapshot feeds it the
// snapshot's writes, replay the rest), so CLUSTER_NOW answers as before
// the restart. What durability does NOT cover: read counters bumped by
// standalone GETs after the last checkpoint (reads are never logged). A
// command already applied in memory but not yet fsynced can be observed
// by a concurrent read before its ack — readers see at worst a write that
// a crash would un-ack, the usual WAL read-uncommitted window.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "api/engine.h"
#include "common/lockdep.h"
#include "common/time.h"
#include "persist/wal.h"

namespace ocasta::persist {

struct DurableOptions {
  WalOptions wal;
  // Checkpoint when this many WAL bytes accumulate since the last one
  // (0 = no size trigger).
  uint64_t checkpoint_wal_bytes = 64u << 20;
  // Periodic checkpoint interval (0 = no timer). Either trigger runs on the
  // background thread; with both at 0 no thread is started and only
  // explicit Checkpoint() calls anchor the log.
  double checkpoint_interval_seconds = 0.0;
  // Snapshots kept on disk. 2 means a corrupt newest snapshot still leaves
  // a recoverable older anchor (the WAL is only truncated past the OLDEST
  // retained snapshot).
  size_t retained_snapshots = 2;
  // Commit gate: called after a mutation's WAL flush with its last LSN,
  // BEFORE the result is returned (i.e. before the ack). The replication
  // layer uses it for --acks quorum: the gate blocks until enough
  // followers have durably acknowledged the LSN, and throws Error on
  // timeout — the write is then durable locally but NOT acknowledged to
  // the client. Must not call back into the engine. Null = no gate.
  std::function<void(uint64_t lsn)> commit_gate;
};

// The durable snapshot FILE format (snap-<lsn>.ttkv): an "OCDS" header
// carrying engine op-counter totals at the snapshot's LSN cut, wrapping
// the plain TTKV image. Persisting the totals closes the documented
// STATS gap where recovery silently reset puts/gets/deletes to zero
// (docs/DURABILITY.md). A file without the wrapper magic is read as a
// bare TTKV image with zero totals (pre-v5 data dirs stay loadable).
struct DurableSnapshot {
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t deletes = 0;
  TTKV ttkv;
};

std::string EncodeDurableSnapshot(const DurableSnapshot& snap);
// Throws ParseError/Error on a corrupt image (either format).
DurableSnapshot DecodeDurableSnapshot(const std::string& bytes);

// True for commands the WAL must record: Put, Delete, Compact, or a Batch
// containing any of them.
bool IsMutating(const api::Command& cmd);

class DurableEngine final : public api::Engine {
 public:
  // Builds the inner engine from recovered state (an empty TTKV on first
  // boot). The factory runs once, during construction.
  using InnerFactory = std::function<std::unique_ptr<api::Engine>(TTKV recovered)>;

  // Opens `data_dir` (creating it), recovers, and goes live. Throws Error
  // when the directory is unusable or a WAL record fails to decode after
  // passing its CRC (format skew — refusing to run beats silently dropping
  // acknowledged writes).
  DurableEngine(std::string data_dir, InnerFactory factory, DurableOptions options = {});
  ~DurableEngine() override;

  api::Result Apply(const api::Command& cmd) override OCASTA_EXCLUDES(mu_);
  std::vector<api::Result> ApplyBatch(std::span<const api::Command> cmds) override
      OCASTA_EXCLUDES(mu_);
  const char* backend_name() const override { return "durable"; }

  // Snapshot-anchors the log right now: writes snap-<last_lsn>.ttkv (tmp +
  // fsync + rename), prunes snapshots beyond retained_snapshots, truncates
  // covered WAL segments. Safe to call concurrently with traffic; mutation
  // writers stall while the state is captured (not while it is written).
  void Checkpoint() OCASTA_EXCLUDES(checkpoint_mu_, mu_);

  // --- Replication hooks (src/replica/, docs/REPLICATION.md) ---------------

  // An encoded DurableSnapshot at an exact LSN cut, for bootstrapping a
  // follower whose cursor the log no longer reaches. Mutations stall for
  // the capture only; encoding happens after release.
  struct SnapshotImage {
    uint64_t lsn = 0;
    std::string bytes;  // EncodeDurableSnapshot output.
  };
  SnapshotImage CaptureSnapshot() OCASTA_EXCLUDES(mu_);

  // Applies records shipped from a leader at their exact leader LSNs: each
  // payload is appended verbatim to the local WAL and the decoded command
  // applied to the inner engine — the live-tail twin of constructor
  // replay, so a promoted follower's state and log are byte-equivalent to
  // the leader's recovery. Records must be contiguous and start at
  // last_lsn() + 1 (throws Error on a gap — the follower must resync).
  // Returns after the local WAL flush, so the follower's next pull cursor
  // doubles as a durability ack.
  void ApplyReplicated(std::span<const WalRecord> records) OCASTA_EXCLUDES(mu_);

  // Recovery telemetry from construction time.
  struct RecoveryInfo {
    uint64_t snapshot_lsn = 0;   // 0 = booted from an empty store.
    uint64_t replayed = 0;       // WAL records applied on top of the snapshot.
    uint64_t skipped = 0;        // Records at or below the snapshot seam.
    uint64_t dropped_bytes = 0;  // Torn/corrupt bytes truncated from the log.
  };
  const RecoveryInfo& recovery() const { return recovery_; }

  api::Engine& inner() { return *inner_; }
  Wal& wal() { return wal_; }

 private:
  // Rewrites timestamp-0 Put/Delete stamps (recursively through batches)
  // from the monotonic clock. Lock-free; called before mu_.
  void Stamp(api::Command* cmd);
  void MaybeWakeCheckpointer() OCASTA_EXCLUDES(wake_mu_);

  void CheckpointThread();
  void WriteSnapshotFile(uint64_t lsn, const std::string& bytes);
  // Adds the persisted counter baselines (recursively, through batch
  // results) so STATS reports totals across restarts.
  void AddStatsBaseline(api::Result* result) const;

  const std::string dir_;
  const DurableOptions options_;

  // Serializes mutations across {append, apply} so replay order is apply
  // order. Reads and read-only batches bypass it entirely. Lockdep rank:
  // below every engine/WAL lock (mutations hold it while appending and
  // applying); only checkpoint_mu_ may be held when taking it.
  lockdep::ordered_mutex mu_{lockdep::kDurableMutateClass};
  Wal wal_;
  std::unique_ptr<api::Engine> inner_;
  StampClock clock_;
  RecoveryInfo recovery_;

  // Op-counter totals from the recovered snapshot's wrapper header,
  // written once during construction (the inner engine restarts its own
  // counters at zero; STATS adds these back). Replay past the snapshot
  // seam re-bumps the inner counters, so baseline + inner == true totals
  // for logged ops; standalone GETs after the last checkpoint are the one
  // documented loss (reads are never logged).
  uint64_t baseline_puts_ = 0;
  uint64_t baseline_gets_ = 0;
  uint64_t baseline_deletes_ = 0;

  // Serializes Checkpoint() bodies; taken BEFORE mu_ (lowest rank).
  lockdep::ordered_mutex checkpoint_mu_{lockdep::kDurableCheckpointClass};
  uint64_t checkpointed_lsn_ OCASTA_GUARDED_BY(checkpoint_mu_) = 0;
  // Read racily by writers to decide whether to wake the checkpointer.
  std::atomic<uint64_t> checkpointed_wal_bytes_{0};

  std::thread checkpoint_thread_;
  lockdep::ordered_mutex wake_mu_{lockdep::kDurableWakeClass};  // Leaf.
  lockdep::condvar wake_cv_;
  bool stopping_ OCASTA_GUARDED_BY(wake_mu_) = false;
};

}  // namespace ocasta::persist
