// The Time-Travel Key-Value store (TTKV).
//
// The paper implements the TTKV on top of Redis: each configuration key maps
// to a record holding its write/delete counts and a timestamped list of
// historical values, with deletions represented by a special tombstone
// value. This is a native C++ implementation of the same data model. It is
// the single source of truth for (a) the clustering algorithm's write
// stream, (b) the repair tool's historical cluster values, and (c) the
// Table I trace statistics.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time.h"
#include "ttkv/value.h"

namespace ocasta {

// One entry in a key's history. A deletion is recorded as a version with
// `is_delete == true` and a none Value (the paper's "special type of value
// ... used to represent deletions").
struct Version {
  TimeMicros timestamp = 0;
  Value value;
  bool is_delete = false;

  friend bool operator==(const Version&, const Version&) = default;
};

// Full history of one key.
struct VersionedRecord {
  std::string key;
  std::vector<Version> versions;  // Ordered by timestamp (stable for ties).
  uint64_t write_count = 0;       // Writes, excluding deletions.
  uint64_t delete_count = 0;
  uint64_t read_count = 0;

  // Value as of `t` (latest version with timestamp <= t). nullopt when the
  // key did not exist at `t`: never written yet, or tombstoned.
  std::optional<Value> value_at(TimeMicros t) const;

  // Latest live value; nullopt if never written or currently deleted.
  std::optional<Value> latest() const;

  TimeMicros first_modified() const { return versions.empty() ? 0 : versions.front().timestamp; }
  TimeMicros last_modified() const { return versions.empty() ? 0 : versions.back().timestamp; }

  size_t EstimatedBytes() const;
};

// Aggregate statistics, matching the columns of the paper's Table I.
struct TtkvStats {
  uint64_t reads = 0;
  uint64_t writes = 0;  // Includes deletions, as the trace logger counts them.
  uint64_t deletes = 0;
  size_t num_keys = 0;
  size_t size_bytes = 0;  // Estimated TTKV footprint ("Size" column).
};

// A single write event, flattened across keys and ordered by time — the
// input to the sliding-window co-modification analysis.
struct WriteEvent {
  TimeMicros timestamp = 0;
  uint32_t key_id = 0;  // Index into TTKV::key_names().
  bool is_delete = false;
};

class TTKV {
 public:
  TTKV() = default;

  // --- Recording (called by the loggers) -----------------------------------

  // Records a write of `key` at time `t`. Consecutive identical values are
  // still recorded: applications often rewrite unchanged settings on flush,
  // and the paper's flush-diff logger suppresses those upstream instead.
  void record_write(const std::string& key, Value value, TimeMicros t);

  // Records a deletion tombstone.
  void record_delete(const std::string& key, TimeMicros t);

  // Single-lookup fast paths for the engines' hot write path: clamp `t` to
  // the key's newest version (per-key monotonicity; concurrent writers race
  // between stamping and locking) and record, resolving the key's record
  // exactly ONCE instead of the contains + clamp + record triple lookup.
  void record_write_clamped(const std::string& key, Value value, TimeMicros t);
  void record_delete_clamped(const std::string& key, TimeMicros t);

  // Counts a read and returns the latest live value in one lookup; absent
  // keys return nullopt without creating a record.
  std::optional<Value> read_latest(const std::string& key);

  // read_latest for callers holding only a SHARED (reader) lock: the value
  // lookup is read-only and the read counters are bumped with relaxed
  // atomic increments (std::atomic_ref), so concurrent shared-lock readers
  // never race each other. Anything that reads those counters non-atomically
  // (stats(), Serialize(), record copies) must hold the exclusive lock —
  // see ShardedTtkv's locking discipline. const so shared-lock readers can
  // call it through a const access path: the only mutation is the atomic
  // counter bump, which goes through atomic_ref on a const_cast inside.
  std::optional<Value> read_latest_shared(const std::string& key) const;

  // Counts a read. Reads do not contribute versions; they only feed the
  // Table I statistics and the "key was accessed" inventory.
  void record_read(const std::string& key, TimeMicros t);

  // Bulk form of record_read: desktop traces contain millions of reads
  // (Table I), which are recorded as counters rather than events.
  void record_reads(const std::string& key, uint64_t count);

  // --- Queries (used by clustering and repair) -----------------------------

  size_t num_keys() const { return records_.size(); }
  bool contains(const std::string& key) const { return index_.count(key) != 0; }

  // Stable key-id assignment: ids are dense [0, num_keys) in first-seen
  // order and never change once assigned.
  uint32_t key_id(const std::string& key) const;
  const std::string& key_name(uint32_t id) const;
  const std::vector<std::string>& key_names() const { return names_; }

  const VersionedRecord& record(const std::string& key) const;
  const VersionedRecord& record(uint32_t id) const;

  // Record lookup without creating: nullptr when the key was never
  // recorded.
  const VersionedRecord* find(const std::string& key) const;

  std::optional<Value> latest(const std::string& key) const;
  std::optional<Value> value_at(const std::string& key, TimeMicros t) const;

  // All write/delete events across all keys, sorted by timestamp (stable by
  // recording order within a timestamp).
  std::vector<WriteEvent> write_events() const;

  // Keys that have at least `min_writes` recorded modifications. The paper
  // excludes never-modified keys from the search ("any key that has not
  // been modified from its initial value cannot cause a configuration
  // error").
  std::vector<uint32_t> modified_key_ids(uint64_t min_writes = 1) const;

  TtkvStats stats() const;

  // --- Maintenance ----------------------------------------------------------

  // Drops history older than `horizon` while preserving every query at or
  // after it: each key keeps its versions with timestamp >= horizon plus
  // the one version establishing its state just before the horizon.
  // Bounds a long-running recorder's footprint (Table I's multi-MB TTKVs)
  // at the cost of rollback depth. Lifetime counters are unaffected.
  // Returns the number of versions dropped.
  size_t CompactBefore(TimeMicros horizon);

  // Appends a fully-formed record, e.g. when merging per-shard stores into
  // one snapshot (see server/sharded_ttkv.h). The key must be new to this
  // store and the versions time-ordered; the record's read count folds into
  // the store-wide read total.
  void ImportRecord(VersionedRecord rec);

  // --- Persistence ----------------------------------------------------------

  // Binary snapshot of the full store (all histories + counters).
  std::string Serialize() const;
  static TTKV Deserialize(const std::string& bytes);

  friend bool operator==(const TTKV& a, const TTKV& b);

 private:
  VersionedRecord& mutable_record(const std::string& key);

  std::vector<VersionedRecord> records_;
  std::vector<std::string> names_;
  // Hash index: key → dense id. Nothing depends on index order (names_ and
  // records_ preserve first-seen order; ListKeys-style consumers sort), and
  // the O(1) lookup is the hot engine paths' single biggest cost.
  std::unordered_map<std::string, uint32_t> index_;
  uint64_t total_reads_ = 0;
};

}  // namespace ocasta
