// The typed Command/Result vocabulary of the TTKV engine API.
//
// Every operation the system supports — in process against ShardedTtkv
// (one shard or many) or remotely over the ocastad wire protocol — is one
// Command alternative, and every reply is one Result alternative.
// Backends implement api::Engine (engine.h) over this vocabulary, and the
// wire protocol is generated from it (codec.h), so adding an op means
// adding one struct here plus one codec entry instead of touching the
// server, the client, and every tool separately.
//
// BatchCmd is first-class: a batch of commands travels as ONE wire frame
// and backends may execute it with grouped locking (see
// ShardedTtkv::ApplyBatch). Batches are not transactions — each contained
// command succeeds or fails independently, and its Result lands at the
// same index in the BatchResult.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "api/types.h"
#include "clustering/hac.h"
#include "common/time.h"
#include "obs/metrics.h"
#include "ttkv/ttkv.h"
#include "ttkv/value.h"

namespace ocasta::api {

struct Command;

// --- Commands ---------------------------------------------------------------

// Liveness probe; replies OkResult.
struct PingCmd {};

// Records a write. timestamp == 0 means "backend-assigned": the engine
// stamps the op from a monotonicized wall clock. Explicit timestamps are
// clamped per key to be non-decreasing.
struct PutCmd {
  std::string key;
  Value value;
  TimeMicros timestamp = 0;
};

// Tombstones a key. The `force` bit makes the suppression policy explicit:
//   force == false (default): absent or already-tombstoned keys are
//     skipped — nothing is recorded, ExistedResult{false} comes back — so
//     churny blind deletes cannot bloat the store (ShardedTtkv's historic
//     behavior).
//   force == true: the tombstone is recorded unconditionally, even for a
//     key the engine has never seen (TTKV::record_delete's historic
//     behavior — trace replay needs every event, suppressed or not).
// ExistedResult reports whether a live value was tombstoned, under either
// policy.
struct DeleteCmd {
  std::string key;
  TimeMicros timestamp = 0;
  bool force = false;
};

// Latest live value; counts a read against the key (Table I accounting).
struct GetCmd {
  std::string key;
};

// Value as of `timestamp` (time travel); does not count a read.
struct GetAtCmd {
  std::string key;
  TimeMicros timestamp = 0;
};

// Full version history of one key, tombstones included.
struct HistoryCmd {
  std::string key;
};

// Keys with a live value matching `prefix`, sorted. Empty prefix = all.
struct ListKeysCmd {
  std::string prefix;
};

struct StatsCmd {};

// Full store contents as one merged TTKV.
struct SnapshotCmd {};

// Drops history older than `horizon` (see TTKV::CompactBefore).
struct CompactCmd {
  TimeMicros horizon = 0;
};

// Clusters all keys observed so far by co-modification.
struct ClusterNowCmd {
  double threshold_correlation = 2.0;
  Linkage linkage = Linkage::kComplete;
};

// Asks a daemon to stop. In-process engines treat it as a no-op (OkResult);
// the server recognizes it at the top level of a request — inside a batch
// it does nothing.
struct ShutdownCmd {};

// A sequence of commands applied as one unit (one wire frame, grouped
// shard locking). Not transactional: per-command Results, in order.
struct BatchCmd {
  std::vector<Command> commands;
};

// Process-wide metrics snapshot (docs/OBSERVABILITY.md): every counter /
// gauge / latency histogram registered in the serving process's
// obs::MetricsRegistry. Engines running without a registry reply with an
// empty snapshot rather than an error, so probes are always safe.
struct MetricsCmd {};

// (v5) One replication pull: "send me WAL records after since_lsn". The
// serving daemon replies with a ReplicateResult carrying either a run of
// log records starting at since_lsn + 1, or — when its log no longer
// reaches back that far — a full snapshot to bootstrap from. since_lsn is
// also the follower's durability acknowledgement: everything at or below
// it is appended AND fsynced on the follower, which is what quorum acks
// count (docs/REPLICATION.md). Only the durable daemon serves this;
// in-process engines reply ErrorResult.
struct ReplicateCmd {
  std::string follower_id;   // Stable identity for quorum tracking ("" = probe only).
  uint64_t since_lsn = 0;    // Highest LSN durably applied by the follower.
  uint32_t max_records = 0;  // Per-pull record cap; 0 = server default.
};

// (v5) Flips a follower daemon into the leader role: it stops pulling and
// starts accepting mutations at the next LSN of the replicated stream.
// Idempotent; a daemon that is already a leader replies OK.
struct PromoteCmd {};

using CommandOp =
    std::variant<PingCmd, PutCmd, DeleteCmd, GetCmd, GetAtCmd, HistoryCmd, ListKeysCmd,
                 StatsCmd, SnapshotCmd, CompactCmd, ClusterNowCmd, ShutdownCmd, BatchCmd,
                 MetricsCmd, ReplicateCmd, PromoteCmd>;

// Wrapper (rather than a bare variant alias) so BatchCmd can hold
// std::vector<Command> recursively. Implicitly constructible from any
// alternative: `api::Command cmd = api::PutCmd{...};`.
struct Command {
  CommandOp op;

  Command() = default;
  template <typename T>
    requires(!std::same_as<std::remove_cvref_t<T>, Command> &&
             std::constructible_from<CommandOp, T &&>)
  Command(T&& alternative) : op(std::forward<T>(alternative)) {}  // NOLINT(google-explicit-constructor)
};

// Short display name of a command's op ("PUT", "BATCH", ...).
const char* CommandName(const Command& cmd);

// The key a single-key command addresses, or nullptr for keyless /
// cross-shard ops. Used by the slow-op trace to attribute a request to a
// key hash + shard without re-decoding the frame.
const std::string* CommandKey(const Command& cmd);

// True when applying the command can change engine state: Put, Delete,
// Compact, or a Batch containing one (recursively). This is the shared
// definition of "must be logged / must go to the leader / must not be
// blindly retried": the durable engine WALs exactly these, a follower
// rejects exactly these with NotLeaderResult, and TtkvClient refuses to
// auto-resend exactly these once their request frame may have reached a
// server.
bool IsMutating(const Command& cmd);

// --- Results ----------------------------------------------------------------

struct Result;

struct OkResult {};  // Ping, Put, Shutdown.

// A command the backend rejected (malformed, empty key, engine error).
// Backends report per-command failures as ErrorResult instead of throwing,
// so one bad command inside a batch cannot abort its siblings; transport
// failures (WireError) still throw.
struct ErrorResult {
  std::string message;
};

struct ExistedResult {  // Delete.
  bool existed = false;
};

struct ValueResult {  // Get, GetAt. nullopt = absent/tombstoned.
  std::optional<Value> value;
};

struct HistoryResult {  // History. nullopt = key never recorded.
  std::optional<VersionedRecord> record;
};

struct KeysResult {  // ListKeys.
  std::vector<std::string> keys;
};

struct StatsResult {  // Stats.
  EngineStats stats;
};

struct SnapshotResult {  // Snapshot.
  TTKV snapshot;
};

struct CompactResult {  // Compact.
  uint64_t versions_dropped = 0;
};

struct ClustersResult {  // ClusterNow.
  std::vector<NamedCluster> clusters;
};

struct BatchResult {  // Batch: one Result per command, same order.
  std::vector<Result> results;
};

struct MetricsResult {  // Metrics. Empty snapshot = metrics not enabled.
  obs::MetricsSnapshot snapshot;
};

// (v5) A follower daemon's rejection of a mutating command, carrying the
// leader's address so clients can fail over without configuration.
// leader_host may be empty when the follower was started without knowing a
// client-reachable leader address.
struct NotLeaderResult {
  std::string leader_host;
  uint32_t leader_port = 0;
};

// (v5) One replication pull's worth of log, answered by a durable daemon.
// Exactly one of the two payloads is meaningful:
//   snapshot_lsn == 0 — `records` is a contiguous LSN run starting at the
//     request's since_lsn + 1 (possibly empty when the follower is caught
//     up). Each payload is the codec-encoded Command byte-identical to the
//     leader's WAL record, so applying it is indistinguishable from WAL
//     replay.
//   snapshot_lsn != 0 — the leader's log no longer reaches back to
//     since_lsn (checkpoint truncation); `snapshot` holds a durable
//     snapshot image (persist::EncodeDurableSnapshot format) covering
//     everything through snapshot_lsn. The follower must reseed from it.
struct ReplicateResult {
  struct Entry {
    uint64_t lsn = 0;
    std::string payload;  // Codec-encoded Command, exactly as logged.
  };
  uint64_t leader_lsn = 0;  // Serving daemon's last written LSN (lag = leader_lsn - applied).
  bool follower = false;    // True when the serving daemon is itself tailing a leader.
  uint64_t snapshot_lsn = 0;
  std::string snapshot;
  std::vector<Entry> records;
};

using ResultOp =
    std::variant<OkResult, ErrorResult, ExistedResult, ValueResult, HistoryResult, KeysResult,
                 StatsResult, SnapshotResult, CompactResult, ClustersResult, BatchResult,
                 MetricsResult, NotLeaderResult, ReplicateResult>;

struct Result {
  ResultOp op;

  Result() = default;
  template <typename T>
    requires(!std::same_as<std::remove_cvref_t<T>, Result> &&
             std::constructible_from<ResultOp, T &&>)
  Result(T&& alternative) : op(std::forward<T>(alternative)) {}  // NOLINT(google-explicit-constructor)
};

inline bool IsError(const Result& result) {
  return std::holds_alternative<ErrorResult>(result.op);
}

}  // namespace ocasta::api
