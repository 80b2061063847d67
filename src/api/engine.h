// The abstract TTKV engine interface every backend implements.
//
// Two implementations ship today, plus a decorator:
//   ShardedTtkv     (server/sharded_ttkv.h)   — the in-process engine: N
//                                             lock-striped TTKV shards
//                                             (N = 1 is one TTKV, one lock);
//                                             the engine behind ocastad.
//   RemoteEngine    (api/remote_engine.h)     — a TtkvClient speaking the
//                                             wire protocol.
//   DurableEngine   (persist/durable_engine.h) — a WAL over ShardedTtkv.
// All of them answer the same Command vocabulary, so the CLI, the benches,
// RemoteStore, and every future layer (async server, replication, caching)
// are written once against Engine and pick a backend at runtime
// (api/backends.h).
#pragma once

#include <span>
#include <vector>

#include "api/command.h"
#include "common/error.h"

namespace ocasta::api {

class Engine {
 public:
  virtual ~Engine() = default;

  // Applies one command. Command-level failures come back as ErrorResult;
  // only infrastructure failures (lost connection, protocol corruption)
  // throw.
  virtual Result Apply(const Command& cmd) = 0;

  // Applies a sequence of commands, one Result per command in order. The
  // base implementation loops Apply; backends override it with a real fast
  // path (ShardedTtkv groups commands by shard and locks each shard once,
  // RemoteEngine ships the whole span as a single BATCH frame).
  virtual std::vector<Result> ApplyBatch(std::span<const Command> cmds);

  // Stable backend identifier ("sharded", "remote", "durable").
  virtual const char* backend_name() const = 0;
};

// --- Typed conveniences over Engine::Apply ----------------------------------
// Each helper unwraps the matching Result alternative; an ErrorResult is
// raised as StoreError, any other mismatch as Error (a backend bug or a
// corrupted reply).

void Ping(Engine& engine);
void Put(Engine& engine, const std::string& key, const Value& value, TimeMicros t = 0);
bool Delete(Engine& engine, const std::string& key, TimeMicros t = 0, bool force = false);
std::optional<Value> Get(Engine& engine, const std::string& key);
std::optional<Value> GetAt(Engine& engine, const std::string& key, TimeMicros t);
std::optional<VersionedRecord> History(Engine& engine, const std::string& key);
std::vector<std::string> ListKeys(Engine& engine, const std::string& prefix = "");
EngineStats Stats(Engine& engine);
TTKV Snapshot(Engine& engine);
uint64_t Compact(Engine& engine, TimeMicros horizon);
std::vector<NamedCluster> ClusterNow(Engine& engine, double threshold_correlation,
                                     Linkage linkage = Linkage::kComplete);
void Shutdown(Engine& engine);
obs::MetricsSnapshot Metrics(Engine& engine);

// Unwraps Result as T. ErrorResult → StoreError; wrong alternative → Error.
template <typename T>
T Expect(Result result, const char* what) {
  if (auto* err = std::get_if<ErrorResult>(&result.op)) {
    throw StoreError(std::string(what) + ": " + err->message);
  }
  if (auto* typed = std::get_if<T>(&result.op)) return std::move(*typed);
  throw Error(std::string("unexpected result type for ") + what);
}

}  // namespace ocasta::api
