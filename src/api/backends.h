// Runtime backend selection: one factory mapping a --backend flag to an
// api::Engine implementation, so the CLI, the benches, and embedding code
// pick sharded (in-process) or remote without compile-time knowledge of
// either.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "api/engine.h"
#include "obs/metrics.h"

namespace ocasta::api {

struct BackendOptions {
  std::string backend = "remote";  // "sharded" | "remote".

  // sharded backend (1 shard = one TTKV behind one lock).
  size_t num_shards = 8;
  double cluster_window_seconds = 1.0;

  // remote backend.
  std::string host = "127.0.0.1";
  uint16_t port = 7341;

  // Durability (sharded backend). A non-empty data_dir wraps the
  // engine in persist::DurableEngine: write-ahead logged, crash-recovered
  // from <data_dir>/snap-*.ttkv + wal-*.log. The remote backend rejects it
  // — durability lives in the daemon, not the client.
  std::string data_dir = "";
  std::string fsync = "batch";  // "off" | "batch" | "always".
  size_t wal_segment_bytes = 64u << 20;
  uint64_t checkpoint_wal_bytes = 64u << 20;
  double checkpoint_interval_seconds = 0.0;
  // Passed through to DurableOptions::commit_gate (replication quorum
  // acks); only meaningful with a data_dir.
  std::function<void(uint64_t lsn)> commit_gate;

  // Optional instrumentation for the sharded engine AND (when
  // durable) the WAL; must outlive the engine. Null = metrics off. The
  // remote backend ignores it — the daemon owns its own registry.
  obs::MetricsRegistry* metrics = nullptr;
};

// Throws Error on an unknown backend name, an unknown fsync policy, or
// --data-dir combined with the remote backend.
std::unique_ptr<Engine> MakeEngine(const BackendOptions& options);

}  // namespace ocasta::api
