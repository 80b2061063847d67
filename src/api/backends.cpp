#include "api/backends.h"

#include "api/remote_engine.h"
#include "common/error.h"
#include "persist/durable_engine.h"
#include "server/sharded_ttkv.h"

namespace ocasta::api {

std::unique_ptr<Engine> MakeEngine(const BackendOptions& options) {
  if (options.backend != "sharded" && options.backend != "remote") {
    throw Error("unknown backend: " + options.backend +
                " (expected sharded|remote; a single-store engine is --backend sharded "
                "--shards 1)");
  }
  if (!options.data_dir.empty()) {
    if (options.backend == "remote") {
      throw Error("--data-dir requires the sharded backend "
                  "(the daemon owns durability for remote clients)");
    }
    persist::DurableOptions durable;
    durable.wal.fsync = persist::FsyncPolicyByName(options.fsync);
    durable.wal.segment_bytes = options.wal_segment_bytes;
    durable.wal.metrics = options.metrics;
    durable.checkpoint_wal_bytes = options.checkpoint_wal_bytes;
    durable.checkpoint_interval_seconds = options.checkpoint_interval_seconds;
    durable.commit_gate = options.commit_gate;
    // The wrapped engine is built from recovered state (the empty TTKV on
    // first boot).
    return std::make_unique<persist::DurableEngine>(
        options.data_dir,
        [options](TTKV recovered) -> std::unique_ptr<Engine> {
          auto engine = std::make_unique<ShardedTtkv>(
              options.num_shards, options.cluster_window_seconds, options.metrics);
          engine->ImportSnapshot(recovered);
          return engine;
        },
        durable);
  }
  if (options.backend == "sharded") {
    return std::make_unique<ShardedTtkv>(options.num_shards, options.cluster_window_seconds,
                                         options.metrics);
  }
  return std::make_unique<RemoteEngine>(options.host, options.port);
}

}  // namespace ocasta::api
