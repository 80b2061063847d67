// Engine-level result types shared by every TTKV backend (local, sharded,
// remote). These used to live in server/sharded_ttkv.h; they moved here so
// the api layer is the root of the dependency graph: backends include api,
// never the other way around.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "ttkv/ttkv.h"

namespace ocasta {

// Cross-shard aggregate statistics (TtkvStats plus engine counters).
struct EngineStats {
  TtkvStats ttkv;
  size_t num_shards = 0;
  // Op totals since engine construction, read from the engine's one
  // counter per op — the very ocasta_engine_ops_total{op=...} counters
  // the metrics registry exports, so the two agree by construction.
  // Freshness contract: counts are relaxed atomics flushed once per
  // command run rather than per command, so a STATS racing in-flight
  // traffic may miss ops still inside their run (each op is missing for
  // at most one run, never lost). On a QUIESCED engine (every prior Apply
  // returned, none in flight) the totals are exact (asserted by
  // ObsEngine.QuiescedStatsMatch). A durable engine adds the totals
  // persisted in its snapshot (docs/DURABILITY.md).
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t deletes = 0;
  // Shard-lock acquisitions since engine construction, total and split by
  // mode. The batched Apply path exists to push the total down: N
  // single-key commands cost N lock acquisitions applied one by one, but
  // at most num_shards when grouped into one BatchCmd (see bench_loadgen
  // --suite). Since the shared_mutex conversion, GET/GET_AT/HISTORY and
  // read-only batch groups take SHARED (reader) locks — concurrent readers
  // of one shard no longer serialize — while writes take exclusive locks;
  // the split shows which mode a workload actually exercises.
  uint64_t lock_acquisitions = 0;        // = read + write.
  uint64_t read_lock_acquisitions = 0;   // Shared-mode grabs.
  uint64_t write_lock_acquisitions = 0;  // Exclusive-mode grabs.
};

// ClusterNow output: clusters reference keys by name because the tracker's
// dense ids are engine-internal.
struct NamedCluster {
  std::vector<std::string> keys;
  uint64_t version_count = 0;
  TimeMicros last_modified = 0;
};

}  // namespace ocasta
