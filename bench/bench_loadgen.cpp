// bench_loadgen — multi-client load generator for the api::Engine backends.
//
// Spins up N client threads and drives a configurable PUT/GET mix over a
// keyspace chosen uniformly or Zipf-skewed (clients + warmup + measure
// phases, the DECS/DiStore load-generator shape). --backend picks the
// engine under test:
//   remote   boots a loopback TtkvServer in-process; every client owns one
//            RemoteEngine connection (protocol v3, BATCH frames when
//            --batch > 1)
//   sharded  all clients share one in-process ShardedTtkv (grouped shard
//            locking when --batch > 1; --shards 1 = one TTKV, one lock)
//   durable  a write-ahead-logged DurableEngine over ShardedTtkv in a
//            fresh temp dir (or --data-dir); --fsync off|batch|always
//            picks the durability policy under test
// After a warmup phase, the measure phase records per-op latency; the run
// emits BENCH JSON with ops/sec, p50/p99 latency per op kind, and the
// engine's shard-lock acquisition count.
//
// --connections N switches to the connection-scaling driver: one epoll
// thread multiplexing N nonblocking connections against an in-process
// daemon, each keeping --inflight single-command frames pipelined
// (inflight 1 = closed loop per connection, >1 = open loop). This is the
// measurement behind the event-loop server's headline: frames per
// syscall, not threads per client.
//
// --suite runs the committed BENCH_server.json matrix instead: remote and
// sharded backends at batch depth 1 and --batch (default 16) — the
// measurement behind the BatchCmd fast path — plus the connection-scaling
// rows (1..256 connections), the remote_batch1_vs_pr4 before/after of the
// epoll rewrite, and the durable backend at the batched depth under each
// fsync policy, quantifying what acked-means-durable costs against the
// in-memory sharded engine (group commit is what keeps fsync=batch close).
//
// --check is the CI regression gate: a short fresh remote batch=1 run
// compared against the committed --baseline JSON, failing on a >30% drop.
//
// --metrics attaches an obs::MetricsRegistry to the engine/daemon under
// test and records the server-side apply-latency percentiles (fetched via
// the METRICS op) in a "server" sub-object next to the client-side
// numbers. The suite always enables it for the backend rows, and its
// metrics_overhead section reports the enabled-vs-disabled throughput
// delta of the same pipelined remote workload (the acceptance bar for the
// observability work is <= 5%).
//
//   bench_loadgen --backend remote --clients 8 --keys 2000 --put-ratio 0.5
//                 --dist zipf --theta 0.99 --shards 8 --warmup-ms 300
//                 --measure-ms 1500 --batch 1 --value-bytes 64
//                 --fsync batch --json BENCH_server.json [--quiet] [--suite]
//                 [--connections N --inflight K --io-threads T] [--metrics]
//                 [--check --baseline BENCH_server.json]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>

#include <cstdlib>
#include <filesystem>

#include "api/backends.h"
#include "api/codec.h"
#include "common/io.h"
#include "parsers/json.h"
#include "server/wire.h"
#include "api/engine.h"
#include "persist/durable_engine.h"
#include "api/remote_engine.h"
#include "bench_util.h"
#include "common/error.h"
#include "common/flags.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "server/sharded_ttkv.h"
#include "workload/keydist.h"

namespace ocasta {
namespace {

struct LoadGenConfig {
  std::string backend = "remote";
  size_t clients = 8;
  size_t keys = 2000;
  double put_ratio = 0.5;
  KeyDist dist = KeyDist::kZipf;
  double theta = 0.99;
  size_t shards = 8;
  int warmup_ms = 300;
  int measure_ms = 1500;
  size_t batch = 1;        // Commands per BatchCmd (1 = single Apply per op).
  size_t value_bytes = 64;
  uint64_t seed = 42;
  bool suite = false;
  std::string json_path = "BENCH_server.json";
  // durable + replicated backends only.
  std::string fsync = "batch";
  std::string data_dir;  // Empty = a fresh temp dir, removed after the run.
  // replicated backend only: leader-side ack level, "leader" (ack after the
  // local WAL flush) or "quorum" (ack only after the attached follower has
  // durably applied the mutation's LSN). See docs/REPLICATION.md.
  std::string acks = "leader";
  // Connection-scaling driver (remote only): 0 = the classic per-thread
  // closed-loop clients; N = one epoll thread multiplexing N nonblocking
  // connections, each keeping `inflight` single-command frames pipelined
  // (inflight 1 = closed loop per connection; >1 = open loop).
  size_t connections = 0;
  size_t inflight = 4;
  size_t io_threads = 1;  // Daemon event-loop workers for remote runs.
  // --check: fast CI regression gate comparing a fresh remote batch=1 run
  // against the committed baseline JSON.
  bool check = false;
  std::string baseline_path = "BENCH_server.json";
  // --metrics: run the engine/daemon with an obs::MetricsRegistry attached
  // and record server-side apply-latency percentiles (fetched via the
  // METRICS op) next to the client-side numbers. The suite always enables
  // it for the backend rows and separately quantifies its cost in the
  // metrics_overhead section.
  bool metrics = false;
};

// PR-4's thread-per-connection daemon measured on the benchmark host right
// before the event-loop rewrite landed (16 closed-loop clients, batch 1,
// zipf 0.99 — the exact runs[0] configuration). Committed so the suite
// JSON carries its own before/after evidence.
constexpr double kPr4RemoteBatch1Baseline = 123270.0;

enum class Phase { kWarmup, kMeasure, kDone };

struct ClientResult {
  std::vector<double> put_us;  // Per-op latency, measure phase only.
  std::vector<double> get_us;
};

void RunClient(const LoadGenConfig& cfg, api::Engine& engine, size_t id,
               const std::vector<std::string>& key_names, const KeyChooser& chooser,
               const std::atomic<Phase>& phase, ClientResult* result) {
  Rng rng(cfg.seed * 1000003 + id);
  const Value payload(std::string(cfg.value_bytes, 'x'));
  api::BatchCmd batch;

  const auto key_name = [&](size_t index) -> const std::string& { return key_names[index]; };

  while (phase.load(std::memory_order_acquire) != Phase::kDone) {
    const bool measuring = phase.load(std::memory_order_acquire) == Phase::kMeasure;
    const bool is_put = rng.next_bool(cfg.put_ratio);
    const auto start = std::chrono::steady_clock::now();
    if (cfg.batch == 1) {
      if (is_put) {
        engine.Apply(api::PutCmd{key_name(chooser.Next(rng)), payload, 0});
      } else {
        engine.Apply(api::GetCmd{key_name(chooser.Next(rng))});
      }
    } else {
      batch.commands.clear();
      for (size_t i = 0; i < cfg.batch; ++i) {
        if (is_put) {
          batch.commands.push_back(api::PutCmd{key_name(chooser.Next(rng)), payload, 0});
        } else {
          batch.commands.push_back(api::GetCmd{key_name(chooser.Next(rng))});
        }
      }
      engine.ApplyBatch(std::span(batch.commands));
    }
    if (measuring) {
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start)
                            .count() /
                        static_cast<double>(cfg.batch);
      (is_put ? result->put_us : result->get_us).push_back(us);
    }
  }
}

double Percentile(std::vector<double>& sorted_in_place, double p) {
  if (sorted_in_place.empty()) return 0.0;
  std::sort(sorted_in_place.begin(), sorted_in_place.end());
  const size_t index = std::min(
      sorted_in_place.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_in_place.size() - 1) / 100.0 + 0.5));
  return sorted_in_place[index];
}

struct RunMetrics {
  std::string backend;
  std::string fsync;          // Durable/replicated runs only; empty otherwise.
  std::string acks;           // Replicated runs only; empty otherwise.
  uint64_t wal_records = 0;   // Durable runs: records logged.
  uint64_t wal_flushes = 0;   // Durable runs: disk flushes performed.
  uint64_t io_frames = 0;     // Remote runs: frames dispatched by the event loops.
  uint64_t io_wakeups = 0;    // Remote runs: epoll wakeups (frames/wakeup = pipelining).
  size_t batch = 1;
  double measure_seconds = 0;
  uint64_t total_ops = 0;
  uint64_t put_ops = 0;
  uint64_t get_ops = 0;
  double ops_per_sec = 0;
  double put_p50 = 0, put_p99 = 0, get_p50 = 0, get_p99 = 0;
  EngineStats stats;
  // Server-side engine apply-latency percentiles (µs) out of the obs
  // histograms, fetched via the METRICS op when --metrics is on. The gap
  // between these and the client-side numbers is wire + event-loop time.
  bool metrics_enabled = false;
  double srv_put_p50 = 0, srv_put_p99 = 0, srv_get_p50 = 0, srv_get_p99 = 0;
};

// Apply-latency percentile (µs) for one op label out of the snapshot's
// ocasta_engine_apply_ns histograms; 0 when absent.
struct ServerPercentiles {
  double p50 = 0, p99 = 0;
};
ServerPercentiles ApplyPercentilesUs(const obs::MetricsSnapshot& snap, const char* op) {
  for (const auto& h : snap.histograms) {
    if (h.name != "ocasta_engine_apply_ns") continue;
    for (const auto& [k, v] : h.labels) {
      if (k == "op" && v == op) return {h.stats.p50 / 1000.0, h.stats.p99 / 1000.0};
    }
  }
  return {};
}

RunMetrics RunOne(const LoadGenConfig& cfg) {
  // Durable-backend scratch dir, removed on every exit path (including a
  // MakeEngine throw). Declared before the engine so the WAL closes before
  // the directory disappears.
  struct ScratchDir {
    std::string path;
    ~ScratchDir() {
      if (!path.empty()) std::filesystem::remove_all(path);
    }
  } scratch, follower_scratch;
  // One registry per run under --metrics: handed to the daemon for the
  // remote backend, wired into the engine directly otherwise. Declared
  // before the engines so the instrument handles never dangle.
  std::shared_ptr<obs::MetricsRegistry> registry;
  if (cfg.metrics) registry = std::make_shared<obs::MetricsRegistry>();
  // The engine under test plus, for the remote backend, the daemon that
  // owns it. Per-client engines (one connection each) are created below.
  std::unique_ptr<TtkvServer> server;
  // Replicated backend only: a second daemon tailing the first's WAL.
  // Declared after `server` so it is destroyed first (its pull loop stops
  // before the leader it pulls from goes away).
  std::unique_ptr<TtkvServer> follower;
  std::unique_ptr<api::Engine> shared_engine;
  std::vector<std::unique_ptr<api::Engine>> client_engines(cfg.clients);

  if (cfg.backend == "remote") {
    server = std::make_unique<TtkvServer>(ServerOptions{.port = 0,
                                                        .num_shards = cfg.shards,
                                                        .cluster_window_seconds = 1.0,
                                                        .io_threads = cfg.io_threads,
                                                        .metrics = registry});
    server->Start();
    for (auto& engine : client_engines) {
      engine = std::make_unique<api::RemoteEngine>("127.0.0.1", server->port());
    }
  } else if (cfg.backend == "sharded") {
    shared_engine = std::make_unique<ShardedTtkv>(cfg.shards, 1.0, registry.get());
  } else if (cfg.backend == "durable") {
    // A fresh data dir per run unless pinned: recovering a previous run's
    // log would skew the measurement.
    std::string dir = cfg.data_dir;
    if (dir.empty()) {
      char tmpl[] = "/tmp/ocasta_loadgen_XXXXXX";
      if (::mkdtemp(tmpl) == nullptr) throw Error("mkdtemp failed for durable bench dir");
      dir = tmpl;
      scratch.path = dir;  // Removed after the run.
    }
    api::BackendOptions durable;
    durable.backend = "sharded";
    durable.num_shards = cfg.shards;
    durable.data_dir = dir;
    durable.fsync = cfg.fsync;
    durable.metrics = registry.get();
    shared_engine = api::MakeEngine(durable);
  } else if (cfg.backend == "replicated") {
    // The replication topology the --acks knob is about: a durable leader
    // daemon plus ONE live follower tailing its WAL over the wire.
    // acks=leader prices WAL shipping with local-flush acks; acks=quorum
    // additionally gates every mutation ack on the follower's durable
    // cursor — a pull round-trip plus the follower's own WAL flush
    // (docs/REPLICATION.md).
    if (cfg.acks != "leader" && cfg.acks != "quorum") {
      throw Error("--acks must be leader|quorum, got: " + cfg.acks);
    }
    char leader_tmpl[] = "/tmp/ocasta_loadgen_XXXXXX";
    if (::mkdtemp(leader_tmpl) == nullptr) throw Error("mkdtemp failed for leader bench dir");
    scratch.path = leader_tmpl;
    char follower_tmpl[] = "/tmp/ocasta_loadgen_XXXXXX";
    if (::mkdtemp(follower_tmpl) == nullptr) {
      throw Error("mkdtemp failed for follower bench dir");
    }
    follower_scratch.path = follower_tmpl;
    server = std::make_unique<TtkvServer>(ServerOptions{.port = 0,
                                                        .num_shards = cfg.shards,
                                                        .cluster_window_seconds = 1.0,
                                                        .data_dir = scratch.path,
                                                        .fsync = cfg.fsync,
                                                        .acks = cfg.acks,
                                                        .quorum_followers = 1,
                                                        .io_threads = cfg.io_threads,
                                                        .metrics = registry});
    server->Start();
    ServerOptions follower_options;
    follower_options.port = 0;
    follower_options.num_shards = cfg.shards;
    follower_options.cluster_window_seconds = 1.0;
    follower_options.data_dir = follower_scratch.path;
    follower_options.fsync = cfg.fsync;
    follower_options.follow_host = "127.0.0.1";
    follower_options.follow_port = server->port();
    follower = std::make_unique<TtkvServer>(follower_options);
    follower->Start();
    for (auto& engine : client_engines) {
      engine = std::make_unique<api::RemoteEngine>("127.0.0.1", server->port());
    }
  } else {
    throw Error("unknown backend: " + cfg.backend +
                " (expected sharded|remote|durable|replicated; a single-store engine is "
                "--backend sharded --shards 1)");
  }

  if (!bench::QuietFlag()) {
    std::string detail;
    if (cfg.backend == "durable") detail = " fsync=" + cfg.fsync;
    if (cfg.backend == "replicated") detail = " fsync=" + cfg.fsync + " acks=" + cfg.acks;
    std::fprintf(stderr,
                 "[loadgen] backend %s%s — %zu clients, %zu keys (%s), put-ratio %.2f, "
                 "batch %zu\n",
                 cfg.backend.c_str(), detail.c_str(), cfg.clients, cfg.keys,
                 KeyDistName(cfg.dist), cfg.put_ratio, cfg.batch);
  }

  // Shared read-only key table: per-op key-name construction would
  // otherwise dominate the in-process backends' measurement.
  std::vector<std::string> key_names;
  key_names.reserve(cfg.keys);
  for (size_t i = 0; i < cfg.keys; ++i) key_names.push_back("bench/key" + std::to_string(i));

  const KeyChooser chooser(cfg.dist, cfg.keys, cfg.theta);
  std::atomic<Phase> phase{Phase::kWarmup};
  std::vector<ClientResult> results(cfg.clients);
  std::vector<std::thread> threads;
  threads.reserve(cfg.clients);
  for (size_t i = 0; i < cfg.clients; ++i) {
    api::Engine& engine = client_engines[i] ? *client_engines[i] : *shared_engine;
    threads.emplace_back(RunClient, std::cref(cfg), std::ref(engine), i, std::cref(key_names),
                         std::cref(chooser), std::cref(phase), &results[i]);
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.warmup_ms));
  const auto measure_start = std::chrono::steady_clock::now();
  phase.store(Phase::kMeasure, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.measure_ms));
  phase.store(Phase::kDone, std::memory_order_release);
  const double measure_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - measure_start).count();
  for (std::thread& t : threads) t.join();

  RunMetrics m;
  m.backend = cfg.backend;
  if (cfg.backend == "durable" || cfg.backend == "replicated") m.fsync = cfg.fsync;
  if (cfg.backend == "replicated") m.acks = cfg.acks;
  m.batch = cfg.batch;
  // Engine-side truth (lock counts, op totals) comes from the engine that
  // actually executed the commands — the daemon's for the remote backend.
  m.stats = server ? api::Stats(server->engine()) : api::Stats(*shared_engine);
  if (registry != nullptr) {
    // Server-side view of the same run, fetched through the METRICS op —
    // over the wire for the remote backend (the connections are still up),
    // in-process otherwise.
    const obs::MetricsSnapshot snap = !client_engines.empty() && client_engines[0]
                                          ? api::Metrics(*client_engines[0])
                                          : api::Metrics(*shared_engine);
    const ServerPercentiles put_ns = ApplyPercentilesUs(snap, "put");
    const ServerPercentiles get_ns = ApplyPercentilesUs(snap, "get");
    m.metrics_enabled = true;
    m.srv_put_p50 = put_ns.p50;
    m.srv_put_p99 = put_ns.p99;
    m.srv_get_p50 = get_ns.p50;
    m.srv_get_p99 = get_ns.p99;
  }
  // The WAL under test is the shared engine's for the durable backend and
  // the leader daemon's for the replicated one.
  api::Engine* wal_owner = server ? &server->engine() : shared_engine.get();
  if (auto* durable = dynamic_cast<persist::DurableEngine*>(wal_owner)) {
    m.wal_records = durable->wal().last_lsn();
    m.wal_flushes = durable->wal().sync_count();
  }
  if (follower) follower->Stop();
  if (server) {
    m.io_frames = server->frames_dispatched();
    m.io_wakeups = server->loop_wakeups();
    server->Stop();
  }
  shared_engine.reset();  // Close the WAL; `scratch` then removes its dir.

  std::vector<double> put_us;
  std::vector<double> get_us;
  for (ClientResult& result : results) {
    put_us.insert(put_us.end(), result.put_us.begin(), result.put_us.end());
    get_us.insert(get_us.end(), result.get_us.begin(), result.get_us.end());
  }
  m.put_ops = static_cast<uint64_t>(put_us.size()) * cfg.batch;
  m.get_ops = static_cast<uint64_t>(get_us.size()) * cfg.batch;
  m.total_ops = m.put_ops + m.get_ops;
  m.measure_seconds = measure_seconds;
  m.ops_per_sec = static_cast<double>(m.total_ops) / measure_seconds;
  m.put_p50 = Percentile(put_us, 50);
  m.put_p99 = Percentile(put_us, 99);
  m.get_p50 = Percentile(get_us, 50);
  m.get_p99 = Percentile(get_us, 99);

  if (!bench::QuietFlag()) {
    std::fprintf(stderr,
                 "[loadgen] %s batch=%zu: %.2fs, %llu ops (%.0f ops/sec) — put p50 %.1fus "
                 "p99 %.1fus, get p50 %.1fus p99 %.1fus; %llu lock acquisitions"
                 " (%llu shared / %llu exclusive)\n",
                 m.backend.c_str(), m.batch, m.measure_seconds,
                 static_cast<unsigned long long>(m.total_ops), m.ops_per_sec, m.put_p50,
                 m.put_p99, m.get_p50, m.get_p99,
                 static_cast<unsigned long long>(m.stats.lock_acquisitions),
                 static_cast<unsigned long long>(m.stats.read_lock_acquisitions),
                 static_cast<unsigned long long>(m.stats.write_lock_acquisitions));
    if (m.io_wakeups > 0) {
      std::fprintf(stderr, "[loadgen] event loop: %llu frames over %llu wakeups (%.1f/wakeup)\n",
                   static_cast<unsigned long long>(m.io_frames),
                   static_cast<unsigned long long>(m.io_wakeups),
                   static_cast<double>(m.io_frames) / static_cast<double>(m.io_wakeups));
    }
  }
  return m;
}

void WriteRunJson(std::FILE* out, const RunMetrics& m, const char* indent) {
  std::fprintf(out, "%s{\"backend\": \"%s\", ", indent, m.backend.c_str());
  if (!m.fsync.empty()) {
    std::fprintf(out, "\"fsync\": \"%s\", \"wal_records\": %llu, \"wal_flushes\": %llu, ",
                 m.fsync.c_str(), static_cast<unsigned long long>(m.wal_records),
                 static_cast<unsigned long long>(m.wal_flushes));
  }
  if (!m.acks.empty()) std::fprintf(out, "\"acks\": \"%s\", ", m.acks.c_str());
  std::fprintf(out,
               "\"batch\": %zu,\n"
               "%s \"measure_seconds\": %.3f, \"total_ops\": %llu, \"ops_per_sec\": %.1f,\n"
               "%s \"put\": {\"ops\": %llu, \"p50_us\": %.1f, \"p99_us\": %.1f},\n"
               "%s \"get\": {\"ops\": %llu, \"p50_us\": %.1f, \"p99_us\": %.1f},\n"
               "%s \"engine\": {\"num_keys\": %zu, \"writes\": %llu, \"reads\": %llu, "
               "\"lock_acquisitions\": %llu, \"read_locks\": %llu, \"write_locks\": %llu}",
               m.batch, indent, m.measure_seconds,
               static_cast<unsigned long long>(m.total_ops), m.ops_per_sec, indent,
               static_cast<unsigned long long>(m.put_ops), m.put_p50, m.put_p99, indent,
               static_cast<unsigned long long>(m.get_ops), m.get_p50, m.get_p99, indent,
               m.stats.ttkv.num_keys, static_cast<unsigned long long>(m.stats.ttkv.writes),
               static_cast<unsigned long long>(m.stats.ttkv.reads),
               static_cast<unsigned long long>(m.stats.lock_acquisitions),
               static_cast<unsigned long long>(m.stats.read_lock_acquisitions),
               static_cast<unsigned long long>(m.stats.write_lock_acquisitions));
  if (m.metrics_enabled) {
    // Server-side apply-latency percentiles out of the obs histograms,
    // fetched via the METRICS op; client numbers above include wire +
    // event-loop time, these do not.
    std::fprintf(out,
                 ",\n%s \"server\": {\"put_p50_us\": %.1f, \"put_p99_us\": %.1f, "
                 "\"get_p50_us\": %.1f, \"get_p99_us\": %.1f}",
                 indent, m.srv_put_p50, m.srv_put_p99, m.srv_get_p50, m.srv_get_p99);
  }
  std::fprintf(out, "}");
}

void WriteConfigJson(std::FILE* out, const LoadGenConfig& cfg) {
  std::fprintf(out,
               "  \"config\": {\"clients\": %zu, \"keys\": %zu, \"put_ratio\": %.2f,\n"
               "             \"dist\": \"%s\", \"theta\": %.2f, \"shards\": %zu,\n"
               "             \"warmup_ms\": %d, \"measure_ms\": %d,\n"
               "             \"value_bytes\": %zu},\n",
               cfg.clients, cfg.keys, cfg.put_ratio, KeyDistName(cfg.dist), cfg.theta,
               cfg.shards, cfg.warmup_ms, cfg.measure_ms, cfg.value_bytes);
}

double LocksPerOp(const RunMetrics& m) {
  const uint64_t ops = m.stats.puts + m.stats.gets + m.stats.deletes;
  return ops == 0 ? 0.0 : static_cast<double>(m.stats.lock_acquisitions) /
                              static_cast<double>(ops);
}

// --- Connection-scaling driver ----------------------------------------------
// One epoll thread multiplexing N nonblocking connections against an
// in-process daemon. Every request frame carries ONE command (batch=1 on
// the wire); `inflight` frames ride each connection unacknowledged, so the
// daemon's event loop sees real pipelining — many frames per read() — which
// a thread-per-connection server could never exploit. Requests are drawn
// from a pre-encoded pool so the single driver thread spends its cycles on
// I/O, not on re-encoding the same PUT/GET mix.

struct ConnRunMetrics {
  size_t connections = 0;
  size_t inflight = 0;
  double measure_seconds = 0;
  uint64_t total_ops = 0;
  double ops_per_sec = 0;
  uint64_t errors = 0;          // Error replies + unexpected disconnects.
  uint64_t io_frames = 0;       // Daemon-side: frames dispatched.
  uint64_t io_wakeups = 0;      // Daemon-side: epoll wakeups.
};

ConnRunMetrics RunConnectionsOne(const LoadGenConfig& cfg, size_t connections,
                                 size_t inflight) {
  ConnRunMetrics m;
  m.connections = connections;
  m.inflight = inflight;

  TtkvServer server(ServerOptions{.port = 0,
                                  .num_shards = cfg.shards,
                                  .cluster_window_seconds = 1.0,
                                  .io_threads = cfg.io_threads,
                                  .max_conns = connections + 64,
                                  .metrics = cfg.metrics
                                                 ? std::make_shared<obs::MetricsRegistry>()
                                                 : nullptr});
  server.Start();

  // Pre-encoded single-command request frames (length prefix included).
  Rng rng(cfg.seed);
  const KeyChooser chooser(cfg.dist, cfg.keys, cfg.theta);
  const Value payload(std::string(cfg.value_bytes, 'x'));
  std::vector<std::string> pool;
  pool.reserve(4096);
  for (size_t i = 0; i < 4096; ++i) {
    const std::string key = "bench/key" + std::to_string(chooser.Next(rng));
    const std::string body = rng.next_bool(cfg.put_ratio)
                                 ? api::EncodeCommand(api::PutCmd{key, payload, 0})
                                 : api::EncodeCommand(api::GetCmd{key});
    std::string frame;
    frame.reserve(kFrameHeaderBytes + body.size());
    AppendFrameHeader(frame, static_cast<uint32_t>(body.size()));
    frame.append(body);
    pool.push_back(std::move(frame));
  }

  struct DriverConn {
    int fd = -1;
    std::string in;      // Unparsed reply bytes.
    size_t pos = 0;
    std::string out;     // Request bytes not yet accepted by the socket.
    size_t out_sent = 0;
    bool want_write = false;
    bool dead = false;
  };
  std::vector<DriverConn> conns(connections);

  const int epfd = ::epoll_create1(0);
  if (epfd < 0) throw Error("epoll_create1 failed in connection driver");

  // Connect + HELLO each connection synchronously (blocking), then go
  // nonblocking and register.
  for (size_t i = 0; i < connections; ++i) {
    DriverConn& conn = conns[i];
    conn.fd = ConnectTcp("127.0.0.1", server.port());
    SendFrame(conn.fd, api::EncodeHello(api::kProtocolVersion));
    const auto hello = RecvFrame(conn.fd);
    if (!hello.has_value()) throw Error("daemon closed connection during driver HELLO");
    api::DecodeHelloReply(*hello);
    const int flags = ::fcntl(conn.fd, F_GETFL, 0);
    ::fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<uint32_t>(i);
    ::epoll_ctl(epfd, EPOLL_CTL_ADD, conn.fd, &ev);
  }

  size_t pool_next = 0;
  const auto next_frame = [&]() -> const std::string& {
    const std::string& frame = pool[pool_next];
    pool_next = (pool_next + 1) % pool.size();
    return frame;
  };
  const auto update_interest = [&](size_t index) {
    DriverConn& conn = conns[index];
    epoll_event ev{};
    ev.events = EPOLLIN | (conn.want_write ? EPOLLOUT : 0u);
    ev.data.u32 = static_cast<uint32_t>(index);
    ::epoll_ctl(epfd, EPOLL_CTL_MOD, conn.fd, &ev);
  };
  uint64_t errors = 0;
  // Marks a connection dead AND removes it from the driver: leaving a
  // closed peer registered would make its EOF readiness level-trigger
  // every epoll_wait and busy-spin the driver for the rest of the run.
  // Every kill is an error (the daemon dropped us or the socket died).
  const auto kill_conn = [&](size_t index) {
    DriverConn& conn = conns[index];
    if (conn.dead) return;
    conn.dead = true;
    ++errors;
    ::epoll_ctl(epfd, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conn.fd = -1;
  };
  // Flush a connection's pending request bytes; arms EPOLLOUT on a partial
  // write so a kernel send-buffer stall never blocks the driver.
  const auto flush = [&](size_t index) {
    DriverConn& conn = conns[index];
    while (conn.out_sent < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_sent,
                               conn.out.size() - conn.out_sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          if (!conn.want_write) {
            conn.want_write = true;
            update_interest(index);
          }
          return;
        }
        kill_conn(index);
        return;
      }
      conn.out_sent += static_cast<size_t>(n);
    }
    conn.out.clear();
    conn.out_sent = 0;
    if (conn.want_write) {
      conn.want_write = false;
      update_interest(index);
    }
  };

  // Prime the pipeline.
  for (size_t i = 0; i < connections; ++i) {
    for (size_t k = 0; k < inflight; ++k) conns[i].out += next_frame();
    flush(i);  // A hard send error kills (and counts) the connection.
  }

  const auto start = std::chrono::steady_clock::now();
  const auto measure_start = start + std::chrono::milliseconds(cfg.warmup_ms);
  const auto deadline = measure_start + std::chrono::milliseconds(cfg.measure_ms);
  uint64_t measured = 0;
  char scratch[256 << 10];
  std::vector<epoll_event> events(512);

  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    const int n = ::epoll_wait(epfd, events.data(), static_cast<int>(events.size()), 100);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    const bool measuring = std::chrono::steady_clock::now() >= measure_start;
    for (int e = 0; e < n; ++e) {
      const size_t index = events[e].data.u32;
      DriverConn& conn = conns[index];
      if (conn.fd < 0) continue;  // Killed earlier (fd deregistered + closed).
      if ((events[e].events & EPOLLOUT) != 0) {
        flush(index);
        if (conn.fd < 0) continue;
      }
      if ((events[e].events & EPOLLIN) == 0) continue;
      ssize_t got;
      do {
        got = ::recv(conn.fd, scratch, sizeof(scratch), 0);
      } while (got < 0 && errno == EINTR);
      if (got < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) continue;
        kill_conn(index);
        continue;
      }
      if (got == 0) {  // Daemon closed on us mid-run: that's an error.
        kill_conn(index);
        continue;
      }
      conn.in.append(scratch, static_cast<size_t>(got));
      // Parse replies; each completed reply refills the pipeline by one.
      size_t completed = 0;
      while (conn.in.size() - conn.pos >= kFrameHeaderBytes) {
        const uint32_t len = ReadFrameHeader(conn.in.data() + conn.pos);
        if (conn.in.size() - conn.pos - kFrameHeaderBytes < len) break;
        const char tag = conn.in[conn.pos + kFrameHeaderBytes];
        if (len == 0 || tag == static_cast<char>(api::ResultTag::kError)) ++errors;
        conn.pos += kFrameHeaderBytes + static_cast<size_t>(len);
        ++completed;
      }
      if (conn.pos == conn.in.size()) {
        conn.in.clear();
        conn.pos = 0;
      } else if (conn.pos >= (64u << 10)) {
        // Continuously pipelined replies rarely land on a frame boundary;
        // without this the consumed prefix grows with total bytes received.
        conn.in.erase(0, conn.pos);
        conn.pos = 0;
      }
      if (measuring) measured += completed;
      for (size_t k = 0; k < completed; ++k) conn.out += next_frame();
      if (completed > 0) flush(index);
    }
  }
  const double measure_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - measure_start).count();

  for (DriverConn& conn : conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  ::close(epfd);
  m.io_frames = server.frames_dispatched();
  m.io_wakeups = server.loop_wakeups();
  server.Stop();

  m.total_ops = measured;
  m.measure_seconds = measure_seconds;
  m.ops_per_sec = measure_seconds > 0 ? static_cast<double>(measured) / measure_seconds : 0.0;
  m.errors = errors;
  if (!bench::QuietFlag()) {
    std::fprintf(stderr,
                 "[loadgen] connections=%zu inflight=%zu: %.2fs, %llu ops (%.0f ops/sec), "
                 "%llu errors; daemon %.1f frames/wakeup\n",
                 m.connections, m.inflight, m.measure_seconds,
                 static_cast<unsigned long long>(m.total_ops), m.ops_per_sec,
                 static_cast<unsigned long long>(m.errors),
                 m.io_wakeups > 0
                     ? static_cast<double>(m.io_frames) / static_cast<double>(m.io_wakeups)
                     : 0.0);
  }
  return m;
}

void WriteConnRunJson(std::FILE* out, const ConnRunMetrics& m, const char* indent) {
  std::fprintf(out,
               "%s{\"connections\": %zu, \"inflight\": %zu, \"measure_seconds\": %.3f, "
               "\"total_ops\": %llu, \"ops_per_sec\": %.1f, \"errors\": %llu, "
               "\"frames_per_wakeup\": %.1f}",
               indent, m.connections, m.inflight, m.measure_seconds,
               static_cast<unsigned long long>(m.total_ops), m.ops_per_sec,
               static_cast<unsigned long long>(m.errors),
               m.io_wakeups > 0
                   ? static_cast<double>(m.io_frames) / static_cast<double>(m.io_wakeups)
                   : 0.0);
}

int RunSingle(const LoadGenConfig& cfg) {
  if (cfg.connections > 0) {
    const ConnRunMetrics m = RunConnectionsOne(cfg, cfg.connections, cfg.inflight);
    std::FILE* out = std::fopen(cfg.json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", cfg.json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"benchmark\": \"server_loadgen_connections\",\n");
    WriteConfigJson(out, cfg);
    std::fprintf(out, "  \"run\":\n");
    WriteConnRunJson(out, m, "    ");
    std::fprintf(out, "\n}\n");
    std::fclose(out);
    if (!bench::QuietFlag()) std::fprintf(stderr, "[loadgen] wrote %s\n", cfg.json_path.c_str());
    return m.total_ops > 0 && m.errors == 0 ? 0 : 1;
  }
  const RunMetrics m = RunOne(cfg);
  std::FILE* out = std::fopen(cfg.json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", cfg.json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"server_loadgen\",\n");
  WriteConfigJson(out, cfg);
  std::fprintf(out, "  \"run\":\n");
  WriteRunJson(out, m, "    ");
  std::fprintf(out, "\n}\n");
  std::fclose(out);
  if (!bench::QuietFlag()) std::fprintf(stderr, "[loadgen] wrote %s\n", cfg.json_path.c_str());
  // Gate on the run having actually measured traffic, not on throughput:
  // a loaded CI machine must not flake the bench.
  return m.total_ops > 0 ? 0 : 1;
}

// --check: the CI regression gate. Reruns the committed baseline's remote
// batch=1 configuration (short measure window) and fails when fresh
// throughput drops more than 30% below the committed runs[0] number. The
// committed JSON was measured on the benchmark host, so treat a cross-host
// delta as environment, not regression — CI compares CI-to-committed
// trends, and the 30% margin absorbs runner noise.
int RunCheck(const LoadGenConfig& cfg) {
  double committed = 0.0;
  size_t committed_batch = 0;
  std::string committed_backend;
  try {
    const ConfigMap baseline = JsonCodec().Parse(ReadFile(cfg.baseline_path));
    const auto ops = baseline.find("runs/0/ops_per_sec");
    const auto batch = baseline.find("runs/0/batch");
    const auto backend = baseline.find("runs/0/backend");
    if (ops == baseline.end() || batch == baseline.end() || backend == baseline.end()) {
      throw Error("runs/0 metrics missing");
    }
    committed = ops->second.as_number();
    committed_batch = static_cast<size_t>(batch->second.as_int());
    committed_backend = backend->second.as_string();
  } catch (const Error& e) {
    std::fprintf(stderr, "check: cannot read baseline %s: %s\n", cfg.baseline_path.c_str(),
                 e.what());
    return 1;
  }
  if (committed_backend != "remote" || committed_batch != 1 || committed <= 0) {
    std::fprintf(stderr, "check: baseline runs[0] is not a remote batch=1 row\n");
    return 1;
  }

  LoadGenConfig one = cfg;
  one.backend = "remote";
  one.batch = 1;
  one.suite = false;
  const RunMetrics m = RunOne(one);
  const double ratio = m.ops_per_sec / committed;
  const bool ok = ratio >= 0.7;
  std::fprintf(stderr,
               "[loadgen] check: fresh remote batch=1 %.0f ops/sec vs committed %.0f "
               "(%.2fx) — %s\n",
               m.ops_per_sec, committed, ratio, ok ? "OK" : "REGRESSION (>30% below baseline)");
  return ok ? 0 : 1;
}

int RunSuite(const LoadGenConfig& cfg) {
  const size_t batched = cfg.batch > 1 ? cfg.batch : 16;
  std::vector<RunMetrics> runs;
  for (const char* backend : {"remote", "sharded"}) {
    for (const size_t batch : {size_t{1}, batched}) {
      LoadGenConfig one = cfg;
      one.backend = backend;
      one.batch = batch;
      // Suite rows carry the server-side histogram percentiles next to the
      // client-side numbers; the cost of that instrumentation is measured
      // separately below (metrics_overhead).
      one.metrics = true;
      runs.push_back(RunOne(one));
    }
  }
  // The durability cost matrix: the WAL-decorated sharded engine at the
  // batched depth under each fsync policy, against run[3] (the same engine,
  // same depth, no log) as the in-memory baseline. Group commit — one fsync
  // acknowledging a whole batch of writers — is what keeps "batch" close.
  for (const char* fsync : {"off", "batch", "always"}) {
    LoadGenConfig one = cfg;
    one.backend = "durable";
    one.fsync = fsync;
    one.batch = batched;
    // Always a fresh temp dir, even when --data-dir was passed: the rows
    // would otherwise recover and replay each other's logs.
    one.data_dir.clear();
    one.metrics = true;
    runs.push_back(RunOne(one));
  }
  // Replication ack-level matrix: the durable leader plus one live
  // follower at the batched depth, acked at the local flush vs at the
  // follower's durable cursor. APPENDED after the durable rows — the
  // summary lambdas above reference runs[] by fixed index, so new rows
  // must never shift 0..6.
  for (const char* acks : {"leader", "quorum"}) {
    LoadGenConfig one = cfg;
    one.backend = "replicated";
    one.acks = acks;
    one.batch = batched;
    one.data_dir.clear();
    one.metrics = true;
    runs.push_back(RunOne(one));
  }
  // Connection-scaling matrix: the same daemon under 1..256 pipelined
  // connections driven by the epoll client (single-command frames). This is
  // the event-loop rewrite's headline: thread-per-connection throughput was
  // flat-to-falling past a few dozen threads, the event loop holds steady
  // at hundreds of connections and multiplies frames per syscall.
  std::vector<ConnRunMetrics> conn_runs;
  for (const size_t connections : {size_t{1}, size_t{4}, size_t{16}, size_t{64}, size_t{256}}) {
    conn_runs.push_back(RunConnectionsOne(cfg, connections, cfg.inflight));
  }
  double pipelined_peak = 0.0;
  for (const ConnRunMetrics& m : conn_runs) pipelined_peak = std::max(pipelined_peak, m.ops_per_sec);

  // Metrics-overhead gate: the identical pipelined remote workload with
  // instrumentation fully off vs fully on (registry, per-op histograms, WAL
  // and loop counters live). Run-to-run scheduler noise on small runners
  // (±15% observed) dwarfs the effect being measured, so interleave four
  // reps per side and compare best-of-each — the best run is the one least
  // disturbed by the scheduler, which is the run that isolates the
  // instrumentation cost. The acceptance bar for the observability work is
  // a delta within 5%.
  const size_t overhead_conns = 16;
  LoadGenConfig metrics_off = cfg;
  metrics_off.metrics = false;
  LoadGenConfig metrics_on = cfg;
  metrics_on.metrics = true;
  double ops_off = 0.0;
  double ops_on = 0.0;
  for (int rep = 0; rep < 4; ++rep) {
    ops_off = std::max(ops_off,
                       RunConnectionsOne(metrics_off, overhead_conns, cfg.inflight).ops_per_sec);
    ops_on = std::max(ops_on,
                      RunConnectionsOne(metrics_on, overhead_conns, cfg.inflight).ops_per_sec);
  }
  const double overhead_pct = ops_off > 0 ? (ops_off - ops_on) / ops_off * 100.0 : 0.0;

  const RunMetrics& remote_single = runs[0];
  const RunMetrics& remote_batched = runs[1];
  const RunMetrics& sharded_single = runs[2];
  const RunMetrics& sharded_batched = runs[3];
  const double sharded_speedup =
      sharded_single.ops_per_sec > 0 ? sharded_batched.ops_per_sec / sharded_single.ops_per_sec
                                     : 0.0;
  const double remote_speedup =
      remote_single.ops_per_sec > 0 ? remote_batched.ops_per_sec / remote_single.ops_per_sec
                                    : 0.0;
  // Durable throughput relative to the in-memory sharded engine (1.0 =
  // free durability; >= 0.5 = "within 2x").
  const auto durable_relative = [&](size_t index) {
    return sharded_batched.ops_per_sec > 0
               ? runs[index].ops_per_sec / sharded_batched.ops_per_sec
               : 0.0;
  };
  // What group commit specifically buys: the disk-flushing policies
  // relative to the same WAL stack with the log left in the page cache
  // (fsync=off). This isolates the flush cost from the logging cost.
  const RunMetrics& durable_off = runs[4];
  const auto flush_relative = [&](size_t index) {
    return durable_off.ops_per_sec > 0 ? runs[index].ops_per_sec / durable_off.ops_per_sec
                                       : 0.0;
  };
  // What replication costs, in two steps: shipping the WAL to a live
  // follower while still acking at the local flush (runs[7] vs runs[5],
  // the identical durable stack with no follower attached), and then
  // gating every ack on the follower's durable cursor (runs[8] vs
  // runs[7] — the quorum round-trip itself).
  const RunMetrics& repl_leader_acks = runs[7];
  const RunMetrics& repl_quorum_acks = runs[8];
  const RunMetrics& durable_batch = runs[5];
  const double leader_acks_vs_durable =
      durable_batch.ops_per_sec > 0 ? repl_leader_acks.ops_per_sec / durable_batch.ops_per_sec
                                    : 0.0;
  const double quorum_vs_leader_acks =
      repl_leader_acks.ops_per_sec > 0
          ? repl_quorum_acks.ops_per_sec / repl_leader_acks.ops_per_sec
          : 0.0;

  std::FILE* out = std::fopen(cfg.json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", cfg.json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"server_loadgen_suite\",\n");
  WriteConfigJson(out, cfg);
  std::fprintf(out, "  \"runs\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    WriteRunJson(out, runs[i], "    ");
    std::fprintf(out, i + 1 < runs.size() ? ",\n" : "\n");
  }
  std::fprintf(out, "  ],\n  \"connection_scaling\": {\"inflight\": %zu, \"rows\": [\n",
               cfg.inflight);
  for (size_t i = 0; i < conn_runs.size(); ++i) {
    WriteConnRunJson(out, conn_runs[i], "    ");
    std::fprintf(out, i + 1 < conn_runs.size() ? ",\n" : "\n");
  }
  std::fprintf(out,
               "  ]},\n"
               "  \"batch_depth\": %zu,\n"
               "  \"remote_batch_speedup\": %.2f,\n"
               "  \"sharded_batch_speedup\": %.2f,\n"
               "  \"sharded_locks_per_op\": {\"batch_1\": %.3f, \"batch_%zu\": %.3f},\n"
               "  \"remote_batch1_vs_pr4\": {\"pr4_thread_per_conn_ops_per_sec\": %.1f,\n"
               "     \"closed_loop_ops_per_sec\": %.1f, \"closed_loop_speedup\": %.2f,\n"
               "     \"pipelined_peak_ops_per_sec\": %.1f, \"pipelined_speedup\": %.2f},\n"
               "  \"durable_vs_sharded_batched\": "
               "{\"off\": %.2f, \"batch\": %.2f, \"always\": %.2f},\n"
               "  \"durable_vs_fsync_off\": {\"batch\": %.2f, \"always\": %.2f},\n"
               "  \"replication_acks\": {\"leader_ops_per_sec\": %.1f, "
               "\"quorum_ops_per_sec\": %.1f,\n"
               "     \"leader_acks_vs_durable_batch\": %.2f, "
               "\"quorum_vs_leader_acks\": %.2f},\n"
               "  \"metrics_overhead\": {\"connections\": %zu, \"inflight\": %zu,\n"
               "     \"ops_per_sec_disabled\": %.1f, \"ops_per_sec_enabled\": %.1f,\n"
               "     \"delta_pct\": %.2f}\n"
               "}\n",
               batched, remote_speedup, sharded_speedup, LocksPerOp(sharded_single), batched,
               LocksPerOp(sharded_batched), kPr4RemoteBatch1Baseline,
               remote_single.ops_per_sec,
               remote_single.ops_per_sec / kPr4RemoteBatch1Baseline, pipelined_peak,
               pipelined_peak / kPr4RemoteBatch1Baseline, durable_relative(4),
               durable_relative(5), durable_relative(6), flush_relative(5),
               flush_relative(6), repl_leader_acks.ops_per_sec, repl_quorum_acks.ops_per_sec,
               leader_acks_vs_durable, quorum_vs_leader_acks, overhead_conns, cfg.inflight,
               ops_off, ops_on, overhead_pct);
  std::fclose(out);
  if (!bench::QuietFlag()) {
    std::fprintf(stderr,
                 "[loadgen] suite: remote batch speedup %.2fx, sharded batch speedup %.2fx "
                 "(locks/op %.3f -> %.3f); durable vs in-memory: off %.2fx, batch %.2fx, "
                 "always %.2fx; flush cost vs fsync=off: batch %.2fx, always %.2fx; "
                 "wrote %s\n",
                 remote_speedup, sharded_speedup, LocksPerOp(sharded_single),
                 LocksPerOp(sharded_batched), durable_relative(4), durable_relative(5),
                 durable_relative(6), flush_relative(5), flush_relative(6),
                 cfg.json_path.c_str());
    std::fprintf(stderr,
                 "[loadgen] replication acks: leader %.0f ops/sec (%.2fx of durable batch), "
                 "quorum %.0f (%.2fx of leader acks)\n",
                 repl_leader_acks.ops_per_sec, leader_acks_vs_durable,
                 repl_quorum_acks.ops_per_sec, quorum_vs_leader_acks);
    std::fprintf(stderr,
                 "[loadgen] metrics overhead (%zu conns, inflight %zu): %.0f ops/sec off vs "
                 "%.0f on — %.2f%%\n",
                 overhead_conns, cfg.inflight, ops_off, ops_on, overhead_pct);
  }
  for (const RunMetrics& m : runs) {
    if (m.total_ops == 0) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ocasta

int main(int argc, char** argv) {
  using namespace ocasta;
  const Args args = Args::Parse(argc, argv);
  if (args.Has("quiet")) bench::SetQuiet(true);
  LoadGenConfig cfg;
  cfg.backend = args.Get("backend", "remote");
  cfg.clients = static_cast<size_t>(args.GetInt("clients", 8));
  cfg.keys = static_cast<size_t>(args.GetInt("keys", 2000));
  cfg.put_ratio = args.GetDouble("put-ratio", 0.5);
  cfg.theta = args.GetDouble("theta", 0.99);
  cfg.shards = static_cast<size_t>(args.GetInt("shards", 8));
  cfg.warmup_ms = static_cast<int>(args.GetInt("warmup-ms", 300));
  cfg.measure_ms = static_cast<int>(args.GetInt("measure-ms", 1500));
  cfg.batch = static_cast<size_t>(args.GetInt("batch", 1));
  cfg.value_bytes = static_cast<size_t>(args.GetInt("value-bytes", 64));
  cfg.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
  cfg.suite = args.Has("suite");
  cfg.json_path = args.Get("json", "BENCH_server.json");
  cfg.fsync = args.Get("fsync", "batch");
  cfg.data_dir = args.Get("data-dir", "");
  cfg.acks = args.Get("acks", "leader");
  cfg.connections = static_cast<size_t>(args.GetInt("connections", 0));
  cfg.inflight = static_cast<size_t>(args.GetInt("inflight", 4));
  cfg.io_threads = static_cast<size_t>(args.GetInt("io-threads", 1));
  cfg.check = args.Has("check");
  cfg.baseline_path = args.Get("baseline", "BENCH_server.json");
  cfg.metrics = args.Has("metrics");
  try {
    cfg.dist = KeyDistByName(args.Get("dist", "zipf"));
    if (cfg.clients == 0 || cfg.batch == 0) throw Error("--clients and --batch must be >= 1");
    if (cfg.put_ratio < 0.0 || cfg.put_ratio > 1.0) throw Error("--put-ratio must be in [0,1]");
    if (cfg.inflight == 0) throw Error("--inflight must be >= 1");
    if (cfg.connections > 1024) throw Error("--connections caps at 1024");
    if (cfg.check) return RunCheck(cfg);
    return cfg.suite ? RunSuite(cfg) : RunSingle(cfg);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
