// The daemon workloads: ingest_leader, ingest_quorum and launch_reads.
//
// Every daemon runs in this process as a TtkvServer on a loopback
// ephemeral port; load comes from kClients closed-loop client threads, one
// TtkvClient (one connection) each. Latency is timed around each client
// call, per request frame. The measured (untraced) runs keep the daemon's
// metrics registry off; the traced run attaches one and reads it back over
// the wire with api::Metrics after every segment. The public counters
// (frames, wakeups, WAL LSNs and syncs, follower LSN) are free and sampled
// in every run.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "api/codec.h"
#include "api/engine.h"
#include "api/remote_engine.h"
#include "client/ttkv_client.h"
#include "common.h"
#include "common/error.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "persist/durable_engine.h"
#include "replica/follower.h"
#include "server/server.h"
#include "server/sharded_ttkv.h"
#include "server/wire.h"
#include "workload/keydist.h"

namespace perfbench {
namespace {

using namespace ocasta;

constexpr size_t kClients = 4;
// A run is split into segments, each on a freshly set-up daemon, and the
// samples of all segments are pooled. Closed-loop clients fall into phase
// patterns (against the event loop, or the follower's poll) that last a
// whole segment, so many short segments give steadier figures than one
// long one. launch_reads pays 1.5 s of preload per segment, so it has few.
constexpr double kIngestSegmentSeconds = 1.25;
constexpr size_t kLaunchSegments = 3;
constexpr size_t kValueBytes = 64;
constexpr double kGraceSeconds = 30;     // Hard deadline past the run length.
constexpr double kSettleSeconds = 30;    // Follower catch-up limit after the run.
constexpr size_t kCodecSample = 2048;    // Frames per client and segment kept for replay.
constexpr uint64_t kSpanEvery = 8;       // Request spans are 1-in-8 sampled.
constexpr size_t kPreloadBatch = 1024;

// The request mix is a fixed rotation per client rather than a coin flip,
// so a short segment holds exactly the stated shares and throughput does
// not swing with how many slow requests a seed happened to draw.
//
// ingest_*: zipf(0.99) over 2,000 keys; every other request is a PUT.
constexpr size_t kIngestKeys = 2000;
constexpr uint64_t kIngestPutEvery = 2;

// launch_reads: 15,625 apps x 16 settings = 250,000 keys, two versions each.
constexpr size_t kApps = 15625;
constexpr size_t kKeysPerApp = 16;
constexpr uint64_t kSaveEvery = 20;  // 5% of requests save settings.

std::string Padded(std::string s) {
  if (s.size() < kValueBytes) s.resize(kValueBytes, '.');
  return s;
}

std::string IngestKey(size_t k) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "ingest/k%04zu", k);
  return buf;
}

// A PUT value names its key, client and sequence number, so every acked
// write is unique and a GET can check it read its own key.
std::string IngestValue(size_t key, size_t client, uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "k%04zu:c%zu:s%010llu:", key, client,
                static_cast<unsigned long long>(seq));
  return Padded(buf);
}

std::string LaunchKey(size_t app, size_t setting) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "launch/app%05zu/setting%02zu", app, setting);
  return buf;
}

std::string LaunchValue(const std::string& key, const char* tag) {
  return Padded(key + "=" + tag + ":");
}

bool EncodesKey(const api::Result& result, const std::string& prefix) {
  const auto* value = std::get_if<api::ValueResult>(&result.op);
  if (value == nullptr || !value->value.has_value()) return false;
  if (value->value->type() != ValueType::kString) return false;
  const std::string& s = value->value->as_string();
  return s.compare(0, prefix.size(), prefix) == 0;
}

// An in-process leader (+ follower) and the directories they live in.
struct Daemon {
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  std::unique_ptr<ScratchDir> leader_dir;
  std::unique_ptr<ScratchDir> follower_dir;
  std::shared_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<TtkvServer> leader;
  std::unique_ptr<TtkvServer> follower;
  std::vector<std::unique_ptr<TtkvClient>> clients;

  void Stop() {
    clients.clear();
    if (follower) follower->Stop();
    if (leader) leader->Stop();
    follower.reset();
    leader.reset();
    follower_dir.reset();
    leader_dir.reset();
  }

  persist::Wal* wal() {
    auto* durable = dynamic_cast<persist::DurableEngine*>(&leader->engine());
    return durable == nullptr ? nullptr : &durable->wal();
  }
  uint64_t follower_lsn() {
    return follower && follower->follower() ? follower->follower()->applied_lsn() : 0;
  }
};

void WaitUntil(const std::function<bool()>& done, double limit_seconds, const char* what) {
  const auto start = Clock::now();
  while (!done()) {
    if (SecondsSince(start) > limit_seconds) throw Error(std::string("timed out: ") + what);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// The initial data a workload loads during set-up: command i of `count`,
// generated on demand so the benchmark holds no copy of the store.
struct PreloadSpec {
  size_t count = 0;
  std::function<api::Command(size_t)> make;

  std::vector<api::Command> Batch(size_t begin) const {
    std::vector<api::Command> cmds;
    for (size_t i = begin; i < std::min(count, begin + kPreloadBatch); ++i) cmds.push_back(make(i));
    return cmds;
  }
};

// Loads the preload through the daemon's clients in kPreloadBatch-command
// BATCH frames, client i taking every kClients-th frame.
void Preload(Daemon& daemon, const PreloadSpec& preload) {
  std::vector<std::thread> threads;
  std::vector<std::string> errors(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (size_t begin = c * kPreloadBatch; begin < preload.count;
             begin += kClients * kPreloadBatch) {
          for (const api::Result& r : daemon.clients[c]->ApplyBatch(preload.Batch(begin))) {
            if (!std::holds_alternative<api::OkResult>(r.op)) throw Error("preload PUT refused");
          }
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw Error("preload failed: " + e);
  }
}

struct DaemonConfig {
  bool durable = false;
  bool quorum = false;
};

// Starts the topology, connects the clients and loads the initial data.
std::unique_ptr<Daemon> SetUp(const RunOptions& options, const DaemonConfig& config,
                              bool with_registry, const PreloadSpec& preload) {
  auto daemon = std::make_unique<Daemon>();
  if (with_registry) daemon->registry = std::make_shared<obs::MetricsRegistry>();
  ServerOptions leader;
  leader.metrics = daemon->registry;
  if (config.durable) {
    daemon->leader_dir = std::make_unique<ScratchDir>(options.scratch_dir, "leader");
    daemon->follower_dir = std::make_unique<ScratchDir>(options.scratch_dir, "follower");
    leader.data_dir = daemon->leader_dir->path();
    leader.fsync = "batch";
    leader.acks = config.quorum ? "quorum" : "leader";
    leader.quorum_followers = 1;
  }
  daemon->leader = std::make_unique<TtkvServer>(leader);
  daemon->leader->Start();
  if (config.durable) {
    ServerOptions follower;
    follower.data_dir = daemon->follower_dir->path();
    follower.fsync = "batch";
    follower.follow_host = "127.0.0.1";
    follower.follow_port = daemon->leader->port();
    daemon->follower = std::make_unique<TtkvServer>(follower);
    daemon->follower->Start();
    replica::ReplicationHub* hub = daemon->leader->replication_hub();
    WaitUntil([hub] { return hub->follower_count() >= 1; }, 30, "follower registration");
  }
  for (size_t c = 0; c < kClients; ++c) {
    daemon->clients.push_back(
        std::make_unique<TtkvClient>("127.0.0.1", daemon->leader->port()));
    daemon->clients.back()->Connect();
  }
  Preload(*daemon, preload);
  return daemon;
}

// Per-client results of one segment's measured phase.
struct ClientLog {
  std::vector<double> main_us;  // ingest: PUT frames; launch_reads: launch (GET) frames.
  std::vector<double> side_us;  // ingest: GET frames; launch_reads: save (PUT) frames.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t keyed_ops = 0;  // Commands in acked frames.
  uint64_t quorum_timeouts = 0;
  uint64_t not_leader = 0;
  uint64_t wire_errors = 0;
  uint64_t wrong_values = 0;
  std::vector<std::pair<uint32_t, uint64_t>> acked_puts;  // ingest: (key, seq).
  // Traced run only: the first kCodecSample frames and their replies.
  std::vector<std::vector<api::Command>> sent;
  std::vector<api::Result> replies;

  // Books one request that came back; returns false when it failed.
  bool Replied(const api::Result& result, bool ok) {
    if (ok) return true;
    ++failed;
    if (const auto* err = std::get_if<api::ErrorResult>(&result.op)) {
      if (err->message.find("quorum") != std::string::npos) ++quorum_timeouts;
    } else if (std::holds_alternative<api::NotLeaderResult>(result.op)) {
      ++not_leader;
    }
    return false;
  }

  // Books a request that threw: a transport failure or a refused frame.
  void Threw(const std::exception& e) {
    ++failed;
    if (dynamic_cast<const WireError*>(&e) != nullptr) {
      ++wire_errors;
    } else if (std::string(e.what()).find("not the leader") != std::string::npos) {
      ++not_leader;
    }
  }

  void KeepForReplay(const std::vector<api::Command>& cmds, api::Result reply) {
    if (sent.size() >= kCodecSample) return;
    sent.push_back(cmds);
    replies.push_back(std::move(reply));
  }
};

// Public loop counters, sampled around a measured phase.
struct LoopCounters {
  uint64_t frames = 0;
  uint64_t wakeups = 0;
  static LoopCounters Of(TtkvServer& server) {
    return {server.frames_dispatched(), server.loop_wakeups()};
  }
};

// Everything a run accumulates over its segments. Latency samples and
// counters are pooled; a registry snapshot is kept per segment.
struct Pooled {
  std::vector<ClientLog> logs;  // One per client and segment.
  double measured_s = 0;
  std::vector<double> setup_s;
  uint64_t frames = 0, wakeups = 0;
  uint64_t wal_records = 0, wal_syncs = 0, wal_bytes = 0;
  std::vector<double> lag;
  std::vector<obs::MetricsSnapshot> snapshots;
};

using ClientBody = std::function<void(size_t c, Clock::time_point deadline, TtkvClient& client,
                                      ClientLog& log)>;
using Verify = std::function<void(Daemon& daemon, const std::vector<ClientLog>& logs)>;

// The traced run's registry, read the way an operator would: the METRICS
// op over the wire. Empty (every registry layer reads zero) if it fails.
obs::MetricsSnapshot ReadMetrics(Daemon& daemon, RunReport& report) {
  try {
    api::RemoteEngine remote("127.0.0.1", daemon.leader->port());
    return api::Metrics(remote);
  } catch (const std::exception& e) {
    report.Fail(std::string("METRICS read failed: ") + e.what());
    return {};
  }
}

// One segment: set up a fresh topology, run kClients closed-loop clients
// for `seconds`, verify, pool the results and tear down. A watchdog stops
// the daemon if the clients are still blocked kGraceSeconds past the end,
// so a stuck request (say, a quorum wait) ends as failures, not a hang.
void RunSegment(const RunOptions& options, const DaemonConfig& config,
                const PreloadSpec& preload, double seconds, Tracer& tracer,
                const ClientBody& body, const Verify& verify, RunReport& report,
                Pooled& pooled) {
  const auto setup_start = Clock::now();
  std::unique_ptr<Daemon> daemon = SetUp(options, config, tracer.enabled(), preload);
  const auto setup_end = Clock::now();
  pooled.setup_s.push_back(std::chrono::duration<double>(setup_end - setup_start).count());
  tracer.Record("bench.setup", setup_start, setup_end);

  persist::Wal* wal = daemon->wal();
  const LoopCounters loop_before = LoopCounters::Of(*daemon->leader);
  const uint64_t lsn_before = wal ? wal->last_lsn() : 0;
  const uint64_t syncs_before = wal ? wal->sync_count() : 0;
  const uint64_t bytes_before = wal ? wal->appended_bytes() : 0;

  std::mutex mu;
  std::condition_variable cv;
  size_t finished = 0;
  bool sampling = true;
  std::vector<ClientLog> logs(kClients);
  const uint64_t measure_span = tracer.NextId();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<Clock::time_point> ends(kClients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      body(c, deadline, *daemon->clients[c], logs[c]);
      ends[c] = Clock::now();
      const std::lock_guard<std::mutex> lock(mu);
      ++finished;
      cv.notify_all();
    });
  }
  // Follower lag, sampled every 10 ms while the clients run.
  std::vector<double> lag;
  std::thread lag_sampler;
  if (wal != nullptr) {
    lag_sampler = std::thread([&] {
      std::unique_lock<std::mutex> lock(mu);
      while (sampling) {
        const uint64_t leader_lsn = wal->last_lsn();
        const uint64_t follower_lsn = daemon->follower_lsn();
        lag.push_back(leader_lsn > follower_lsn ? static_cast<double>(leader_lsn - follower_lsn)
                                                : 0.0);
        cv.wait_for(lock, std::chrono::milliseconds(10));
      }
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    const auto hard = deadline + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(kGraceSeconds));
    if (!cv.wait_until(lock, hard, [&] { return finished == kClients; })) {
      report.Fail("clients still blocked past the hard deadline; daemon stopped");
      if (daemon->follower) daemon->follower->Stop();
      daemon->leader->Stop();
    }
  }
  for (auto& t : threads) t.join();
  {
    const std::lock_guard<std::mutex> lock(mu);
    sampling = false;
    cv.notify_all();
  }
  if (lag_sampler.joinable()) lag_sampler.join();
  const auto end = *std::max_element(ends.begin(), ends.end());
  tracer.RecordWithId(measure_span, "bench.measure", start, end);

  const LoopCounters loop_after = LoopCounters::Of(*daemon->leader);
  pooled.measured_s += std::chrono::duration<double>(end - start).count();
  pooled.frames += loop_after.frames - loop_before.frames;
  pooled.wakeups += loop_after.wakeups - loop_before.wakeups;
  if (wal != nullptr) {
    pooled.wal_records += wal->last_lsn() - lsn_before;
    pooled.wal_syncs += wal->sync_count() - syncs_before;
    pooled.wal_bytes += wal->appended_bytes() - bytes_before;
  }
  pooled.lag.insert(pooled.lag.end(), lag.begin(), lag.end());
  if (tracer.enabled()) pooled.snapshots.push_back(ReadMetrics(*daemon, report));

  if (report.correct) {
    const auto verify_start = Clock::now();
    try {
      verify(*daemon, logs);
    } catch (const std::exception& e) {
      report.Fail(std::string("verification failed: ") + e.what());
    }
    tracer.Record("bench.verify", verify_start, Clock::now());
  }
  for (ClientLog& log : logs) pooled.logs.push_back(std::move(log));
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// The end-to-end metrics, from the pooled segments.
void ReportEndToEnd(const Pooled& pooled, RunReport& report) {
  uint64_t keyed = 0, timeouts = 0, not_leader = 0, wire = 0, wrong = 0;
  std::vector<double> main_us, side_us;
  for (const ClientLog& log : pooled.logs) {
    report.attempted += log.attempted;
    report.failed += log.failed;
    keyed += log.keyed_ops;
    timeouts += log.quorum_timeouts;
    not_leader += log.not_leader;
    wire += log.wire_errors;
    wrong += log.wrong_values;
    main_us.insert(main_us.end(), log.main_us.begin(), log.main_us.end());
    side_us.insert(side_us.end(), log.side_us.begin(), log.side_us.end());
  }
  report.Add("setup_s", Median(pooled.setup_s), "s");
  report.Add("rss_mb", PeakRssMb(), "MiB");
  report.Add("ok_ratio", 1.0 - Ratio(report.failed, report.attempted), "ratio");
  report.Detail("ops_per_s", static_cast<double>(keyed) / pooled.measured_s, "1/s");
  report.Add("main_p50_us", Percentile(main_us, 50), "us");
  report.Add("main_p90_us", Percentile(main_us, 90), "us");
  report.Detail("side_p50_us", Percentile(side_us, 50), "us");
  report.Detail("side_p90_us", Percentile(side_us, 90), "us");
  report.Detail("main_p99_us", Percentile(main_us, 99), "us");
  report.Detail("side_p99_us", Percentile(side_us, 99), "us");
  report.Detail("main_samples", static_cast<double>(main_us.size()), "count");
  report.Detail("side_samples", static_cast<double>(side_us.size()), "count");
  report.Detail("segments", static_cast<double>(pooled.setup_s.size()), "count");
  report.Detail("quorum_timeouts", static_cast<double>(timeouts), "count");
  report.Detail("not_leader", static_cast<double>(not_leader), "count");
  report.Detail("wire_errors", static_cast<double>(wire), "count");
  if (wrong > 0) report.Fail(std::to_string(wrong) + " GETs returned a value of another key");
}

const obs::HistogramStats* FindHistogram(const obs::MetricsSnapshot& snap,
                                         const std::string& name, const std::string& op) {
  for (const auto& h : snap.histograms) {
    if (h.name != name) continue;
    if (op.empty()) return &h.stats;
    for (const auto& [k, v] : h.labels) {
      if (k == "op" && v == op) return &h.stats;
    }
  }
  return nullptr;
}

// Registry-derived per-layer metrics: the median over segments of each
// segment's histogram statistic; zero where the layer did no work.
void ReportRegistryLayers(const std::vector<obs::MetricsSnapshot>& snapshots,
                          RunReport& report) {
  const auto stat = [&](const char* metric, const std::string& name, const std::string& op,
                        double obs::HistogramStats::*field) {
    std::vector<double> values;
    for (const obs::MetricsSnapshot& snap : snapshots) {
      const obs::HistogramStats* h = FindHistogram(snap, name, op);
      values.push_back(h != nullptr && h->count > 0 ? h->*field : 0.0);
    }
    report.Layer(metric, Median(values), "ns");
  };
  stat("server.loop.frame_ns_p50", "ocasta_loop_frame_ns", "", &obs::HistogramStats::p50);
  stat("server.loop.frame_ns_p99", "ocasta_loop_frame_ns", "", &obs::HistogramStats::p99);
  stat("server.engine.apply_ns_p50.get", "ocasta_engine_apply_ns", "get",
       &obs::HistogramStats::p50);
  stat("server.engine.apply_ns_p99.get", "ocasta_engine_apply_ns", "get",
       &obs::HistogramStats::p99);
  stat("server.engine.apply_ns_p50.put", "ocasta_engine_apply_ns", "put",
       &obs::HistogramStats::p50);
  stat("server.engine.apply_ns_p99.put", "ocasta_engine_apply_ns", "put",
       &obs::HistogramStats::p99);
  stat("persist.wal.fsync_ns_p50", "ocasta_wal_fsync_ns", "", &obs::HistogramStats::p50);
  stat("persist.wal.fsync_ns_p99", "ocasta_wal_fsync_ns", "", &obs::HistogramStats::p99);
  stat("persist.wal.append_ns_p50", "ocasta_wal_append_ns", "", &obs::HistogramStats::p50);
  stat("replica.quorum_wait_ns_p50", "ocasta_replication_quorum_wait_ns", "",
       &obs::HistogramStats::p50);
  stat("replica.quorum_wait_ns_p99", "ocasta_replication_quorum_wait_ns", "",
       &obs::HistogramStats::p99);
  uint64_t timeouts = 0;
  for (const obs::MetricsSnapshot& snap : snapshots) {
    for (const auto& c : snap.counters) {
      if (c.name == "ocasta_replication_quorum_timeouts_total") timeouts += c.value;
    }
  }
  report.Layer("replica.quorum_timeouts", static_cast<double>(timeouts), "count");
}

// Times the codec on the workload's own request and reply stream: the
// request encode the client performs per frame and the reply decode.
void ReportCodecLayers(const std::vector<ClientLog>& logs, RunReport& report) {
  std::vector<const std::vector<api::Command>*> requests;
  std::vector<std::string> replies;
  for (const ClientLog& log : logs) {
    for (size_t i = 0; i < log.sent.size(); ++i) {
      requests.push_back(&log.sent[i]);
      replies.push_back(api::EncodeResult(log.replies[i]));
    }
  }
  std::vector<double> encode_ns;
  std::vector<double> decode_ns;
  size_t sink = 0;
  for (int pass = 0; pass < 5 && !requests.empty(); ++pass) {
    auto start = Clock::now();
    for (const auto* cmds : requests) {
      sink += cmds->size() == 1 ? api::EncodeCommand((*cmds)[0]).size()
                                : api::EncodeBatchRequest(*cmds).size();
    }
    encode_ns.push_back(static_cast<double>(NanosSince(start)) /
                        static_cast<double>(requests.size()));
    start = Clock::now();
    for (const std::string& reply : replies) sink += api::DecodeResult(reply).op.index() + 1;
    decode_ns.push_back(static_cast<double>(NanosSince(start)) /
                        static_cast<double>(replies.size()));
  }
  if (!requests.empty() && sink == 0) report.Fail("codec replay produced no bytes");
  report.Layer("api.codec.encode_ns", Median(encode_ns), "ns");
  report.Layer("api.codec.decode_ns", Median(decode_ns), "ns");
}

// Replays the recorded request stream into an in-process ShardedTtkv
// (no socket, no codec): the engine's own cost per keyed operation.
void ReportDirectEngine(const PreloadSpec& preload, const std::vector<ClientLog>& logs,
                        RunReport& report) {
  std::vector<double> ns_per_op;
  for (int pass = 0; pass < 3; ++pass) {
    ShardedTtkv engine;
    for (size_t begin = 0; begin < preload.count; begin += kPreloadBatch) {
      engine.ApplyBatch(preload.Batch(begin));
    }
    uint64_t ops = 0;
    const auto start = Clock::now();
    for (const ClientLog& log : logs) {
      for (const auto& cmds : log.sent) {
        if (cmds.size() == 1) {
          engine.Apply(cmds[0]);
        } else {
          engine.ApplyBatch(cmds);
        }
        ops += cmds.size();
      }
    }
    if (ops > 0) ns_per_op.push_back(static_cast<double>(NanosSince(start)) / ops);
  }
  report.Layer("server.engine.direct_ns_per_op", Median(ns_per_op), "ns");
}

// The per-layer metrics of a daemon run. The counters are free and come
// from every run; the registry, codec and engine replays only from the
// traced run, which also reports the offline layers as idle (zero).
void ReportDaemonLayers(const Pooled& pooled, const PreloadSpec& preload, bool traced,
                        uint64_t acked_puts, RunReport& report) {
  report.Layer("server.loop.frames_per_wakeup", Ratio(pooled.frames, pooled.wakeups), "ratio");
  report.Layer("persist.wal.commit_width", Ratio(pooled.wal_records, pooled.wal_syncs), "ratio");
  report.Layer("persist.wal.bytes_per_put", Ratio(pooled.wal_bytes, acked_puts), "B");
  report.Layer("replica.lag_records_p99", Percentile(pooled.lag, 99), "records");
  if (!traced) return;
  ReportRegistryLayers(pooled.snapshots, report);
  ReportCodecLayers(pooled.logs, report);
  ReportDirectEngine(preload, pooled.logs, report);
  // No daemon workload records machines, clusters or repairs.
  for (const char* name : {"logger.record_ms.registry", "logger.record_ms.gconf",
                           "logger.record_ms.file", "ttkv.build_ms", "clustering.cluster_ms",
                           "repair.search_ms", "scenarios.self_ms"}) {
    report.Layer(name, 0, "ms");
  }
  report.Layer("repair.trials", 0, "count");
}

double ValueOf(const RunReport& report, const std::string& name) {
  for (const auto* list : {&report.metrics, &report.layers, &report.details}) {
    for (const Metric& m : *list) {
      if (m.name == name) return m.value;
    }
  }
  throw Error("no metric " + name);
}

// Compares two store images, ignoring read counters: GETs are served by
// the leader alone and are never logged, so only the version histories
// must match.
bool SameHistories(const TTKV& a, const TTKV& b, std::string* why) {
  if (a.num_keys() != b.num_keys()) {
    *why = "key counts differ: " + std::to_string(a.num_keys()) + " vs " +
           std::to_string(b.num_keys());
    return false;
  }
  for (const std::string& key : a.key_names()) {
    const VersionedRecord* other = b.find(key);
    if (other == nullptr || other->versions != a.record(key).versions) {
      *why = "history of " + key + " differs";
      return false;
    }
  }
  return true;
}

// ingest_*: the follower catches up and holds the leader's histories, and
// every acked PUT is in its key's history.
void VerifyIngest(Daemon& daemon, const std::vector<ClientLog>& logs) {
  persist::Wal& wal = *daemon.wal();
  WaitUntil([&] { return daemon.follower_lsn() >= wal.last_lsn(); }, kSettleSeconds,
            "follower catch-up");
  TtkvClient leader("127.0.0.1", daemon.leader->port());
  TtkvClient follower("127.0.0.1", daemon.follower->port());
  std::string why;
  if (!SameHistories(leader.Snapshot(), follower.Snapshot(), &why)) {
    throw Error("leader and follower snapshots differ: " + why);
  }
  std::vector<std::unordered_set<std::string>> history(kIngestKeys);
  for (size_t k = 0; k < kIngestKeys; ++k) {
    const auto record = leader.History(IngestKey(k));
    if (!record) continue;
    for (const Version& v : record->versions) {
      if (v.value.type() == ValueType::kString) history[k].insert(v.value.as_string());
    }
  }
  uint64_t missing = 0;
  for (size_t c = 0; c < logs.size(); ++c) {
    for (const auto& [key, seq] : logs[c].acked_puts) {
      if (history[key].count(IngestValue(key, c, seq)) == 0) ++missing;
    }
  }
  if (missing > 0) throw Error(std::to_string(missing) + " acked PUTs missing from history");
}

}  // namespace

void RunIngest(const RunOptions& options, bool quorum, Tracer& tracer, RunReport& report) {
  const PreloadSpec preload{kIngestKeys, [](size_t k) {
                              return api::Command(
                                  api::PutCmd{IngestKey(k), Value(IngestValue(k, 9, 0))});
                            }};
  const DaemonConfig config{.durable = true, .quorum = quorum};
  const KeyChooser chooser(KeyDist::kZipf, kIngestKeys, 0.99);
  const size_t segments =
      std::max<size_t>(1, static_cast<size_t>(std::lround(options.seconds / kIngestSegmentSeconds)));
  Pooled pooled;
  for (size_t segment = 0; segment < segments; ++segment) {
    const ClientBody body = [&](size_t c, Clock::time_point deadline, TtkvClient& client,
                                ClientLog& log) {
      Rng rng(options.seed * 1000003 + segment * 64 + c + 1);
      for (uint64_t seq = 1; Clock::now() < deadline; ++seq) {
        const size_t key = chooser.Next(rng);
        const bool put = (seq + c) % kIngestPutEvery == 0;
        const api::Command cmd =
            put ? api::Command(api::PutCmd{IngestKey(key), Value(IngestValue(key, c, seq))})
                : api::Command(api::GetCmd{IngestKey(key)});
        ++log.attempted;
        const auto t0 = Clock::now();
        api::Result result;
        try {
          result = client.Apply(cmd);
        } catch (const Error& e) {
          log.Threw(e);
          continue;
        }
        const auto t1 = Clock::now();
        if (seq % kSpanEvery == 0) {
          tracer.Record(put ? "client.put" : "client.get", t0, t1, 0,
                        (static_cast<uint64_t>(segment) << 56) | (static_cast<uint64_t>(c) << 48) |
                            seq);
        }
        if (tracer.enabled()) log.KeepForReplay({cmd}, result);
        const double us = std::chrono::duration<double, std::micro>(t1 - t0).count();
        if (put) {
          if (!log.Replied(result, std::holds_alternative<api::OkResult>(result.op))) continue;
          log.main_us.push_back(us);
          log.acked_puts.emplace_back(static_cast<uint32_t>(key), seq);
        } else {
          if (!log.Replied(result, std::holds_alternative<api::ValueResult>(result.op))) continue;
          char prefix[16];
          std::snprintf(prefix, sizeof prefix, "k%04zu:", key);
          if (!EncodesKey(result, prefix)) ++log.wrong_values;
          log.side_us.push_back(us);
        }
        ++log.keyed_ops;
      }
    };
    RunSegment(options, config, preload, options.seconds / segments, tracer, body,
               VerifyIngest, report, pooled);
  }
  uint64_t acked_puts = 0;
  for (const ClientLog& log : pooled.logs) acked_puts += log.acked_puts.size();
  ReportEndToEnd(pooled, report);
  ReportDaemonLayers(pooled, preload, tracer.enabled(), acked_puts, report);
  // Stage sanity: the server's median frame cannot take longer than the
  // median GET the client saw, since a GET's round trip contains a frame.
  if (tracer.enabled() && !quorum &&
      ValueOf(report, "server.loop.frame_ns_p50") > 1000 * ValueOf(report, "side_p50_us")) {
    report.Fail("server.loop.frame_ns_p50 exceeds the client's GET p50");
  }
}

void RunLaunchReads(const RunOptions& options, Tracer& tracer, RunReport& report) {
  // Two versions of every key: all of version 1, then all of version 2.
  constexpr size_t kKeys = kApps * kKeysPerApp;
  const PreloadSpec preload{2 * kKeys, [](size_t i) {
                              const size_t k = i % kKeys;
                              std::string key = LaunchKey(k / kKeysPerApp, k % kKeysPerApp);
                              Value value(LaunchValue(key, i < kKeys ? "v1" : "v2"));
                              return api::Command(api::PutCmd{std::move(key), std::move(value)});
                            }};
  const KeyChooser chooser(KeyDist::kZipf, kApps, 0.99);
  Pooled pooled;
  for (size_t segment = 0; segment < kLaunchSegments; ++segment) {
    const ClientBody body = [&](size_t c, Clock::time_point deadline, TtkvClient& client,
                                ClientLog& log) {
      Rng rng(options.seed * 1000003 + segment * 64 + c + 1);
      std::vector<std::string> keys(kKeysPerApp);
      std::vector<api::Command> cmds(kKeysPerApp);
      for (uint64_t seq = 1; Clock::now() < deadline; ++seq) {
        const size_t app = chooser.Next(rng);
        const bool save = (seq + c * (kSaveEvery / kClients)) % kSaveEvery == 0;
        char tag[40];
        std::snprintf(tag, sizeof tag, "c%zu:s%llu", c, static_cast<unsigned long long>(seq));
        for (size_t s = 0; s < kKeysPerApp; ++s) {
          keys[s] = LaunchKey(app, s);
          cmds[s] = save ? api::Command(api::PutCmd{keys[s], Value(LaunchValue(keys[s], tag))})
                         : api::Command(api::GetCmd{keys[s]});
        }
        ++log.attempted;
        const auto t0 = Clock::now();
        std::vector<api::Result> results;
        try {
          results = client.ApplyBatch(cmds);
        } catch (const Error& e) {
          log.Threw(e);
          continue;
        }
        const auto t1 = Clock::now();
        if (seq % kSpanEvery == 0) {
          tracer.Record(save ? "client.save_batch" : "client.launch_batch", t0, t1, 0,
                        (static_cast<uint64_t>(segment) << 56) | (static_cast<uint64_t>(c) << 48) |
                            seq);
        }
        bool ok = true;
        for (size_t s = 0; s < kKeysPerApp && ok; ++s) {
          ok = log.Replied(results[s], save ? std::holds_alternative<api::OkResult>(results[s].op)
                                            : std::holds_alternative<api::ValueResult>(results[s].op));
          if (ok && !save && !EncodesKey(results[s], keys[s] + "=")) ++log.wrong_values;
        }
        if (!ok) continue;
        if (tracer.enabled()) log.KeepForReplay(cmds, api::BatchResult{results});
        (save ? log.side_us : log.main_us)
            .push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
        log.keyed_ops += kKeysPerApp;
      }
    };
    RunSegment(options, DaemonConfig{}, preload, options.seconds / kLaunchSegments, tracer, body,
               [](Daemon&, const std::vector<ClientLog>&) {}, report, pooled);
  }
  ReportEndToEnd(pooled, report);
  ReportDaemonLayers(pooled, preload, tracer.enabled(), 0, report);
}

}  // namespace perfbench
