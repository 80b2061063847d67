// ocasta_cli — command-line driver over trace files and TTKV snapshots.
//
// Subcommands:
//   record <machine> <trace.tsv>          simulate a Table I machine, save its trace
//   stats <trace.tsv>                     per-application trace statistics
//   cluster <trace.tsv> <app> [options]   cluster one application's keys
//       --threshold <corr>   correlation threshold (default 2.0)
//       --window <seconds>   co-modification window (default 1.0)
//       --linkage <complete|single|average>
//       --threads <n>        correlation worker threads (0 = all cores)
//   snapshot <trace.tsv> <app> <out.ttkv> build + persist the app's TTKV
//   history <snapshot.ttkv> <key>         dump a key's version history
//   repair --scenario <1-16> [options]    run a Table III error end-to-end
//       --strategy <dfs|bfs>  --spurious <n>  --tuned
//   serve [options]                       run the ocastad TTKV daemon
//       --port <n>      TCP port (default 7341, 0 = ephemeral)
//       --shards <n>    engine shard count (default 8)
//       --window <s>    online-clustering window seconds (default 1.0)
//       --port-file <p> write the bound port to a file (for scripts)
//       --data-dir <d>  durable mode: write-ahead log + snapshots in <d>;
//                       restart replays them (acked writes survive kill -9)
//       --fsync <p>     off | batch (default, group commit) | always
//       --checkpoint-interval <s>  periodic snapshot+log-truncation (0 = off)
//       --io-threads <n>  epoll worker event loops (default 1, 0 = per-core)
//       --max-conns <n>   open-connection cap; excess connections get a
//                         graceful error reply (default 1024, 0 = unlimited)
//       --idle-timeout <s>  close idle connections (default 300, 0 = never)
//       --metrics-port <n>  serve Prometheus text on 127.0.0.1:<n>/metrics
//                           (also enables the METRICS wire op; 0 = off)
//       --metrics           enable metrics without the HTTP listener
//       --slow-op-micros <n>  log requests slower than n µs (0 = off)
//       --slow-op-log-per-sec <n>  slow-op line rate cap (default 10)
//       --follow <host:port>  run as a FOLLOWER of that leader: bootstrap,
//                             tail its WAL, serve reads, redirect mutations
//                             (NOT_LEADER); requires --data-dir
//       --follower-id <id>  stable quorum identity (default from data-dir)
//       --acks <leader|quorum>  mutation ack level (default leader)
//       --quorum-followers <n>  follower acks required under quorum (default 1)
//       --quorum-timeout <s>    quorum wait before failing the write (default 5)
//   promote [--host --port]               flip a follower into a leader
//   replstat [--host --port]              print a daemon's replication state
//       (role guess, last LSN via a REPLICATE status probe) — scripts use
//       it to promote the most caught-up follower
//   metrics [--host --port] [--prom] [--watch]
//       fetch the daemon's metrics snapshot over the wire (METRICS op);
//       default renders a table (latencies in µs), --prom renders
//       Prometheus text, --watch refreshes every 2 seconds
//   remote <op> [args] [--backend --host --port --shards --window
//                       --data-dir --fsync]
//       drive any api::Engine backend (default: remote, a running ocastad);
//       --data-dir makes the sharded backend durable
//       ops: ping, put <key> <value>, get <key>, delete <key> [--force],
//            history <key>, stats, list [prefix], cluster [--threshold
//            --linkage], compact <seconds>, snapshot <out.ttkv>, shutdown
//   batch [--backend --host --port --shards --window --data-dir --fsync]
//       newline-delimited commands from stdin applied as ONE BatchCmd
//       (trace replay through any backend); lines:
//            ping | put <key> <value> | get <key> | getat <key> <seconds>
//            | delete <key> [force] | history <key> | list [prefix]
//            | stats | compact <seconds> | cluster <threshold> [linkage]
//   list                                  machines, applications, scenarios
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/ground_truth.h"
#include "api/backends.h"
#include "api/engine.h"
#include "apps/catalog.h"
#include "client/ttkv_client.h"
#include "clustering/engine.h"
#include "common/error.h"
#include "common/flags.h"
#include "common/io.h"
#include "common/strings.h"
#include "common/table.h"
#include "logger/recorder.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "parsers/config_map.h"
#include "scenarios/harness.h"
#include "server/server.h"
#include "workload/generator.h"
#include "workload/profiles.h"

using namespace ocasta;

namespace {

constexpr uint16_t kDefaultPort = 7341;

int Usage() {
  std::fprintf(
      stderr,
      "usage: ocasta_cli "
      "<record|stats|cluster|snapshot|history|repair|serve|promote|replstat|remote|batch|"
      "metrics|list> ...\n"
      "run 'ocasta_cli list' to see machines, applications and scenarios\n");
  return 2;
}

// Shared --backend/--host/--port/--shards/--window/--data-dir/--fsync
// parsing for the subcommands that drive an api::Engine.
api::BackendOptions BackendFromArgs(const Args& args, const std::string& default_backend) {
  api::BackendOptions options;
  options.backend = args.Get("backend", default_backend);
  options.num_shards = static_cast<size_t>(args.GetInt("shards", 8));
  options.cluster_window_seconds = args.GetDouble("window", 1.0);
  options.host = args.Get("host", "127.0.0.1");
  options.port = static_cast<uint16_t>(args.GetInt("port", kDefaultPort));
  options.data_dir = args.Get("data-dir", "");
  options.fsync = args.Get("fsync", "batch");
  return options;
}

TTKV TtkvFromTraceFile(const std::string& path, const std::string& app) {
  const TraceLog trace = TraceLog::ParseText(ReadFile(path));
  TTKV ttkv;
  TtkvRecorder recorder(ttkv);
  for (const AccessEvent& event : trace.events()) {
    if (event.app == app) recorder.OnAccess(event);
  }
  if (ttkv.num_keys() == 0) throw Error("trace has no events for application: " + app);
  return ttkv;
}

int CmdRecord(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  const MachineTrace machine = GenerateMachineTrace(ProfileByName(args.positional[0]));
  WriteFile(args.positional[1], machine.trace.ToText());
  const TraceStats stats = machine.trace.Stats();
  std::printf("wrote %s: %zu events, %llu writes over %.0f days, apps:",
              args.positional[1].c_str(), machine.trace.size(),
              static_cast<unsigned long long>(stats.writes), stats.days);
  for (const std::string& app : machine.trace.AppNames()) std::printf(" [%s]", app.c_str());
  std::printf("\n");
  return 0;
}

int CmdStats(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  const TraceLog trace = TraceLog::ParseText(ReadFile(args.positional[0]));
  TextTable table({"Application", "Days", "Writes", "Deletes", "#Keys"});
  for (const std::string& app : trace.AppNames()) {
    const TraceStats stats = trace.FilterByApp(app).Stats();
    table.add_row({app, StrFormat("%.1f", stats.days), std::to_string(stats.writes),
                   std::to_string(stats.deletes), std::to_string(stats.num_keys)});
  }
  const TraceStats total = trace.Stats();
  table.add_row({"(machine)", StrFormat("%.1f", total.days), std::to_string(total.writes),
                 std::to_string(total.deletes), std::to_string(total.num_keys)});
  std::printf("%s", table.render().c_str());
  return 0;
}

Linkage LinkageFromName(const std::string& name) {
  if (name == "complete") return Linkage::kComplete;
  if (name == "single") return Linkage::kSingle;
  if (name == "average") return Linkage::kAverage;
  throw Error("unknown linkage: " + name);
}

int CmdCluster(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  const TTKV ttkv = TtkvFromTraceFile(args.positional[0], args.positional[1]);
  ClusteringParams params;
  params.threshold_correlation = args.GetDouble("threshold", 2.0);
  params.window_seconds = args.GetDouble("window", 1.0);
  params.linkage = LinkageFromName(args.Get("linkage", "complete"));
  params.num_threads = static_cast<int>(args.GetDouble("threads", 1));
  if (params.num_threads < 0) throw Error("--threads must be >= 0 (0 = all cores)");
  const ClusterSet clusters = ClusterKeys(ttkv, params);
  std::printf("%s: %zu keys, %zu clusters (%zu multi-key, avg size %.1f)\n\n",
              args.positional[1].c_str(), ttkv.num_keys(), clusters.size(),
              clusters.multi_cluster_count(), clusters.average_multi_cluster_size());
  for (const KeyCluster& cluster : clusters.clusters()) {
    if (cluster.size() < 2) continue;
    std::printf("cluster (%zu keys, %llu modifications):\n", cluster.size(),
                static_cast<unsigned long long>(cluster.version_count));
    for (uint32_t key : cluster.keys) std::printf("    %s\n", ttkv.key_name(key).c_str());
  }
  return 0;
}

int CmdSnapshot(const Args& args) {
  if (args.positional.size() != 3) return Usage();
  const TTKV ttkv = TtkvFromTraceFile(args.positional[0], args.positional[1]);
  const std::string bytes = ttkv.Serialize();
  WriteFile(args.positional[2], bytes);
  std::printf("wrote %s: %zu keys, %zu bytes\n", args.positional[2].c_str(), ttkv.num_keys(),
              bytes.size());
  return 0;
}

void PrintHistory(const VersionedRecord& record) {
  std::printf("%s: %llu writes, %llu deletions, %llu reads\n", record.key.c_str(),
              static_cast<unsigned long long>(record.write_count),
              static_cast<unsigned long long>(record.delete_count),
              static_cast<unsigned long long>(record.read_count));
  for (const Version& version : record.versions) {
    std::printf("  [%s] %s\n", FormatTimestamp(version.timestamp).c_str(),
                version.is_delete ? "<deleted>" : version.value.ToDisplay().c_str());
  }
}

int CmdHistory(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  const TTKV ttkv = TTKV::Deserialize(ReadFile(args.positional[0]));
  PrintHistory(ttkv.record(args.positional[1]));
  return 0;
}

int CmdRepair(const Args& args) {
  const int id = static_cast<int>(args.GetDouble("scenario", 0));
  if (id < 1 || id > 16) return Usage();
  const ErrorScenario scenario = ScenarioById(id);
  std::printf("case %d: %s (%s on %s)\n", id, scenario.description.c_str(),
              scenario.app.c_str(), scenario.machine.c_str());
  const MachineTrace machine = GenerateMachineTrace(ProfileByName(scenario.machine));
  ScenarioRunOptions options;
  options.strategy = args.Get("strategy", "dfs") == "bfs" ? SearchStrategy::kBfs
                                                          : SearchStrategy::kDfs;
  options.spurious_writes = static_cast<int>(args.GetDouble("spurious", 0));
  options.use_tuned_params = args.Has("tuned");
  const ScenarioRun run = RunScenario(machine, scenario, options);
  std::printf("Ocasta:  %s — %zu trials (%s), %zu screenshots, cluster size %zu\n",
              run.ocasta.fixed ? "FIXED" : "not fixed", run.ocasta.trials_to_fix,
              FormatMinSec(run.ocasta.time_to_fix).c_str(), run.ocasta.unique_screenshots,
              run.offending_cluster_size);
  std::printf("NoClust: %s\n", run.noclust.fixed ? "FIXED" : "not fixed");
  if (!run.ocasta.fixed && scenario.needs_tuning && !options.use_tuned_params) {
    std::printf("hint: this error needs tuning in the paper too — retry with --tuned\n");
  }
  return run.ocasta.fixed ? 0 : 1;
}

int CmdServe(const Args& args) {
  // A client that vanishes mid-reply must surface as a failed send on its
  // own connection, never as a process-killing SIGPIPE (the event loop also
  // sends with MSG_NOSIGNAL; this covers any future plain write).
  ::signal(SIGPIPE, SIG_IGN);
  ServerOptions options;
  options.port = static_cast<uint16_t>(args.GetInt("port", kDefaultPort));
  options.num_shards = static_cast<size_t>(args.GetInt("shards", 8));
  options.cluster_window_seconds = args.GetDouble("window", 1.0);
  options.data_dir = args.Get("data-dir", "");
  options.fsync = args.Get("fsync", "batch");
  options.checkpoint_interval_seconds = args.GetDouble("checkpoint-interval", 0.0);
  options.io_threads = static_cast<size_t>(args.GetInt("io-threads", 1));
  options.max_conns = static_cast<size_t>(args.GetInt("max-conns", 1024));
  options.idle_timeout_seconds = args.GetDouble("idle-timeout", 300.0);
  options.metrics_port = static_cast<uint16_t>(args.GetInt("metrics-port", 0));
  if (args.Has("metrics") && options.metrics == nullptr) {
    options.metrics = std::make_shared<obs::MetricsRegistry>();
  }
  options.slow_op_micros = args.GetDouble("slow-op-micros", 0.0);
  options.slow_op_log_per_sec = args.GetDouble("slow-op-log-per-sec", 10.0);
  const std::string follow = args.Get("follow", "");
  if (!follow.empty()) {
    const size_t colon = follow.rfind(':');
    if (colon == std::string::npos) throw Error("--follow expects host:port");
    options.follow_host = follow.substr(0, colon);
    options.follow_port = static_cast<uint16_t>(std::stoul(follow.substr(colon + 1)));
  }
  options.follower_id = args.Get("follower-id", "");
  options.acks = args.Get("acks", "leader");
  options.quorum_followers = static_cast<size_t>(args.GetInt("quorum-followers", 1));
  options.quorum_timeout_seconds = args.GetDouble("quorum-timeout", 5.0);
  TtkvServer server(options);
  server.Start();
  if (!options.follow_host.empty()) {
    std::printf(
        "ocastad FOLLOWER on 127.0.0.1:%u tailing %s:%u (durable in %s; reads only, "
        "mutations redirect)\n",
        static_cast<unsigned>(server.port()), options.follow_host.c_str(),
        static_cast<unsigned>(options.follow_port), options.data_dir.c_str());
  } else if (options.data_dir.empty()) {
    std::printf("ocastad listening on 127.0.0.1:%u (%zu shards, %zu io threads, in-memory)\n",
                static_cast<unsigned>(server.port()), options.num_shards,
                server.io_threads());
  } else {
    std::printf(
        "ocastad listening on 127.0.0.1:%u (%zu shards, %zu io threads, durable in %s, "
        "fsync=%s)\n",
        static_cast<unsigned>(server.port()), options.num_shards, server.io_threads(),
        options.data_dir.c_str(), options.fsync.c_str());
  }
  if (server.metrics_port() != 0) {
    std::printf("metrics on http://127.0.0.1:%u/metrics\n",
                static_cast<unsigned>(server.metrics_port()));
  }
  std::fflush(stdout);
  if (args.Has("port-file")) {
    WriteFile(args.Get("port-file", ""), std::to_string(server.port()) + "\n");
  }
  server.Wait();
  std::printf("ocastad stopped after %llu connections\n",
              static_cast<unsigned long long>(server.connections_served()));
  return 0;
}

int CmdPromote(const Args& args) {
  TtkvClient client(args.Get("host", "127.0.0.1"),
                    static_cast<uint16_t>(args.GetInt("port", kDefaultPort)));
  client.Promote();
  std::printf("promoted: daemon at %s:%d now accepts mutations\n",
              args.Get("host", "127.0.0.1").c_str(),
              static_cast<int>(args.GetInt("port", kDefaultPort)));
  return 0;
}

int CmdReplstat(const Args& args) {
  TtkvClient client(args.Get("host", "127.0.0.1"),
                    static_cast<uint16_t>(args.GetInt("port", kDefaultPort)));
  // An anonymous status probe (max_records == 0): the daemon answers with
  // its role and last LSN only, and grants no quorum standing to the
  // empty id.
  const api::ReplicateResult status = client.Replicate("", 0, 0);
  std::printf("role=%s last_lsn=%llu\n", status.follower ? "follower" : "leader",
              static_cast<unsigned long long>(status.leader_lsn));
  return 0;
}

int CmdRemote(const Args& args) {
  if (args.positional.empty()) return Usage();
  const std::string& op = args.positional[0];
  const auto arg = [&](size_t i) -> const std::string& {
    if (i >= args.positional.size()) throw Error("remote " + op + ": missing argument");
    return args.positional[i];
  };
  // The op runs against whichever backend --backend picks; "remote" (the
  // default) talks to a running ocastad, "sharded" runs in-process.
  const std::unique_ptr<api::Engine> engine = api::MakeEngine(BackendFromArgs(args, "remote"));
  if (op == "ping") {
    api::Ping(*engine);
    std::printf("pong\n");
    return 0;
  }
  if (op == "put") {
    api::Put(*engine, arg(1), InferScalar(arg(2)));
    std::printf("ok\n");
    return 0;
  }
  if (op == "get") {
    const std::optional<Value> value = api::Get(*engine, arg(1));
    if (!value.has_value()) {
      std::printf("(absent)\n");
      return 1;
    }
    std::printf("%s\n", value->ToDisplay().c_str());
    return 0;
  }
  if (op == "delete") {
    std::printf("%s\n", api::Delete(*engine, arg(1), 0, args.Has("force")) ? "deleted"
                                                                           : "(absent)");
    return 0;
  }
  if (op == "history") {
    const std::optional<VersionedRecord> record = api::History(*engine, arg(1));
    if (!record.has_value()) throw Error("unknown key: " + arg(1));
    PrintHistory(*record);
    return 0;
  }
  if (op == "stats") {
    const EngineStats stats = api::Stats(*engine);
    std::printf("keys %zu, writes %llu (deletes %llu), reads %llu, ~%zu bytes\n",
                stats.ttkv.num_keys, static_cast<unsigned long long>(stats.ttkv.writes),
                static_cast<unsigned long long>(stats.ttkv.deletes),
                static_cast<unsigned long long>(stats.ttkv.reads), stats.ttkv.size_bytes);
    std::printf("shards %zu, ops served: %llu puts, %llu gets, %llu deletes\n",
                stats.num_shards, static_cast<unsigned long long>(stats.puts),
                static_cast<unsigned long long>(stats.gets),
                static_cast<unsigned long long>(stats.deletes));
    return 0;
  }
  if (op == "list") {
    for (const std::string& key :
         api::ListKeys(*engine, args.positional.size() > 1 ? args.positional[1] : "")) {
      std::printf("%s\n", key.c_str());
    }
    return 0;
  }
  if (op == "cluster") {
    const auto clusters = api::ClusterNow(*engine, args.GetDouble("threshold", 2.0),
                                          LinkageFromName(args.Get("linkage", "complete")));
    for (const NamedCluster& cluster : clusters) {
      if (cluster.keys.size() < 2) continue;
      std::printf("cluster (%zu keys, %llu modifications):\n", cluster.keys.size(),
                  static_cast<unsigned long long>(cluster.version_count));
      for (const std::string& key : cluster.keys) std::printf("    %s\n", key.c_str());
    }
    return 0;
  }
  if (op == "compact") {
    char* end = nullptr;
    const double horizon = std::strtod(arg(1).c_str(), &end);
    if (end == arg(1).c_str() || *end != '\0') {
      throw Error("compact: horizon must be a number in seconds, got: " + arg(1));
    }
    const uint64_t dropped = api::Compact(*engine, Seconds(horizon));
    std::printf("dropped %llu versions\n", static_cast<unsigned long long>(dropped));
    return 0;
  }
  if (op == "snapshot") {
    const std::string bytes = api::Snapshot(*engine).Serialize();
    WriteFile(arg(1), bytes);
    std::printf("wrote %s: %zu bytes\n", arg(1).c_str(), bytes.size());
    return 0;
  }
  if (op == "shutdown") {
    api::Shutdown(*engine);
    std::printf("ocastad shutting down\n");
    return 0;
  }
  return Usage();
}

// --- batch: newline-delimited commands from stdin, one BatchCmd ------------

double ParseNumber(const std::string& what, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    throw Error(what + ": expected a number, got: " + text);
  }
  return value;
}

api::Command ParseBatchLine(const std::vector<std::string>& tokens) {
  const std::string& op = tokens[0];
  const auto want = [&](size_t n) {
    if (tokens.size() - 1 != n) {
      throw Error("batch " + op + ": expected " + std::to_string(n) + " argument(s)");
    }
  };
  if (op == "ping") {
    want(0);
    return api::PingCmd{};
  }
  if (op == "put") {
    want(2);
    return api::PutCmd{tokens[1], InferScalar(tokens[2]), 0};
  }
  if (op == "get") {
    want(1);
    return api::GetCmd{tokens[1]};
  }
  if (op == "getat") {
    want(2);
    return api::GetAtCmd{tokens[1], Seconds(ParseNumber("batch getat", tokens[2]))};
  }
  if (op == "delete") {
    if (tokens.size() == 3 && tokens[2] == "force") return api::DeleteCmd{tokens[1], 0, true};
    want(1);
    return api::DeleteCmd{tokens[1], 0, false};
  }
  if (op == "history") {
    want(1);
    return api::HistoryCmd{tokens[1]};
  }
  if (op == "list") {
    if (tokens.size() == 1) return api::ListKeysCmd{""};
    want(1);
    return api::ListKeysCmd{tokens[1]};
  }
  if (op == "stats") {
    want(0);
    return api::StatsCmd{};
  }
  if (op == "compact") {
    want(1);
    return api::CompactCmd{Seconds(ParseNumber("batch compact", tokens[1]))};
  }
  if (op == "cluster") {
    api::ClusterNowCmd cmd;
    if (tokens.size() < 2 || tokens.size() > 3) throw Error("batch cluster: <threshold> [linkage]");
    cmd.threshold_correlation = ParseNumber("batch cluster", tokens[1]);
    if (tokens.size() == 3) cmd.linkage = LinkageFromName(tokens[2]);
    return cmd;
  }
  throw Error("batch: unknown command: " + op);
}

void PrintBatchResult(const api::Result& result) {
  if (const auto* err = std::get_if<api::ErrorResult>(&result.op)) {
    std::printf("error: %s\n", err->message.c_str());
    return;
  }
  if (std::holds_alternative<api::OkResult>(result.op)) {
    std::printf("ok\n");
    return;
  }
  if (const auto* existed = std::get_if<api::ExistedResult>(&result.op)) {
    std::printf("%s\n", existed->existed ? "deleted" : "(absent)");
    return;
  }
  if (const auto* value = std::get_if<api::ValueResult>(&result.op)) {
    std::printf("%s\n", value->value.has_value() ? value->value->ToDisplay().c_str()
                                                 : "(absent)");
    return;
  }
  if (const auto* history = std::get_if<api::HistoryResult>(&result.op)) {
    if (!history->record.has_value()) {
      std::printf("(absent)\n");
    } else {
      PrintHistory(*history->record);
    }
    return;
  }
  if (const auto* keys = std::get_if<api::KeysResult>(&result.op)) {
    std::printf("%zu keys", keys->keys.size());
    for (const std::string& key : keys->keys) std::printf(" %s", key.c_str());
    std::printf("\n");
    return;
  }
  if (const auto* stats = std::get_if<api::StatsResult>(&result.op)) {
    std::printf("keys %zu, writes %llu, reads %llu\n", stats->stats.ttkv.num_keys,
                static_cast<unsigned long long>(stats->stats.ttkv.writes),
                static_cast<unsigned long long>(stats->stats.ttkv.reads));
    return;
  }
  if (const auto* compact = std::get_if<api::CompactResult>(&result.op)) {
    std::printf("dropped %llu versions\n",
                static_cast<unsigned long long>(compact->versions_dropped));
    return;
  }
  if (const auto* clusters = std::get_if<api::ClustersResult>(&result.op)) {
    std::printf("%zu clusters\n", clusters->clusters.size());
    return;
  }
  std::printf("(unprintable result)\n");
}

int CmdBatch(const Args& args) {
  const std::unique_ptr<api::Engine> engine = api::MakeEngine(BackendFromArgs(args, "remote"));
  api::BatchCmd batch;
  std::string line;
  while (std::getline(std::cin, line)) {
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    batch.commands.push_back(ParseBatchLine(SplitNonEmpty(trimmed, ' ')));
  }
  if (batch.commands.empty()) {
    std::printf("batch: no commands on stdin\n");
    return 0;
  }
  // One ApplyBatch: a single BATCH frame on the remote backend, grouped
  // shard locking on the sharded backend.
  const std::vector<api::Result> results = engine->ApplyBatch(std::span(batch.commands));
  int failures = 0;
  for (const api::Result& result : results) {
    if (api::IsError(result)) ++failures;
    PrintBatchResult(result);
  }
  if (failures > 0) {
    std::fprintf(stderr, "batch: %d of %zu commands failed\n", failures, results.size());
    return 1;
  }
  return 0;
}

// --- metrics: fetch + render the daemon's metrics snapshot -----------------

std::string RenderLabels(const obs::Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=" + labels[i].second;
  }
  out += "}";
  return out;
}

// Latency histograms are recorded in nanoseconds (the *_ns suffix is the
// contract); humans read microseconds.
std::string RenderQuantile(const std::string& name, double v) {
  if (name.ends_with("_ns")) return StrFormat("%.1fus", v / 1000.0);
  return StrFormat("%.0f", v);
}

void PrintSnapshotTables(const obs::MetricsSnapshot& snap) {
  if (!snap.counters.empty() || !snap.gauges.empty()) {
    TextTable table({"Metric", "Value"});
    for (const auto& c : snap.counters) {
      table.add_row({c.name + RenderLabels(c.labels), std::to_string(c.value)});
    }
    for (const auto& g : snap.gauges) {
      table.add_row({g.name + RenderLabels(g.labels), std::to_string(g.value)});
    }
    std::printf("%s\n", table.render().c_str());
  }
  if (!snap.histograms.empty()) {
    TextTable table({"Histogram", "Count", "p50", "p90", "p99", "p99.9", "Max"});
    for (const auto& h : snap.histograms) {
      table.add_row({h.name + RenderLabels(h.labels), std::to_string(h.stats.count),
                     RenderQuantile(h.name, h.stats.p50), RenderQuantile(h.name, h.stats.p90),
                     RenderQuantile(h.name, h.stats.p99), RenderQuantile(h.name, h.stats.p999),
                     RenderQuantile(h.name, h.stats.max)});
    }
    std::printf("%s", table.render().c_str());
  }
  if (snap.empty()) {
    std::printf("(empty snapshot — is the daemon running with --metrics-port/--metrics?)\n");
  }
}

int CmdMetrics(const Args& args) {
  api::BackendOptions backend = BackendFromArgs(args, "remote");
  const std::unique_ptr<api::Engine> engine = api::MakeEngine(backend);
  const bool prom = args.Has("prom");
  const bool watch = args.Has("watch");
  for (;;) {
    const obs::MetricsSnapshot snap = api::Metrics(*engine);
    if (watch) std::printf("\033[2J\033[H");
    if (prom) {
      std::printf("%s", obs::WritePrometheusText(snap).c_str());
    } else {
      PrintSnapshotTables(snap);
    }
    if (!watch) break;
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(2));
  }
  return 0;
}

int CmdList() {
  std::printf("machines (Table I):\n");
  for (const MachineProfile& profile : Table1Profiles()) {
    std::printf("  %-16s %3d days, apps:", profile.name.c_str(), profile.days);
    for (const std::string& app : profile.apps) std::printf(" [%s]", app.c_str());
    std::printf("\n");
  }
  std::printf("\napplications (Table II):\n");
  for (const AppSchema& app : AllAppSchemas()) {
    std::printf("  %-22s %-8s %4zu keys\n", app.name.c_str(), StoreKindName(app.store),
                app.total_keys());
  }
  std::printf("\nscenarios (Table III):\n");
  for (const ErrorScenario& scenario : AllScenarios()) {
    std::printf("  %2d. [%s] %s\n", scenario.id, scenario.app.c_str(),
                scenario.description.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Args args = Args::Parse(argc, argv, 2);
  try {
    if (command == "record") return CmdRecord(args);
    if (command == "stats") return CmdStats(args);
    if (command == "cluster") return CmdCluster(args);
    if (command == "snapshot") return CmdSnapshot(args);
    if (command == "history") return CmdHistory(args);
    if (command == "repair") return CmdRepair(args);
    if (command == "serve") return CmdServe(args);
    if (command == "promote") return CmdPromote(args);
    if (command == "replstat") return CmdReplstat(args);
    if (command == "remote") return CmdRemote(args);
    if (command == "batch") return CmdBatch(args);
    if (command == "metrics") return CmdMetrics(args);
    if (command == "list") return CmdList();
  } catch (const std::exception& e) {
    // Error and all its subclasses, plus stray std::stod/stoll failures:
    // the CLI contract is `error: ...` + exit 1, never a crash.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return Usage();
}
