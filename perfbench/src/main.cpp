// perfbench — the repository benchmark binary (run.py builds and runs it;
// see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>] [--trace-dir <dir>] [--commit <id>]
//             [--source-sha256 <hex>]
//
// Prints an "# env" stamp line, a "# details" line, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics; traced runs first repeat the
// workload untraced, then run it traced, and report the per-layer metrics
// plus the tracing overhead between the two. Exit code 0 when every
// correctness check passed, 1 when one failed (the result line is still
// printed), 2 on a usage or set-up error (no result line).
#include <sys/statfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},         {"rss_mb", "MiB"},       {"ok_ratio", "ratio"},
    {"main_p50_us", "us"},    {"main_p90_us", "us"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"api.codec.encode_ns", "ns"},
    {"api.codec.decode_ns", "ns"},
    {"server.loop.frames_per_wakeup", "ratio"},
    {"server.loop.frame_ns_p50", "ns"},
    {"server.loop.frame_ns_p99", "ns"},
    {"server.engine.apply_ns_p50.get", "ns"},
    {"server.engine.apply_ns_p99.get", "ns"},
    {"server.engine.apply_ns_p50.put", "ns"},
    {"server.engine.apply_ns_p99.put", "ns"},
    {"server.engine.direct_ns_per_op", "ns"},
    {"persist.wal.commit_width", "ratio"},
    {"persist.wal.fsync_ns_p50", "ns"},
    {"persist.wal.fsync_ns_p99", "ns"},
    {"persist.wal.append_ns_p50", "ns"},
    {"persist.wal.bytes_per_put", "B"},
    {"replica.lag_records_p99", "records"},
    {"replica.quorum_wait_ns_p50", "ns"},
    {"replica.quorum_wait_ns_p99", "ns"},
    {"replica.quorum_timeouts", "count"},
    {"logger.record_ms.registry", "ms"},
    {"logger.record_ms.gconf", "ms"},
    {"logger.record_ms.file", "ms"},
    {"ttkv.build_ms", "ms"},
    {"clustering.cluster_ms", "ms"},
    {"repair.search_ms", "ms"},
    {"repair.trials", "count"},
    {"scenarios.self_ms", "ms"},
    {"obs.trace_overhead_pct", "%"},
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ingest_leader|ingest_quorum|launch_reads|diagnose_offline --seed N "
               "--seconds S --trace 0|1 [--scratch DIR] [--trace-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

// Orders `have` as `want` and checks nothing is missing or extra, so every
// run of every workload reports the same metric set.
std::vector<Metric> Canonical(const std::vector<Metric>& have,
                              const std::vector<std::pair<const char*, const char*>>& want) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : have) {
    if (!by_name.emplace(m.name, m).second) throw std::runtime_error("duplicate metric " + m.name);
  }
  std::vector<Metric> out;
  for (const auto& [name, unit] : want) {
    auto it = by_name.find(name);
    if (it == by_name.end()) throw std::runtime_error(std::string("missing metric ") + name);
    if (it->second.unit != unit) throw std::runtime_error(std::string("unit of ") + name);
    out.push_back(it->second);
    by_name.erase(it);
  }
  if (!by_name.empty()) throw std::runtime_error("unexpected metric " + by_name.begin()->first);
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string FilesystemOf(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x2FC12FC1: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

void Dispatch(const RunOptions& options, Tracer& tracer, RunReport& report) {
  if (options.workload == "ingest_leader") {
    RunIngest(options, /*quorum=*/false, tracer, report);
  } else if (options.workload == "ingest_quorum") {
    RunIngest(options, /*quorum=*/true, tracer, report);
  } else if (options.workload == "launch_reads") {
    RunLaunchReads(options, tracer, report);
  } else if (options.workload == "diagnose_offline") {
    RunDiagnoseOffline(options, tracer, report);
  } else {
    Usage("unknown workload: " + options.workload);
  }
}

double MetricValue(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  throw std::runtime_error("missing metric " + name);
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string commit = "unknown";
  std::string source_sha = "unknown";
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string value = argv[++i];
    seen.insert(flag);
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--scratch") {
      options.scratch_dir = value;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--source-sha256") {
      source_sha = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (seen.count(required) == 0) Usage(std::string("missing ") + required);
  }
  if (options.scratch_dir.empty()) options.scratch_dir = ".bench_build/perfbench-tmp";
  if (options.trace_dir.empty()) options.trace_dir = ".bench_build/perfbench-traces";
  std::filesystem::create_directories(options.scratch_dir);

  const std::string env =
      std::string("{\"workload\": ") + JsonString(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"seconds\": " + JsonNumber(options.seconds) +
      ", \"trace\": " + (options.trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
      ", \"cpu_model\": " + JsonString(CpuModel()) +
      ", \"data_dir_fs\": " + JsonString(FilesystemOf(options.scratch_dir)) +
      ", \"compiler\": " + JsonString(__VERSION__) + ", \"commit\": " + JsonString(commit) +
      ", \"source_sha256\": " + JsonString(source_sha) + "}";
  std::printf("# env %s\n", env.c_str());
  std::fflush(stdout);

  RunReport report;
  std::vector<Metric> final_metrics;
  if (!options.trace) {
    Tracer tracer(false);
    Dispatch(options, tracer, report);
    final_metrics = Canonical(report.metrics, kEndToEnd);
    report.details.insert(report.details.end(), report.layers.begin(), report.layers.end());
  } else {
    // Untraced reference first, then the traced run; both must be correct.
    RunReport reference;
    {
      Tracer off(false);
      Dispatch(options, off, reference);
    }
    Tracer tracer(true);
    Dispatch(options, tracer, report);
    const double before = MetricValue(reference.metrics, "main_p50_us");
    const double after = MetricValue(report.metrics, "main_p50_us");
    report.Layer("obs.trace_overhead_pct", before > 0 ? 100.0 * (after - before) / before : 0,
                 "%");
    for (const Metric& m : report.metrics) report.Detail("traced." + m.name, m.value, m.unit);
    for (const Metric& m : reference.metrics) report.Detail("untraced." + m.name, m.value, m.unit);
    for (const std::string& why : reference.problems) report.Fail("untraced: " + why);
    report.attempted += reference.attempted;
    report.failed += reference.failed;
    report.Detail("trace.spans", static_cast<double>(tracer.size()), "count");
    final_metrics = Canonical(report.layers, kPerLayer);

    std::filesystem::create_directories(options.trace_dir);
    const std::string path = options.trace_dir + "/" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    tracer.WriteJson(path, env);
    std::fprintf(stderr, "perfbench: wrote %zu spans to %s\n", tracer.size(), path.c_str());
  }

  std::string problems = "[";
  for (size_t i = 0; i < report.problems.size(); ++i) {
    problems += (i > 0 ? ", " : "") + JsonString(report.problems[i]);
  }
  problems += "]";
  std::printf("# details {\"problems\": %s, \"metrics\": %s}\n", problems.c_str(),
              MetricsJson(report.details).c_str());
  for (const std::string& why : report.problems) {
    std::fprintf(stderr, "perfbench: correctness check failed: %s\n", why.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              MetricsJson(final_metrics).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
