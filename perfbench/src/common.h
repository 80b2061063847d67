// Shared pieces of the repository benchmark: run options, the result a run
// prints, latency samples, the in-memory span tracer, and scratch
// directories. Everything here lives outside the program: the benchmark
// drives the program only through its public headers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline uint64_t NanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string scratch_dir;  // Parent of every temporary data directory.
  std::string trace_dir;    // Where the traced run writes its spans.
};

// Nearest-rank percentile over a copy of the samples (q in [0, 100]).
double Percentile(std::vector<double> samples, double q);

// Median of a small set of repeated measurements.
double Median(std::vector<double> samples);

// Quantile (q in [0, 1]) with linear interpolation between order
// statistics, for small sets of values.
double Quantile(std::vector<double> values, double q);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// One metric as printed: a name, a value with all its digits, a unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one run reports. The final result line carries `metrics` in an
// untraced run and `layers` in a traced one; `details` (and, untraced, the
// free layer counters) are printed on an earlier line for people.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;  // End-to-end metrics.
  std::vector<Metric> layers;   // Per-layer metrics; most only in a traced run.
  std::vector<Metric> details;
  std::vector<std::string> problems;  // Why `correct` is false.

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    details.push_back({name, value, unit});
  }
  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

// Spans recorded around the benchmark's own calls into each layer: name,
// start, end, parent span, request id. Kept in memory and written out once
// when the run ends. A disabled tracer records nothing and costs one
// branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  // Returns the new span's id (0 when disabled).
  uint64_t Record(const char* name, Clock::time_point start, Clock::time_point end,
                  uint64_t parent = 0, uint64_t request = 0);

  // Reserves an id for a span whose end is not known yet, so children can
  // name it as parent before it is recorded with RecordWithId.
  uint64_t NextId() { return enabled_ ? next_id_.fetch_add(1) : 0; }
  void RecordWithId(uint64_t id, const char* name, Clock::time_point start,
                    Clock::time_point end, uint64_t parent = 0, uint64_t request = 0);

  size_t size() const;

  // Writes {"meta": ..., "spans": [...]} as JSON.
  void WriteJson(const std::string& path, const std::string& meta_json) const;

 private:
  struct Span {
    uint64_t id;
    const char* name;  // Always a string literal.
    int64_t start_ns;
    int64_t end_ns;
    uint64_t parent;
    uint64_t request;
  };

  const bool enabled_;
  const Clock::time_point origin_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
};

// A directory under the run's scratch parent, removed with everything in
// it when the object goes away.
class ScratchDir {
 public:
  ScratchDir(const std::string& parent, const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Workload entry points. Each fills the report for its workload; a
// correctness failure is recorded in the report, not thrown.
void RunIngest(const RunOptions& options, bool quorum, Tracer& tracer, RunReport& report);
void RunLaunchReads(const RunOptions& options, Tracer& tracer, RunReport& report);
void RunDiagnoseOffline(const RunOptions& options, Tracer& tracer, RunReport& report);

}  // namespace perfbench
