// MetricsRegistry — named, labeled counters / gauges / latency histograms.
//
// Usage model: a component that wants instrumentation is handed an
// optional `MetricsRegistry*` (null = metrics off, and every
// instrumentation site collapses to one branch — no clock reads, no
// atomics). At construction time it resolves the instruments it needs:
//
//   obs::Counter& puts =
//       registry->GetCounter("ocasta_engine_ops_total", {{"op", "put"}});
//
// and on the hot path only touches the returned handle. The handles are
// pointer-stable for the registry's lifetime (instruments are never
// removed), so components cache raw pointers.
//
// Identity is (name, label set): Get* with the same name and the same
// label pairs (order-insensitive — labels are canonicalized by sorting
// on key) returns the SAME instrument, so two subsystems incrementing
// "ocasta_wal_records_total" share one counter. Requesting an existing
// name with a different instrument kind throws Error.
//
// Locking: registration and Snapshot() serialize on one ordered_mutex
// (lockdep rank kObsRegistryClass = 97 — above every engine/WAL/loop
// lock because a METRICS inside a logged batch is answered under
// DurableEngine::mu_; nothing is ever acquired under it). The record
// path — Counter::Inc, Gauge::Set, LatencyHistogram::Record — never sees
// this mutex: it is purely relaxed atomics on pre-resolved handles.
//
// There is deliberately no global default registry: the daemon creates
// one in ServerOptions and threads it through engine / WAL / event loop,
// which keeps tests hermetic and makes "metrics off" a true null.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/lockdep.h"
#include "obs/histogram.h"

namespace ocasta::obs {

// Label pairs, canonicalized (sorted by key) inside the registry.
using Labels = std::vector<std::pair<std::string, std::string>>;

// Monotonic counter. Inc-only by contract; the exposition layer renders
// it as a Prometheus counter.
class Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

// Point-in-time signed value (live connections, queue depth, ...).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  void Sub(int64_t d) { v_.fetch_sub(d, std::memory_order_relaxed); }
  // Ratchets upward only — used for peaks (e.g. peak connections).
  void SetMax(int64_t v) {
    int64_t prev = v_.load(std::memory_order_relaxed);
    while (v > prev &&
           !v_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// A point-in-time copy of every instrument, sorted by (name, labels).
// This is the payload of the METRICS wire op (encoded by api/codec) and
// the input to the Prometheus text writer — plain data, no atomics.
struct MetricsSnapshot {
  struct CounterEntry {
    std::string name;
    Labels labels;
    uint64_t value = 0;
    bool operator==(const CounterEntry&) const = default;
  };
  struct GaugeEntry {
    std::string name;
    Labels labels;
    int64_t value = 0;
    bool operator==(const GaugeEntry&) const = default;
  };
  struct HistogramEntry {
    std::string name;
    Labels labels;
    HistogramStats stats;
    bool operator==(const HistogramEntry&) const = default;
  };

  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;
  std::vector<HistogramEntry> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  bool operator==(const MetricsSnapshot&) const = default;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create; returned references stay valid for the registry's
  // lifetime. Throws common::Error (via api error machinery) when the
  // name already exists as a different instrument kind.
  Counter& GetCounter(std::string_view name, const Labels& labels = {})
      OCASTA_EXCLUDES(mu_);
  Gauge& GetGauge(std::string_view name, const Labels& labels = {})
      OCASTA_EXCLUDES(mu_);
  LatencyHistogram& GetHistogram(std::string_view name,
                                 const Labels& labels = {})
      OCASTA_EXCLUDES(mu_);

  MetricsSnapshot Snapshot() const OCASTA_EXCLUDES(mu_);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Instrument {
    std::string name;
    Labels labels;  // Canonical (key-sorted).
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<LatencyHistogram> histogram;
  };

  Instrument& GetOrCreate(std::string_view name, const Labels& labels,
                          Kind kind) OCASTA_EXCLUDES(mu_);

  mutable lockdep::ordered_mutex mu_{lockdep::kObsRegistryClass};
  // Keyed by name + '\x1f' + canonical labels; std::map keeps snapshots
  // sorted and never invalidates the unique_ptr targets.
  std::map<std::string, std::unique_ptr<Instrument>> instruments_
      OCASTA_GUARDED_BY(mu_);
};

}  // namespace ocasta::obs
