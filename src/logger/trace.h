// Trace log: an ordered record of observed configuration accesses.
//
// The deployment phase of the paper produces per-machine traces of reads,
// writes and deletions (Table I). TraceLog is the in-memory and on-disk
// representation of such a trace.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "configstore/access_event.h"

namespace ocasta {

// Summary statistics matching the paper's Table I columns.
struct TraceStats {
  double days = 0;        // Span of the trace in days.
  uint64_t reads = 0;
  uint64_t writes = 0;    // Writes + deletions, as Table I counts them.
  uint64_t deletes = 0;
  size_t num_keys = 0;    // Distinct keys accessed.

  friend bool operator==(const TraceStats&, const TraceStats&) = default;
};

class TraceLog final : public AccessSink {
 public:
  void OnAccess(const AccessEvent& event) override { events_.push_back(event); }

  const std::vector<AccessEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void clear() { events_.clear(); }

  // Inserts events while preserving global timestamp order (each event
  // lands after all existing events with timestamp <= its own). Used by
  // error injection.
  void InsertEvents(std::vector<AccessEvent> events);

  // Drops an application's events touching any of `keys` at or after
  // `after` (scenario harness: a corruption must persist to trace end).
  void RemoveEventsForKeys(const std::string& app, const std::set<std::string>& keys,
                           TimeMicros after);

  // Events for one application, preserving order.
  TraceLog FilterByApp(const std::string& app) const;

  // Events in [begin, end).
  TraceLog FilterByTime(TimeMicros begin, TimeMicros end) const;

  std::vector<std::string> AppNames() const;

  TraceStats Stats() const;

  // Tab-separated text form, one event per line (fields are escaped).
  // Round-trips exactly through ParseText, which throws ParseError (with
  // line and column) on a malformed line or numeric field.
  std::string ToText() const;
  static TraceLog ParseText(const std::string& text);

 private:
  std::vector<AccessEvent> events_;
};

// Forwards each event to several sinks (e.g. a TraceLog and a TtkvRecorder),
// mirroring how the paper's logger feeds both its log and the TTKV.
class TeeSink final : public AccessSink {
 public:
  explicit TeeSink(std::vector<AccessSink*> sinks) : sinks_(std::move(sinks)) {}
  void OnAccess(const AccessEvent& event) override {
    for (AccessSink* sink : sinks_) sink->OnAccess(event);
  }

 private:
  std::vector<AccessSink*> sinks_;
};

}  // namespace ocasta
