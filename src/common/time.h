// Simulated time for deterministic trace generation and replay.
//
// Everything in this repository runs on simulated time: trace generation,
// the TTKV version history, the repair search's cost model. Internally time
// is kept at microsecond resolution; the trace recorder quantises to whole
// seconds to reproduce the paper's 1-second timestamp granularity (the
// source of the window-size artifact in Figure 3a).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace ocasta {

// Microseconds since the (simulated) epoch.
using TimeMicros = int64_t;

inline constexpr TimeMicros kMicrosPerSecond = 1'000'000;
inline constexpr TimeMicros kMicrosPerMinute = 60 * kMicrosPerSecond;
inline constexpr TimeMicros kMicrosPerHour = 60 * kMicrosPerMinute;
inline constexpr TimeMicros kMicrosPerDay = 24 * kMicrosPerHour;

constexpr TimeMicros Seconds(double s) {
  return static_cast<TimeMicros>(s * static_cast<double>(kMicrosPerSecond));
}
constexpr TimeMicros Minutes(double m) { return Seconds(m * 60.0); }
constexpr TimeMicros Hours(double h) { return Minutes(h * 60.0); }
constexpr TimeMicros Days(double d) { return Hours(d * 24.0); }

// Truncates a timestamp to whole-second resolution, mirroring the paper's
// trace-collection infrastructure which "only records the update time of
// configuration settings to the precision of the nearest second".
constexpr TimeMicros QuantizeToSecond(TimeMicros t) {
  return (t / kMicrosPerSecond) * kMicrosPerSecond;
}

// Renders a duration as "mm:ss" (used by the Table IV recovery harness).
std::string FormatMinSec(TimeMicros d);

// Renders a timestamp as "day N hh:mm:ss" for human-readable trace dumps.
std::string FormatTimestamp(TimeMicros t);

// A manually-advanced clock. The workload generator advances it as it
// simulates user sessions; the repair controller advances it according to
// its cost model.
class SimClock {
 public:
  explicit SimClock(TimeMicros start = 0) : now_(start) {}

  TimeMicros now() const { return now_; }
  void advance(TimeMicros delta) { now_ += delta; }
  void advance_to(TimeMicros t) {
    if (t > now_) now_ = t;
  }

 private:
  TimeMicros now_;
};

// The engines' stamp clock for operations sent with timestamp 0: stamps
// follow the wall clock (microseconds since the Unix epoch) but strictly
// increase, even when the wall clock stalls or steps back. Lock-free and
// safe to share between threads.
class StampClock {
 public:
  // Reserves `count` (>= 1) consecutive stamps with one CAS and returns
  // the first. Every stamp exceeds all earlier ones and every AdvanceTo.
  TimeMicros Next(size_t count = 1);

  // Moves the clock to at least `t`, so restored or replicated history is
  // never stamped over.
  void AdvanceTo(TimeMicros t);

 private:
  std::atomic<TimeMicros> last_{0};
};

}  // namespace ocasta
