#include "common/time.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace ocasta {

std::string FormatMinSec(TimeMicros d) {
  if (d < 0) d = 0;
  const int64_t total_seconds = d / kMicrosPerSecond;
  const int64_t minutes = total_seconds / 60;
  const int64_t seconds = total_seconds % 60;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld:%02lld", static_cast<long long>(minutes),
                static_cast<long long>(seconds));
  return buf;
}

std::string FormatTimestamp(TimeMicros t) {
  const int64_t day = t / kMicrosPerDay;
  int64_t rem = t % kMicrosPerDay;
  if (rem < 0) rem += kMicrosPerDay;
  const int64_t hours = rem / kMicrosPerHour;
  const int64_t minutes = (rem % kMicrosPerHour) / kMicrosPerMinute;
  const int64_t seconds = (rem % kMicrosPerMinute) / kMicrosPerSecond;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "day %lld %02lld:%02lld:%02lld",
                static_cast<long long>(day), static_cast<long long>(hours),
                static_cast<long long>(minutes), static_cast<long long>(seconds));
  return buf;
}

TimeMicros StampClock::Next(size_t count) {
  const TimeMicros wall = std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::system_clock::now().time_since_epoch())
                              .count();
  const auto span = static_cast<TimeMicros>(count);
  TimeMicros prev = last_.load(std::memory_order_relaxed);
  TimeMicros next;
  do {
    next = std::max(wall, prev + 1) + span - 1;
  } while (!last_.compare_exchange_weak(prev, next, std::memory_order_relaxed));
  return next - span + 1;
}

void StampClock::AdvanceTo(TimeMicros t) {
  TimeMicros prev = last_.load(std::memory_order_relaxed);
  while (prev < t && !last_.compare_exchange_weak(prev, t, std::memory_order_relaxed)) {
  }
}

}  // namespace ocasta
