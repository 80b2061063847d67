#include "logger/trace.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <set>

#include "common/error.h"
#include "common/strings.h"

namespace ocasta {

void TraceLog::InsertEvents(std::vector<AccessEvent> new_events) {
  std::stable_sort(new_events.begin(), new_events.end(),
                   [](const AccessEvent& a, const AccessEvent& b) {
                     return a.timestamp < b.timestamp;
                   });
  std::vector<AccessEvent> merged;
  merged.reserve(events_.size() + new_events.size());
  auto it = events_.begin();
  for (AccessEvent& event : new_events) {
    while (it != events_.end() && it->timestamp <= event.timestamp) {
      merged.push_back(std::move(*it));
      ++it;
    }
    merged.push_back(std::move(event));
  }
  merged.insert(merged.end(), std::make_move_iterator(it),
                std::make_move_iterator(events_.end()));
  events_ = std::move(merged);
}

void TraceLog::RemoveEventsForKeys(const std::string& app, const std::set<std::string>& keys,
                                   TimeMicros after) {
  std::erase_if(events_, [&](const AccessEvent& event) {
    return event.timestamp >= after && event.app == app && keys.count(event.key) != 0;
  });
}

TraceLog TraceLog::FilterByApp(const std::string& app) const {
  TraceLog out;
  for (const AccessEvent& event : events_) {
    if (event.app == app) out.events_.push_back(event);
  }
  return out;
}

TraceLog TraceLog::FilterByTime(TimeMicros begin, TimeMicros end) const {
  TraceLog out;
  for (const AccessEvent& event : events_) {
    if (event.timestamp >= begin && event.timestamp < end) out.events_.push_back(event);
  }
  return out;
}

std::vector<std::string> TraceLog::AppNames() const {
  std::set<std::string> names;
  for (const AccessEvent& event : events_) names.insert(event.app);
  return {names.begin(), names.end()};
}

TraceStats TraceLog::Stats() const {
  TraceStats stats;
  std::set<std::string> keys;
  TimeMicros first = 0;
  TimeMicros last = 0;
  bool any = false;
  for (const AccessEvent& event : events_) {
    if (!any) {
      first = last = event.timestamp;
      any = true;
    } else {
      if (event.timestamp < first) first = event.timestamp;
      if (event.timestamp > last) last = event.timestamp;
    }
    keys.insert(event.key);
    switch (event.op) {
      case AccessOp::kRead: ++stats.reads; break;
      case AccessOp::kWrite: ++stats.writes; break;
      case AccessOp::kDelete:
        ++stats.writes;  // Table I folds deletions into the write count.
        ++stats.deletes;
        break;
    }
  }
  stats.num_keys = keys.size();
  stats.days = any ? static_cast<double>(last - first) / static_cast<double>(kMicrosPerDay) : 0.0;
  return stats;
}

std::string TraceLog::ToText() const {
  std::string out;
  for (const AccessEvent& e : events_) {
    out += std::to_string(e.timestamp);
    out += '\t';
    out += EscapeField(e.app, '\t');
    out += '\t';
    out += std::to_string(static_cast<int>(e.store));
    out += '\t';
    out += std::to_string(static_cast<int>(e.op));
    out += '\t';
    out += EscapeField(e.key, '\t');
    out += '\t';
    out += std::to_string(static_cast<int>(e.value.type()));
    out += '\t';
    out += EscapeField(e.value.ToDisplay(), '\t');
    out += '\n';
  }
  return out;
}

namespace {

// The whole field as a base-10 integer in [lo, hi]; nullopt otherwise.
std::optional<int64_t> ParseInRange(const std::string& field, int64_t lo, int64_t hi) {
  int64_t value = 0;
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value);
  if (field.empty() || ec != std::errc() || ptr != end || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

TraceLog TraceLog::ParseText(const std::string& text) {
  TraceLog log;
  size_t line_no = 0;
  for (const std::string& line : Split(text, '\n')) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = Split(line, '\t');
    if (fields.size() != 7) {
      throw ParseError("trace line needs 7 tab-separated fields", line_no, 1);
    }
    // Numeric fields parse strictly; an error names the field and the
    // column where it starts.
    const auto number = [&](size_t i, const char* name, int64_t lo, int64_t hi) {
      if (const std::optional<int64_t> value = ParseInRange(fields[i], lo, hi)) return *value;
      size_t column = 1;
      for (size_t j = 0; j < i; ++j) column += fields[j].size() + 1;
      throw ParseError("trace " + std::string(name) + " is not an integer in [" +
                           std::to_string(lo) + ", " + std::to_string(hi) + "]: '" + fields[i] +
                           "'",
                       line_no, column);
    };
    AccessEvent event;
    event.timestamp = number(0, "timestamp", std::numeric_limits<int64_t>::min(),
                             std::numeric_limits<int64_t>::max());
    event.app = UnescapeField(fields[1], '\t');
    event.store = static_cast<StoreKind>(
        number(2, "store kind", 0, static_cast<int64_t>(StoreKind::kFile)));
    event.op = static_cast<AccessOp>(number(3, "op", 0, static_cast<int64_t>(AccessOp::kDelete)));
    event.key = UnescapeField(fields[4], '\t');
    const auto type = static_cast<ValueType>(
        number(5, "value type", 0, static_cast<int64_t>(ValueType::kStringList)));
    event.value = Value::ParseDisplay(type, UnescapeField(fields[6], '\t'));
    log.events_.push_back(std::move(event));
  }
  return log;
}

}  // namespace ocasta
