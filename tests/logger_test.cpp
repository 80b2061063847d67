#include <gtest/gtest.h>

#include "common/error.h"
#include "configstore/file_config_store.h"
#include "logger/flush_diff.h"
#include "logger/recorder.h"
#include "logger/trace.h"

namespace ocasta {
namespace {

AccessEvent MakeEvent(TimeMicros t, const std::string& app, AccessOp op, const std::string& key,
                      Value value = Value()) {
  return AccessEvent{.timestamp = t,
                     .app = app,
                     .store = StoreKind::kGconf,
                     .op = op,
                     .key = key,
                     .value = std::move(value)};
}

// ----- TraceLog -----------------------------------------------------------------

TEST(TraceLog, StatsMatchTable1Semantics) {
  TraceLog log;
  log.OnAccess(MakeEvent(Seconds(0), "A", AccessOp::kWrite, "k1", Value(1)));
  log.OnAccess(MakeEvent(Seconds(10), "A", AccessOp::kRead, "k1"));
  log.OnAccess(MakeEvent(Days(2), "B", AccessOp::kDelete, "k2"));
  const TraceStats stats = log.Stats();
  EXPECT_EQ(stats.writes, 2u);  // Write + delete.
  EXPECT_EQ(stats.deletes, 1u);
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.num_keys, 2u);
  EXPECT_DOUBLE_EQ(stats.days, 2.0);
}

TEST(TraceLog, FiltersByAppAndTime) {
  TraceLog log;
  log.OnAccess(MakeEvent(Seconds(1), "A", AccessOp::kWrite, "k", Value(1)));
  log.OnAccess(MakeEvent(Seconds(2), "B", AccessOp::kWrite, "k", Value(2)));
  log.OnAccess(MakeEvent(Seconds(3), "A", AccessOp::kWrite, "k", Value(3)));
  EXPECT_EQ(log.FilterByApp("A").size(), 2u);
  EXPECT_EQ(log.FilterByApp("C").size(), 0u);
  EXPECT_EQ(log.FilterByTime(Seconds(2), Seconds(3)).size(), 1u);  // [begin, end).
  EXPECT_EQ(log.AppNames(), (std::vector<std::string>{"A", "B"}));
}

TEST(TraceLog, TextRoundTripsExactly) {
  TraceLog log;
  log.OnAccess(MakeEvent(123456789, "App with\ttab", AccessOp::kWrite, "key\nnewline",
                         Value("value\twith specials")));
  log.OnAccess(MakeEvent(Seconds(99), "B", AccessOp::kDelete, "k2"));
  log.OnAccess(MakeEvent(Seconds(100), "B", AccessOp::kWrite, "k3",
                         Value(std::vector<std::string>{"x", "y"})));
  const TraceLog parsed = TraceLog::ParseText(log.ToText());
  ASSERT_EQ(parsed.size(), log.size());
  for (size_t i = 0; i < log.size(); ++i) EXPECT_EQ(parsed.events()[i], log.events()[i]);
}

TEST(TraceLog, ParseRejectsMalformedLines) {
  EXPECT_THROW(TraceLog::ParseText("only\ttwo\n"), ParseError);
}

// Every numeric field (timestamp, store kind, op, value type) rejects a
// non-numeric value, trailing garbage and an out-of-range value, naming
// the field, line and column.
TEST(TraceLog, ParseRejectsMalformedNumericFields) {
  const std::vector<std::string> good = {"100", "app", "1", "1", "/k", "2", "7"};
  const auto line = [&](size_t field, const std::string& value) {
    std::vector<std::string> fields = good;
    fields[field] = value;
    std::string out = "100\tapp\t1\t1\t/k\t2\t7\n";  // A valid first line.
    for (size_t i = 0; i < fields.size(); ++i) out += (i == 0 ? "" : "\t") + fields[i];
    return out + "\n";
  };
  ASSERT_EQ(TraceLog::ParseText(line(0, "100")).size(), 2u);
  const std::vector<std::pair<size_t, std::vector<std::string>>> bad = {
      {0, {"abc", "100x", "99999999999999999999", ""}},
      {2, {"abc", "1x", "3", "-1"}},
      {3, {"abc", "1x", "3", "-1"}},
      {5, {"abc", "2x", "6", "-1"}},
  };
  for (const auto& [field, values] : bad) {
    size_t column = 1;  // Where the field starts on its line.
    for (size_t i = 0; i < field; ++i) column += good[i].size() + 1;
    for (const std::string& value : values) {
      SCOPED_TRACE("field " + std::to_string(field) + " = '" + value + "'");
      try {
        TraceLog::ParseText(line(field, value));
        ADD_FAILURE() << "accepted";
      } catch (const ParseError& e) {
        EXPECT_EQ(e.line(), 2u);
        EXPECT_EQ(e.column(), column);
        EXPECT_NE(std::string(e.what()).find("trace "), std::string::npos) << e.what();
      }
    }
  }
}

TEST(TraceLog, InsertEventsKeepsOrder) {
  TraceLog log;
  log.OnAccess(MakeEvent(Seconds(10), "A", AccessOp::kWrite, "k", Value(1)));
  log.OnAccess(MakeEvent(Seconds(30), "A", AccessOp::kWrite, "k", Value(3)));
  log.InsertEvents({MakeEvent(Seconds(20), "A", AccessOp::kWrite, "k", Value(2)),
                    MakeEvent(Seconds(5), "A", AccessOp::kWrite, "k", Value(0)),
                    MakeEvent(Seconds(40), "A", AccessOp::kWrite, "k", Value(4))});
  ASSERT_EQ(log.size(), 5u);
  for (size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log.events()[i - 1].timestamp, log.events()[i].timestamp);
  }
  EXPECT_EQ(log.events()[0].value, Value(0));
  EXPECT_EQ(log.events()[4].value, Value(4));
}

TEST(TraceLog, InsertAfterEqualTimestamps) {
  TraceLog log;
  log.OnAccess(MakeEvent(Seconds(10), "A", AccessOp::kWrite, "k", Value("existing")));
  log.InsertEvents({MakeEvent(Seconds(10), "A", AccessOp::kWrite, "k", Value("injected"))});
  EXPECT_EQ(log.events()[0].value, Value("existing"));  // Injected lands after.
  EXPECT_EQ(log.events()[1].value, Value("injected"));
}

TEST(TraceLog, RemoveEventsForKeys) {
  TraceLog log;
  log.OnAccess(MakeEvent(Seconds(1), "A", AccessOp::kWrite, "k1", Value(1)));
  log.OnAccess(MakeEvent(Seconds(5), "A", AccessOp::kWrite, "k1", Value(2)));
  log.OnAccess(MakeEvent(Seconds(5), "B", AccessOp::kWrite, "k1", Value(3)));  // Other app.
  log.OnAccess(MakeEvent(Seconds(6), "A", AccessOp::kWrite, "k2", Value(4)));  // Other key.
  log.RemoveEventsForKeys("A", {"k1"}, Seconds(5));
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.events()[0].value, Value(1));  // Before cutoff: kept.
}

// ----- Recorders ------------------------------------------------------------------

TEST(TtkvRecorder, QuantizesToSeconds) {
  TTKV ttkv;
  TtkvRecorder recorder(ttkv);
  recorder.OnAccess(MakeEvent(Seconds(1) + 700'000, "A", AccessOp::kWrite, "k", Value(1)));
  EXPECT_EQ(ttkv.record("k").versions[0].timestamp, Seconds(1));
}

TEST(TtkvRecorder, UnquantizedKeepsMicros) {
  TTKV ttkv;
  TtkvRecorder recorder(ttkv, /*quantize_to_seconds=*/false);
  recorder.OnAccess(MakeEvent(Seconds(1) + 700'000, "A", AccessOp::kWrite, "k", Value(1)));
  EXPECT_EQ(ttkv.record("k").versions[0].timestamp, Seconds(1) + 700'000);
}

TEST(PerAppRecorder, SeparatesApplications) {
  PerAppRecorder recorder;
  recorder.OnAccess(MakeEvent(Seconds(1), "A", AccessOp::kWrite, "k", Value(1)));
  recorder.OnAccess(MakeEvent(Seconds(2), "B", AccessOp::kWrite, "k", Value(2)));
  recorder.OnAccess(MakeEvent(Seconds(3), "A", AccessOp::kRead, "k"));
  EXPECT_EQ(recorder.StoreFor("A").stats().writes, 1u);
  EXPECT_EQ(recorder.StoreFor("A").stats().reads, 1u);
  EXPECT_EQ(recorder.StoreFor("B").stats().writes, 1u);
  EXPECT_EQ(recorder.AppNames(), (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(recorder.FindStore("C"), nullptr);
}

TEST(ReplayTrace, RebuildsTtkvFromSavedTrace) {
  TraceLog log;
  log.OnAccess(MakeEvent(Seconds(1), "A", AccessOp::kWrite, "k", Value("v1")));
  log.OnAccess(MakeEvent(Seconds(2), "A", AccessOp::kDelete, "k"));
  TTKV ttkv;
  TtkvRecorder recorder(ttkv);
  ReplayTrace(TraceLog::ParseText(log.ToText()), recorder);
  EXPECT_EQ(ttkv.record("k").write_count, 1u);
  EXPECT_EQ(ttkv.record("k").delete_count, 1u);
  EXPECT_EQ(ttkv.latest("k"), std::nullopt);
}

// ----- Flush diff -----------------------------------------------------------------

TEST(FlushDiffLogger, InfersWritesAndDeletesFromFileTexts) {
  SimClock clock(Seconds(500));
  TraceLog log;
  FlushDiffLogger logger("Chrome Browser", ConfigFormat::kJson, clock, log);
  logger.OnFlush(R"({"a": 1, "b": 2})", R"({"a": 1, "c": 3})");
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.events()[0].op, AccessOp::kDelete);
  EXPECT_EQ(log.events()[0].key, "b");
  EXPECT_EQ(log.events()[1].op, AccessOp::kWrite);
  EXPECT_EQ(log.events()[1].key, "c");
  EXPECT_EQ(log.events()[1].value, Value(3));
  EXPECT_EQ(log.events()[1].timestamp, Seconds(500));
  EXPECT_EQ(log.events()[1].store, StoreKind::kFile);
}

TEST(FlushDiffLogger, AttachObservesStoreFlushes) {
  SimClock clock;
  TraceLog log;
  FileConfigStore store(ConfigFormat::kIni);
  FlushDiffLogger logger("App", ConfigFormat::kIni, clock, log);
  logger.Attach(store);
  store.Write("view/zoom", Value(2));
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.events()[0].key, "view/zoom");
}

TEST(FlushDiffLogger, CollapsesIntermediateWrites) {
  // The paper: "if they do not [flush after each modification], Ocasta will
  // not be able to tell if a key was modified several times between
  // flushes."
  SimClock clock;
  TraceLog log;
  FileConfigStore store(ConfigFormat::kIni, /*auto_flush=*/false);
  FlushDiffLogger logger("App", ConfigFormat::kIni, clock, log);
  logger.Attach(store);
  store.Write("k", Value(1));
  store.Write("k", Value(2));
  store.Write("k", Value(3));
  store.Flush();
  ASSERT_EQ(log.size(), 1u);  // One observed write, final value only.
  EXPECT_EQ(log.events()[0].value, Value(3));
}

TEST(FlushDiffLogger, FormatMismatchThrows) {
  SimClock clock;
  TraceLog log;
  FileConfigStore store(ConfigFormat::kJson);
  FlushDiffLogger logger("App", ConfigFormat::kIni, clock, log);
  EXPECT_THROW(logger.Attach(store), StoreError);
}

TEST(TeeSink, FansOutToAllSinks) {
  TraceLog a;
  TraceLog b;
  TeeSink tee({&a, &b});
  tee.OnAccess(MakeEvent(0, "A", AccessOp::kWrite, "k", Value(1)));
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 1u);
}

}  // namespace
}  // namespace ocasta
