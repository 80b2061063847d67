#include <gtest/gtest.h>

#include <ostream>

#include "common/error.h"
#include "ttkv/serialize.h"
#include "ttkv/ttkv.h"
#include "ttkv/value.h"

namespace ocasta {

// gtest prints a type that has no printer as its raw object bytes, which for
// a Value include heap pointers; ctest names embed that print, so they would
// change from one build to the next.
void PrintTo(const Value& value, std::ostream* os) {
  switch (value.type()) {
    case ValueType::kNone:
      *os << "none";
      return;
    case ValueType::kBool:
      *os << (value.as_bool() ? "true" : "false");
      return;
    case ValueType::kInt:
      *os << value.as_int();
      return;
    case ValueType::kReal:
      *os << "real " << value.as_real();
      return;
    case ValueType::kString:
      *os << ::testing::PrintToString(value.as_string());
      return;
    case ValueType::kStringList:
      *os << ::testing::PrintToString(value.as_list());
      return;
  }
}

namespace {

// ----- Value ---------------------------------------------------------------------

TEST(Value, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNone);
  EXPECT_TRUE(Value().is_none());
  EXPECT_EQ(Value(true).as_bool(), true);
  EXPECT_EQ(Value(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).as_real(), 2.5);
  EXPECT_EQ(Value("hi").as_string(), "hi");
  EXPECT_EQ(Value(std::vector<std::string>{"a", "b"}).as_list().size(), 2u);
}

TEST(Value, AccessorTypeMismatchThrows) {
  EXPECT_THROW(Value(42).as_bool(), StoreError);
  EXPECT_THROW(Value("x").as_int(), StoreError);
  EXPECT_THROW(Value().as_string(), StoreError);
  EXPECT_THROW(Value("x").as_number(), StoreError);
}

TEST(Value, AsNumberCoerces) {
  EXPECT_DOUBLE_EQ(Value(true).as_number(), 1.0);
  EXPECT_DOUBLE_EQ(Value(7).as_number(), 7.0);
  EXPECT_DOUBLE_EQ(Value(1.5).as_number(), 1.5);
}

TEST(Value, Equality) {
  EXPECT_EQ(Value(1), Value(1));
  EXPECT_NE(Value(1), Value(2));
  EXPECT_NE(Value(1), Value("1"));  // Int vs string.
  EXPECT_NE(Value(true), Value(1));
  EXPECT_EQ(Value(), Value());
}

struct DisplayCase {
  Value value;
  std::string display;
};

void PrintTo(const DisplayCase& c, std::ostream* os) { *os << ::testing::PrintToString(c.value); }

class ValueDisplayTest : public ::testing::TestWithParam<DisplayCase> {};

TEST_P(ValueDisplayTest, DisplayRoundTrips) {
  const DisplayCase& c = GetParam();
  EXPECT_EQ(c.value.ToDisplay(), c.display);
  EXPECT_EQ(Value::ParseDisplay(c.value.type(), c.display), c.value);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ValueDisplayTest,
    ::testing::Values(DisplayCase{Value(true), "true"}, DisplayCase{Value(false), "false"},
                      DisplayCase{Value(-17), "-17"}, DisplayCase{Value("plain"), "plain"},
                      DisplayCase{Value(std::vector<std::string>{"a", "b"}), "a;b"},
                      DisplayCase{Value(std::vector<std::string>{"with;semi", "x"}),
                                  "with\\ssemi;x"},
                      DisplayCase{Value(std::vector<std::string>{}), ""}));

TEST(Value, EstimatedBytesGrowsWithContent) {
  EXPECT_LT(Value(true).EstimatedBytes(), Value(std::string(100, 'x')).EstimatedBytes());
}

// ----- Binary serialization ---------------------------------------------------------

TEST(BinarySerialize, PrimitivesRoundTrip) {
  BinaryWriter w;
  w.u8(7);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello");
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.at_end());
}

TEST(BinarySerialize, TruncationThrows) {
  BinaryWriter w;
  w.u64(1);
  BinaryReader r(std::string_view(w.buffer()).substr(0, 3));
  EXPECT_THROW(r.u64(), ParseError);
}

class ValueBinaryTest : public ::testing::TestWithParam<Value> {};

TEST_P(ValueBinaryTest, RoundTrips) {
  BinaryWriter w;
  w.value(GetParam());
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.value(), GetParam());
  EXPECT_TRUE(r.at_end());
}

INSTANTIATE_TEST_SUITE_P(Cases, ValueBinaryTest,
                         ::testing::Values(Value(), Value(true), Value(false), Value(-5),
                                           Value(2.75), Value(""), Value("text"),
                                           Value(std::vector<std::string>{}),
                                           Value(std::vector<std::string>{"x", "", "z"})));

// ----- TTKV ---------------------------------------------------------------------------

TEST(Ttkv, LatestReflectsWritesAndDeletes) {
  TTKV ttkv;
  EXPECT_EQ(ttkv.latest("k"), std::nullopt);
  ttkv.record_write("k", Value(1), Seconds(1));
  EXPECT_EQ(ttkv.latest("k"), Value(1));
  ttkv.record_write("k", Value(2), Seconds(2));
  EXPECT_EQ(ttkv.latest("k"), Value(2));
  ttkv.record_delete("k", Seconds(3));
  EXPECT_EQ(ttkv.latest("k"), std::nullopt);
}

TEST(Ttkv, ValueAtTimeTravels) {
  TTKV ttkv;
  ttkv.record_write("k", Value("v1"), Seconds(10));
  ttkv.record_write("k", Value("v2"), Seconds(20));
  ttkv.record_delete("k", Seconds(30));
  ttkv.record_write("k", Value("v3"), Seconds(40));

  EXPECT_EQ(ttkv.value_at("k", Seconds(5)), std::nullopt);   // Before first write.
  EXPECT_EQ(ttkv.value_at("k", Seconds(10)), Value("v1"));   // Inclusive.
  EXPECT_EQ(ttkv.value_at("k", Seconds(15)), Value("v1"));
  EXPECT_EQ(ttkv.value_at("k", Seconds(25)), Value("v2"));
  EXPECT_EQ(ttkv.value_at("k", Seconds(35)), std::nullopt);  // Tombstoned.
  EXPECT_EQ(ttkv.value_at("k", Seconds(50)), Value("v3"));
  EXPECT_EQ(ttkv.value_at("unknown", Seconds(50)), std::nullopt);
}

TEST(Ttkv, OutOfOrderWritesThrow) {
  TTKV ttkv;
  ttkv.record_write("k", Value(1), Seconds(10));
  EXPECT_THROW(ttkv.record_write("k", Value(2), Seconds(5)), StoreError);
  EXPECT_THROW(ttkv.record_delete("k", Seconds(5)), StoreError);
  // Equal timestamps are fine (1-second quantisation produces them).
  ttkv.record_write("k", Value(3), Seconds(10));
}

TEST(Ttkv, KeyIdsAreDenseAndStable) {
  TTKV ttkv;
  ttkv.record_write("a", Value(1), 0);
  ttkv.record_write("b", Value(1), 0);
  ttkv.record_write("a", Value(2), Seconds(1));
  EXPECT_EQ(ttkv.key_id("a"), 0u);
  EXPECT_EQ(ttkv.key_id("b"), 1u);
  EXPECT_EQ(ttkv.key_name(0), "a");
  EXPECT_THROW(ttkv.key_id("zz"), StoreError);
  EXPECT_THROW(ttkv.key_name(9), StoreError);
}

TEST(Ttkv, WriteEventsSortedAndComplete) {
  TTKV ttkv;
  ttkv.record_write("a", Value(1), Seconds(5));
  ttkv.record_write("b", Value(1), Seconds(1));
  ttkv.record_delete("a", Seconds(9));
  const auto events = ttkv.write_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].timestamp, Seconds(1));
  EXPECT_EQ(events[1].timestamp, Seconds(5));
  EXPECT_TRUE(events[2].is_delete);
}

TEST(Ttkv, ModifiedKeyIdsExcludesReadOnlyKeys) {
  TTKV ttkv;
  ttkv.record_write("w", Value(1), 0);
  ttkv.record_read("r", 0);
  ttkv.record_reads("r2", 100);
  EXPECT_EQ(ttkv.modified_key_ids(), std::vector<uint32_t>{ttkv.key_id("w")});
  EXPECT_EQ(ttkv.num_keys(), 3u);  // Read-only keys still counted as accessed.
}

TEST(Ttkv, StatsCountEverything) {
  TTKV ttkv;
  ttkv.record_write("a", Value(1), 0);
  ttkv.record_write("a", Value(2), Seconds(1));
  ttkv.record_delete("a", Seconds(2));
  ttkv.record_reads("a", 50);
  ttkv.record_read("b", 0);
  const TtkvStats stats = ttkv.stats();
  EXPECT_EQ(stats.writes, 3u);  // Deletions fold into writes (Table I).
  EXPECT_EQ(stats.deletes, 1u);
  EXPECT_EQ(stats.reads, 51u);
  EXPECT_EQ(stats.num_keys, 2u);
  EXPECT_GT(stats.size_bytes, 0u);
}

TEST(Ttkv, SerializeRoundTripsExactly) {
  TTKV ttkv;
  ttkv.record_write("app/x", Value("hello"), Seconds(1));
  ttkv.record_write("app/y", Value(std::vector<std::string>{"a", "b"}), Seconds(2));
  ttkv.record_delete("app/x", Seconds(3));
  ttkv.record_reads("app/z", 7);
  const TTKV restored = TTKV::Deserialize(ttkv.Serialize());
  EXPECT_EQ(restored, ttkv);
  EXPECT_EQ(restored.value_at("app/x", Seconds(2)), Value("hello"));
  EXPECT_EQ(restored.stats().reads, 7u);
}

TEST(Ttkv, DeserializeRejectsGarbage) {
  EXPECT_THROW(TTKV::Deserialize("not a snapshot"), ParseError);
  std::string valid = TTKV().Serialize();
  EXPECT_THROW(TTKV::Deserialize(valid + "trailing"), ParseError);
}

// A populated snapshot exercising every value type, used by the corruption
// tests below.
std::string SampleSnapshotBytes() {
  TTKV ttkv;
  ttkv.record_write("app/bool", Value(true), Seconds(1));
  ttkv.record_write("app/int", Value(-42), Seconds(2));
  ttkv.record_write("app/real", Value(2.5), Seconds(3));
  ttkv.record_write("app/str", Value("hello"), Seconds(4));
  ttkv.record_write("app/list", Value(std::vector<std::string>{"a", "b"}), Seconds(5));
  ttkv.record_delete("app/str", Seconds(6));
  ttkv.record_reads("app/int", 3);
  return ttkv.Serialize();
}

// Truncating a valid snapshot at ANY byte boundary must raise ParseError —
// never crash, hang, or silently return a partial store.
TEST(Ttkv, DeserializeRejectsEveryTruncation) {
  const std::string bytes = SampleSnapshotBytes();
  ASSERT_GT(bytes.size(), 100u);
  for (size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW(TTKV::Deserialize(bytes.substr(0, n)), ParseError) << "prefix length " << n;
  }
}

TEST(Ttkv, DeserializeRejectsBadValueTag) {
  // The last record is app/list; its value starts tag(1) + count(4) +
  // 2 × (len(4) + 1 byte) = 15 bytes from the end.
  std::string bytes = SampleSnapshotBytes();
  const size_t tag_pos = bytes.size() - 15;
  ASSERT_EQ(static_cast<uint8_t>(bytes[tag_pos]), static_cast<uint8_t>(ValueType::kStringList));
  bytes[tag_pos] = '\x2a';
  EXPECT_THROW(TTKV::Deserialize(bytes), ParseError);
}

TEST(Ttkv, DeserializeRejectsOversizedStringListCount) {
  // Patch app/list's element count (the 4 bytes after its value tag) to
  // 0xffffffff: it must fail cleanly instead of reserving 4G strings.
  std::string bytes = SampleSnapshotBytes();
  const size_t count_pos = bytes.size() - 14;
  for (size_t i = 0; i < 4; ++i) bytes[count_pos + i] = '\xff';
  EXPECT_THROW(TTKV::Deserialize(bytes), ParseError);
}

TEST(Ttkv, DeserializeRejectsOversizedRecordAndVersionCounts) {
  // Record count lives at offset 13 (magic 4 + version 1 + reads 8).
  std::string bytes = SampleSnapshotBytes();
  for (size_t i = 0; i < 8; ++i) bytes[13 + i] = '\x7f';
  EXPECT_THROW(TTKV::Deserialize(bytes), ParseError);

  // Version count of the first record: offset 21 (header) + str "app/bool"
  // (4 + 8) + three counters (24).
  bytes = SampleSnapshotBytes();
  const size_t version_count_pos = 21 + 12 + 24;
  for (size_t i = 0; i < 8; ++i) bytes[version_count_pos + i] = '\x7f';
  EXPECT_THROW(TTKV::Deserialize(bytes), ParseError);
}

TEST(Ttkv, ImportRecordMergesAndValidates) {
  TTKV source;
  source.record_write("k", Value(1), Seconds(1));
  source.record_write("k", Value(2), Seconds(2));
  source.record_reads("k", 5);

  TTKV merged;
  merged.ImportRecord(source.record("k"));
  EXPECT_EQ(merged.latest("k"), Value(2));
  EXPECT_EQ(merged.stats().reads, 5u);
  EXPECT_TRUE(merged == source);

  EXPECT_THROW(merged.ImportRecord(source.record("k")), StoreError);  // Duplicate key.
  VersionedRecord unordered;
  unordered.key = "bad";
  unordered.versions = {Version{.timestamp = Seconds(2), .value = Value(1), .is_delete = false},
                        Version{.timestamp = Seconds(1), .value = Value(2), .is_delete = false}};
  EXPECT_THROW(merged.ImportRecord(unordered), StoreError);
}

TEST(VersionedRecord, FirstLastModified) {
  TTKV ttkv;
  ttkv.record_write("k", Value(1), Seconds(4));
  ttkv.record_write("k", Value(2), Seconds(9));
  const VersionedRecord& record = ttkv.record("k");
  EXPECT_EQ(record.first_modified(), Seconds(4));
  EXPECT_EQ(record.last_modified(), Seconds(9));
  EXPECT_EQ(record.write_count, 2u);
}

// ----- Compaction -----------------------------------------------------------------

TEST(Ttkv, CompactBeforePreservesQueriesAtOrAfterHorizon) {
  TTKV ttkv;
  for (int i = 0; i < 10; ++i) ttkv.record_write("k", Value(i), Seconds(i * 10));
  ttkv.record_delete("d", Seconds(5));
  const TimeMicros horizon = Seconds(45);

  TTKV reference = TTKV::Deserialize(ttkv.Serialize());
  const size_t dropped = ttkv.CompactBefore(horizon);
  EXPECT_EQ(dropped, 4u);  // Versions at 0,10,20,30 gone; 40 survives as anchor.

  for (TimeMicros t = horizon; t <= Seconds(100); t += Seconds(5)) {
    EXPECT_EQ(ttkv.value_at("k", t), reference.value_at("k", t)) << "t=" << t;
    EXPECT_EQ(ttkv.value_at("d", t), reference.value_at("d", t)) << "t=" << t;
  }
  // Lifetime counters unaffected.
  EXPECT_EQ(ttkv.record("k").write_count, 10u);
  // New writes continue normally after compaction.
  ttkv.record_write("k", Value(99), Seconds(200));
  EXPECT_EQ(ttkv.latest("k"), Value(99));
}

TEST(Ttkv, CompactBeforeZeroIsNoOp) {
  TTKV ttkv;
  ttkv.record_write("k", Value(1), Seconds(10));
  EXPECT_EQ(ttkv.CompactBefore(0), 0u);
  EXPECT_EQ(ttkv.CompactBefore(Seconds(10)), 0u);  // Nothing strictly older.
  EXPECT_EQ(ttkv.record("k").versions.size(), 1u);
}

TEST(Ttkv, CompactShrinksFootprint) {
  TTKV ttkv;
  for (int i = 0; i < 200; ++i) {
    ttkv.record_write("k", Value("some longer value " + std::to_string(i)), Seconds(i));
  }
  const size_t before = ttkv.stats().size_bytes;
  ttkv.CompactBefore(Seconds(150));
  EXPECT_LT(ttkv.stats().size_bytes, before / 2);
}

// Property: value_at at each version timestamp equals that version's value.
TEST(Ttkv, ValueAtMatchesEveryVersion) {
  TTKV ttkv;
  for (int i = 0; i < 50; ++i) {
    ttkv.record_write("k", Value(i), Seconds(i * 3));
  }
  const VersionedRecord& record = ttkv.record("k");
  for (const Version& version : record.versions) {
    EXPECT_EQ(record.value_at(version.timestamp), version.value);
    if (version.timestamp > 0) {
      EXPECT_NE(record.value_at(version.timestamp - 1), version.value);
    }
  }
}

}  // namespace
}  // namespace ocasta
