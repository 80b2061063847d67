#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"
#include "configstore/file_config_store.h"
#include "configstore/gconf_store.h"
#include "configstore/intercepting_store.h"
#include "configstore/registry_store.h"

namespace ocasta {
namespace {

// ----- Registry ------------------------------------------------------------------

TEST(RegistryStore, BasicReadWriteRemove) {
  RegistryStore store;
  const std::string key = "HKEY_CURRENT_USER\\Software\\App\\Setting";
  EXPECT_EQ(store.Read(key), std::nullopt);
  store.Write(key, Value(5));
  EXPECT_EQ(store.Read(key), Value(5));
  EXPECT_TRUE(store.Remove(key));
  EXPECT_FALSE(store.Remove(key));
  EXPECT_EQ(store.Read(key), std::nullopt);
}

TEST(RegistryStore, RejectsInvalidKeys) {
  RegistryStore store;
  EXPECT_THROW(store.Write("NoHive\\x", Value(1)), StoreError);
  EXPECT_THROW(store.Write("HKEY_CURRENT_USER\\\\double", Value(1)), StoreError);
  EXPECT_THROW(store.Read("relative"), StoreError);
}

TEST(RegistryStore, RegistryFlavoredApi) {
  RegistryStore store;
  store.SetValue("HKEY_CURRENT_USER\\Software\\App", "Width", Value(42));
  EXPECT_EQ(store.QueryValue("HKEY_CURRENT_USER\\Software\\App", "Width"), Value(42));
  EXPECT_TRUE(store.DeleteValue("HKEY_CURRENT_USER\\Software\\App", "Width"));
}

TEST(RegistryStore, ListKeysByPrefix) {
  RegistryStore store;
  store.Write("HKEY_CURRENT_USER\\A\\x", Value(1));
  store.Write("HKEY_CURRENT_USER\\A\\y", Value(2));
  store.Write("HKEY_CURRENT_USER\\B\\z", Value(3));
  EXPECT_EQ(store.ListKeys("HKEY_CURRENT_USER\\A\\").size(), 2u);
  EXPECT_EQ(store.ListKeys("").size(), 3u);
}

// ----- Key validation against the segment-splitting rule ------------------------

// The rules as first written: split the key into segments and reject any
// empty one. Returns the StoreError text, or "" for a valid key.
std::string SplitRuleRegistryError(const std::string& key) {
  if (!StartsWith(key, "HKEY_CURRENT_USER\\") && !StartsWith(key, "HKEY_LOCAL_MACHINE\\")) {
    return "registry key must start with a hive root: " + key;
  }
  for (const std::string& segment : Split(key, '\\')) {
    if (segment.empty()) return "registry key has an empty path segment: " + key;
  }
  return "";
}

std::string SplitRuleGconfError(const std::string& key) {
  if (key.empty() || key[0] != '/') return "gconf key must be an absolute path: " + key;
  if (key.size() == 1 || key.back() == '/') return "gconf key must not end with '/': " + key;
  for (const std::string& segment : Split(key.substr(1), '/')) {
    if (segment.empty()) return "gconf key has an empty segment: " + key;
  }
  return "";
}

// The StoreError text a write of `key` raises, or "" when it is accepted.
std::string WriteError(ConfigStore& store, const std::string& key) {
  try {
    store.Write(key, Value(1));
    return "";
  } catch (const StoreError& e) {
    return e.what();
  }
}

// Keys built from separators, hive roots and short names, so that empty
// segments, doubled separators and trailing separators all come up.
std::vector<std::string> GeneratedKeys(uint64_t seed) {
  static const char* const kPieces[] = {"HKEY_CURRENT_USER", "HKEY_LOCAL_MACHINE", "\\", "/",
                                        "Software", "a", " ", ".", "HKEY_CURRENT_USER\\"};
  Rng rng(seed);
  std::vector<std::string> keys;
  for (int i = 0; i < 2000; ++i) {
    std::string key;
    for (uint64_t n = rng.next_below(7); n > 0; --n) key += kPieces[rng.next_below(9)];
    keys.push_back(std::move(key));
  }
  return keys;
}

TEST(KeyValidation, RegistryMatchesTheSplitRule) {
  std::vector<std::string> keys = {"HKEY_CURRENT_USER\\",
                                   "HKEY_LOCAL_MACHINE\\",
                                   "HKEY_CURRENT_USER",
                                   "HKEY_CURRENT_USER\\a",
                                   "HKEY_CURRENT_USER\\a\\\\b",
                                   "HKEY_CURRENT_USER\\\\a",
                                   "HKEY_CURRENT_USER\\a\\",
                                   "HKEY_LOCAL_MACHINE\\Software\\App\\Key",
                                   "HKEY_CURRENT_USER\\a/b//c",
                                   "HKEY_CURRENT_USER\\ \\x",
                                   "hkey_current_user\\a",
                                   "HKEY_USERS\\a",
                                   "\\",
                                   ""};
  for (const std::string& key : GeneratedKeys(1)) {
    keys.push_back(key);
    keys.push_back("HKEY_CURRENT_USER\\Software\\" + key);
  }
  size_t accepted = 0;
  for (const std::string& key : keys) {
    RegistryStore store;
    const std::string expected = SplitRuleRegistryError(key);
    EXPECT_EQ(WriteError(store, key), expected) << key;
    accepted += expected.empty();
  }
  EXPECT_GT(accepted, 100u);  // Both outcomes are well covered.
  EXPECT_GT(keys.size() - accepted, 100u);
}

TEST(KeyValidation, GconfMatchesTheSplitRule) {
  std::vector<std::string> keys = {"/",      "//",      "//a",  "/a//b", "/a/b/",  "/a/b//",
                                   "///",    "/a",      "/a/b", "/a/ /b", "/a\\b", "a/b",
                                   "a",      "",        "/apps/evolution/mail/mark_seen"};
  for (const std::string& key : GeneratedKeys(2)) {
    keys.push_back(key);
    keys.push_back("/apps/" + key);
  }
  size_t accepted = 0;
  for (const std::string& key : keys) {
    GconfStore store;
    const std::string expected = SplitRuleGconfError(key);
    EXPECT_EQ(WriteError(store, key), expected) << key;
    accepted += expected.empty();
  }
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(keys.size() - accepted, 100u);
}

// ----- GConf ---------------------------------------------------------------------

TEST(GconfStore, PathValidation) {
  GconfStore store;
  store.Write("/apps/evolution/mark_seen", Value(true));
  EXPECT_THROW(store.Write("apps/x", Value(1)), StoreError);
  EXPECT_THROW(store.Write("/apps//x", Value(1)), StoreError);
  EXPECT_THROW(store.Write("/apps/x/", Value(1)), StoreError);
  EXPECT_THROW(store.Write("/", Value(1)), StoreError);
}

TEST(GconfStore, TypedGettersWithFallbacks) {
  GconfStore store;
  store.SetBool("/a/flag", true);
  store.SetInt("/a/num", 9);
  store.SetString("/a/str", "hi");
  EXPECT_TRUE(store.GetBool("/a/flag", false));
  EXPECT_EQ(store.GetInt("/a/num", -1), 9);
  EXPECT_EQ(store.GetString("/a/str", ""), "hi");
  // Fallbacks on absence and on type mismatch.
  EXPECT_FALSE(store.GetBool("/a/missing", false));
  EXPECT_EQ(store.GetInt("/a/flag", -1), -1);
}

TEST(MemoryStore, SnapshotRestoreRoundTrip) {
  GconfStore store;
  store.Write("/a/x", Value(1));
  store.Write("/a/y", Value("s"));
  const ConfigMap snapshot = store.Snapshot();
  store.Write("/a/x", Value(99));
  store.Remove("/a/y");
  store.RestoreSnapshot(snapshot);
  EXPECT_EQ(store.Read("/a/x"), Value(1));
  EXPECT_EQ(store.Read("/a/y"), Value("s"));
}

// ----- File store ------------------------------------------------------------------

TEST(FileConfigStore, AutoFlushSerializesEveryChange) {
  FileConfigStore store(ConfigFormat::kIni);
  int flushes = 0;
  store.set_flush_observer([&](const std::string&, const std::string&) { ++flushes; });
  store.Write("view/zoom", Value(2));
  EXPECT_EQ(flushes, 1);
  store.Write("view/zoom", Value(2));  // Unchanged: suppressed.
  EXPECT_EQ(flushes, 1);
  store.Write("view/zoom", Value(3));
  EXPECT_EQ(flushes, 2);
  EXPECT_NE(store.file_text().find("zoom = 3"), std::string::npos);
}

TEST(FileConfigStore, ManualFlushBatchesChanges) {
  FileConfigStore store(ConfigFormat::kJson, /*auto_flush=*/false);
  std::vector<std::pair<std::string, std::string>> flushes;
  store.set_flush_observer([&](const std::string& before, const std::string& after) {
    flushes.emplace_back(before, after);
  });
  store.Write("a", Value(1));
  store.Write("a", Value(2));  // Intermediate value invisible to observers.
  store.Write("b", Value(3));
  EXPECT_TRUE(flushes.empty());
  store.Flush();
  ASSERT_EQ(flushes.size(), 1u);
  store.Flush();  // Nothing dirty: no observer call.
  EXPECT_EQ(flushes.size(), 1u);
  const ConfigMap after = CodecFor(ConfigFormat::kJson).Parse(flushes[0].second);
  EXPECT_EQ(after.at("a"), Value(2));
  EXPECT_EQ(after.at("b"), Value(3));
}

TEST(FileConfigStore, LoadFileTextReplacesState) {
  FileConfigStore store(ConfigFormat::kPlainText);
  store.LoadFileText("x= 1\ny= hello\n");
  EXPECT_EQ(store.Read("x"), Value(1));
  EXPECT_EQ(store.Read("y"), Value("hello"));
  EXPECT_EQ(store.ListKeys("").size(), 2u);
}

// ----- Interception -----------------------------------------------------------------

class VectorSink final : public AccessSink {
 public:
  void OnAccess(const AccessEvent& event) override { events.push_back(event); }
  std::vector<AccessEvent> events;
};

TEST(InterceptingStore, LogsAllOperationsWithTimestamps) {
  RegistryStore backing;
  SimClock clock(Seconds(100));
  VectorSink sink;
  InterceptingStore store(backing, "TestApp", clock, &sink);

  store.Write("HKEY_CURRENT_USER\\A\\k", Value(1));
  clock.advance(Seconds(5));
  store.Read("HKEY_CURRENT_USER\\A\\k");
  store.Remove("HKEY_CURRENT_USER\\A\\k");
  store.Remove("HKEY_CURRENT_USER\\A\\k");  // Absent: no event.

  ASSERT_EQ(sink.events.size(), 3u);
  EXPECT_EQ(sink.events[0].op, AccessOp::kWrite);
  EXPECT_EQ(sink.events[0].value, Value(1));
  EXPECT_EQ(sink.events[0].timestamp, Seconds(100));
  EXPECT_EQ(sink.events[0].app, "TestApp");
  EXPECT_EQ(sink.events[0].store, StoreKind::kRegistry);
  EXPECT_EQ(sink.events[1].op, AccessOp::kRead);
  EXPECT_EQ(sink.events[1].timestamp, Seconds(105));
  EXPECT_EQ(sink.events[2].op, AccessOp::kDelete);
}

TEST(InterceptingStore, TransparentToTheApplication) {
  GconfStore backing;
  SimClock clock;
  VectorSink sink;
  InterceptingStore store(backing, "App", clock, &sink);
  store.Write("/a/b", Value("v"));
  EXPECT_EQ(store.Read("/a/b"), Value("v"));
  EXPECT_EQ(backing.Read("/a/b"), Value("v"));  // Forwarded to the real store.
  EXPECT_EQ(store.kind(), StoreKind::kGconf);
  EXPECT_EQ(store.Snapshot(), backing.Snapshot());
}

TEST(InterceptingStore, NullSinkDisablesMonitoring) {
  RegistryStore backing;
  SimClock clock;
  InterceptingStore store(backing, "App", clock, nullptr);
  store.Write("HKEY_CURRENT_USER\\A\\k", Value(1));  // Must not crash.
  EXPECT_EQ(store.Read("HKEY_CURRENT_USER\\A\\k"), Value(1));
}

}  // namespace
}  // namespace ocasta
