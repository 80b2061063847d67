#include <gtest/gtest.h>

#include <memory>

#include "apps/render.h"
#include "clustering/engine.h"
#include "repair/sandbox.h"
#include "repair/search.h"
#include "repair/user_model.h"
#include "repair/versions.h"

namespace ocasta {
namespace {

// ----- Sandbox ------------------------------------------------------------------------

TEST(Sandbox, OverlaysWithoutTouchingBase) {
  const ConfigMap base{{"a", Value(1)}, {"b", Value(2)}};
  SandboxStore sandbox(base, StoreKind::kGconf);
  EXPECT_EQ(sandbox.Read("a"), Value(1));
  sandbox.Write("a", Value(99));
  sandbox.Write("c", Value(3));
  sandbox.Remove("b");
  EXPECT_EQ(sandbox.Read("a"), Value(99));
  EXPECT_EQ(sandbox.Read("b"), std::nullopt);
  EXPECT_EQ(sandbox.Read("c"), Value(3));
  // Snapshot merges; base map captured at construction stays intact.
  const ConfigMap merged = sandbox.Snapshot();
  EXPECT_EQ(merged.at("a"), Value(99));
  EXPECT_EQ(merged.count("b"), 0u);
  sandbox.Reset();
  EXPECT_EQ(sandbox.Read("a"), Value(1));
  EXPECT_EQ(sandbox.Read("b"), Value(2));
  EXPECT_EQ(sandbox.Read("c"), std::nullopt);
}

TEST(Sandbox, RemoveThenRewrite) {
  SandboxStore sandbox({{"k", Value(1)}}, StoreKind::kGconf);
  EXPECT_TRUE(sandbox.Remove("k"));
  EXPECT_FALSE(sandbox.Remove("k"));
  sandbox.Write("k", Value(2));
  EXPECT_EQ(sandbox.Read("k"), Value(2));
}

TEST(Sandbox, ListKeysMergesOverlayAndBase) {
  SandboxStore sandbox({{"a/1", Value(1)}, {"a/2", Value(2)}, {"b/1", Value(3)}},
                       StoreKind::kGconf);
  sandbox.Write("a/3", Value(4));
  sandbox.Remove("a/2");
  EXPECT_EQ(sandbox.ListKeys("a/"), (std::vector<std::string>{"a/1", "a/3"}));
  EXPECT_EQ(sandbox.ListKeys("").size(), 3u);
}

TEST(Sandbox, RestoreSnapshotReplacesEverything) {
  SandboxStore sandbox({{"a", Value(1)}, {"b", Value(2)}}, StoreKind::kGconf);
  sandbox.RestoreSnapshot({{"c", Value(3)}});
  EXPECT_EQ(sandbox.Read("a"), std::nullopt);
  EXPECT_EQ(sandbox.Read("b"), std::nullopt);
  EXPECT_EQ(sandbox.Read("c"), Value(3));
}

TEST(Sandbox, SharedBaseStaysIsolated) {
  // A search's sandboxes all read through one base; no sandbox's changes
  // may show through another or reach the base.
  const ConfigMap original{{"a", Value(1)}, {"b", Value(2)}};
  const auto base = std::make_shared<const ConfigMap>(original);
  SandboxStore one(base, StoreKind::kGconf);
  SandboxStore two(base, StoreKind::kGconf);

  one.Write("a", Value(99));
  one.Write("c", Value(3));
  EXPECT_TRUE(one.Remove("b"));
  EXPECT_EQ(one.Snapshot(), (ConfigMap{{"a", Value(99)}, {"c", Value(3)}}));
  EXPECT_EQ(two.Snapshot(), original);
  EXPECT_EQ(two.ListKeys(""), (std::vector<std::string>{"a", "b"}));

  two.Write("b", Value(20));
  EXPECT_TRUE(two.Remove("a"));
  EXPECT_EQ(one.Read("a"), Value(99));
  EXPECT_EQ(one.Read("b"), std::nullopt);

  one.RestoreSnapshot({{"d", Value(4)}});
  EXPECT_EQ(one.Snapshot(), (ConfigMap{{"d", Value(4)}}));
  EXPECT_EQ(two.Snapshot(), (ConfigMap{{"b", Value(20)}}));

  one.Reset();
  EXPECT_EQ(one.Snapshot(), original);
  EXPECT_EQ(two.Snapshot(), (ConfigMap{{"b", Value(20)}}));
  two.Reset();
  EXPECT_EQ(two.Snapshot(), original);
  EXPECT_EQ(*base, original);
}

// ----- Cluster versions ------------------------------------------------------------------

TTKV HistoryFixture() {
  TTKV ttkv;
  // Cluster {a, b}: changes at 100 s (burst 100/100.4), 200 s, 300 s.
  ttkv.record_write("a", Value(1), Seconds(100));
  ttkv.record_write("b", Value(10), Seconds(100));
  ttkv.record_write("a", Value(2), Seconds(200));
  ttkv.record_write("b", Value(20), Seconds(200));
  ttkv.record_write("a", Value(3), Seconds(300));
  ttkv.record_write("b", Value(30), Seconds(300));
  return ttkv;
}

KeyCluster ClusterAB(const TTKV& ttkv) {
  KeyCluster cluster;
  cluster.keys = {ttkv.key_id("a"), ttkv.key_id("b")};
  return cluster;
}

TEST(ClusterVersions, NewestFirstWithinBounds) {
  const TTKV ttkv = HistoryFixture();
  const auto versions =
      ClusterVersions(ttkv, ClusterAB(ttkv), 0, Seconds(10000), Seconds(1));
  ASSERT_EQ(versions.size(), 3u);
  EXPECT_EQ(versions[0].change_time, Seconds(300));
  EXPECT_EQ(versions[2].change_time, Seconds(100));

  const auto bounded =
      ClusterVersions(ttkv, ClusterAB(ttkv), Seconds(150), Seconds(250), Seconds(1));
  ASSERT_EQ(bounded.size(), 1u);
  EXPECT_EQ(bounded[0].change_time, Seconds(200));
}

TEST(ClusterVersions, WindowCollapsesBursts) {
  TTKV ttkv;
  ttkv.record_write("a", Value(1), Seconds(100));
  ttkv.record_write("b", Value(1), Seconds(101));  // Same burst at 1 s window.
  ttkv.record_write("a", Value(2), Seconds(105));
  const KeyCluster cluster{.keys = {0, 1}};
  EXPECT_EQ(ClusterVersions(ttkv, cluster, 0, Seconds(1000), Seconds(1)).size(), 2u);
  EXPECT_EQ(ClusterVersions(ttkv, cluster, 0, Seconds(1000), 0).size(), 3u);
}

TEST(MaterializeBefore, ReconstructsStateBeforeChange) {
  const TTKV ttkv = HistoryFixture();
  std::vector<std::string> absent;
  const ConfigMap state = MaterializeBefore(ttkv, ClusterAB(ttkv), Seconds(300), &absent);
  EXPECT_EQ(state.at("a"), Value(2));
  EXPECT_EQ(state.at("b"), Value(20));
  EXPECT_TRUE(absent.empty());

  // Before the first change, neither key existed.
  absent.clear();
  const ConfigMap initial = MaterializeBefore(ttkv, ClusterAB(ttkv), Seconds(100), &absent);
  EXPECT_TRUE(initial.empty());
  EXPECT_EQ(absent.size(), 2u);
}

TEST(MaterializeBefore, RespectsTombstones) {
  TTKV ttkv;
  ttkv.record_write("k", Value(1), Seconds(10));
  ttkv.record_delete("k", Seconds(20));
  ttkv.record_write("k", Value(2), Seconds(30));
  KeyCluster cluster{.keys = {0}};
  std::vector<std::string> absent;
  const ConfigMap state = MaterializeBefore(ttkv, cluster, Seconds(30), &absent);
  EXPECT_TRUE(state.empty());  // Deleted just before 30 s.
  EXPECT_EQ(absent, std::vector<std::string>{"k"});
}

TEST(ApplyRollback, WritesAndDeletes) {
  SandboxStore sandbox({{"a", Value(9)}, {"gone", Value(1)}}, StoreKind::kGconf);
  ApplyRollback(sandbox, {{"a", Value(1)}, {"b", Value(2)}}, {"gone"});
  EXPECT_EQ(sandbox.Read("a"), Value(1));
  EXPECT_EQ(sandbox.Read("b"), Value(2));
  EXPECT_EQ(sandbox.Read("gone"), std::nullopt);
}

// ----- Search ---------------------------------------------------------------------------------

// Fixture: two keys always modified together; key "a" corrupted at 400 s.
// The oracle wants a = 3 (its value before the corruption).
struct SearchFixture {
  TTKV ttkv = HistoryFixture();
  ClusterSet clusters;
  ConfigMap current;
  Trial trial;
  RequiredKeyOracle oracle{{{"a", "3"}}};

  SearchFixture() {
    ttkv.record_write("a", Value(666), Seconds(400));  // The injected error.
    // Independent noisy key, modified often: sorted last by the recovery
    // order, so the offending cluster is tried first.
    for (int i = 0; i < 10; ++i) {
      ttkv.record_write("noise", Value(i), Seconds(500 + i * 10));
    }
    ClusteringParams params;
    clusters = ClusterKeys(ttkv, params);
    current = ConfigMap{{"a", Value(666)}, {"b", Value(30)}, {"noise", Value(9)}};
    trial = Trial{"App", [](ConfigStore& store) {
                    std::string text;
                    const auto a = store.Read("a");
                    const auto b = store.Read("b");
                    text += "a = " + (a ? a->ToDisplay() : "<unset>") + "\n";
                    text += "b = " + (b ? b->ToDisplay() : "<unset>") + "\n";
                    return Screenshot::FromText(text);
                  }};
  }
};

TEST(RepairSearch, DfsFindsTheFix) {
  SearchFixture f;
  RepairController controller(f.ttkv, f.clusters, f.current, StoreKind::kGconf, f.trial,
                              f.oracle);
  RepairConfig config;
  const RepairOutcome outcome = controller.Run(config);
  EXPECT_TRUE(outcome.fixed);
  EXPECT_EQ(outcome.fixed_state.at("a"), Value(3));
  EXPECT_GT(outcome.total_trials, 0u);
  EXPECT_LE(outcome.trials_to_fix, outcome.total_trials);
  EXPECT_EQ(outcome.time_to_fix,
            static_cast<TimeMicros>(outcome.trials_to_fix) * config.cost.per_trial());
}

TEST(RepairSearch, BfsFindsTheFixToo) {
  SearchFixture f;
  RepairController controller(f.ttkv, f.clusters, f.current, StoreKind::kGconf, f.trial,
                              f.oracle);
  RepairConfig config;
  config.strategy = SearchStrategy::kBfs;
  EXPECT_TRUE(controller.Run(config).fixed);
}

TEST(RepairSearch, StopAtFixShortens) {
  SearchFixture f;
  RepairController controller(f.ttkv, f.clusters, f.current, StoreKind::kGconf, f.trial,
                              f.oracle);
  RepairConfig config;
  config.stop_at_fix = true;
  const RepairOutcome outcome = controller.Run(config);
  EXPECT_TRUE(outcome.fixed);
  EXPECT_EQ(outcome.total_trials, outcome.trials_to_fix);
}

TEST(RepairSearch, StartBoundExcludesTheFix) {
  SearchFixture f;
  RepairController controller(f.ttkv, f.clusters, f.current, StoreKind::kGconf, f.trial,
                              f.oracle);
  RepairConfig config;
  config.start_time = Seconds(500);  // The corrupting write at 400 s is out of range.
  const RepairOutcome outcome = controller.Run(config);
  EXPECT_FALSE(outcome.fixed);
}

TEST(RepairSearch, EndBoundSkipsSpuriousTail) {
  // The user's end bound ("roughly when the error was first discovered")
  // prunes their own later fix attempts from the search.
  SearchFixture f;
  f.ttkv.record_write("a", Value(667), Seconds(2000));  // A failed fix attempt.
  ClusteringParams params;
  f.clusters = ClusterKeys(f.ttkv, params);
  f.current["a"] = Value(667);
  RepairController controller(f.ttkv, f.clusters, f.current, StoreKind::kGconf, f.trial,
                              f.oracle);
  RepairConfig unbounded;
  RepairConfig bounded;
  bounded.end_time = Seconds(1000);  // Before the spurious write.
  const RepairOutcome slow = controller.Run(unbounded);
  const RepairOutcome fast = controller.Run(bounded);
  EXPECT_TRUE(slow.fixed);
  EXPECT_TRUE(fast.fixed);
  EXPECT_LT(fast.total_trials, slow.total_trials);
}

TEST(RepairSearch, ScreenshotsDeduplicated) {
  SearchFixture f;
  RepairController controller(f.ttkv, f.clusters, f.current, StoreKind::kGconf, f.trial,
                              f.oracle);
  const RepairOutcome outcome = controller.Run(RepairConfig{});
  // The noise cluster renders identically to the erroneous screenshot
  // (its key is invisible), so unique screenshots stay small.
  EXPECT_LT(outcome.unique_screenshots, outcome.total_trials);
  EXPECT_GE(outcome.unique_screenshots, 1u);
}

TEST(RepairSearch, NoClustCannotFixMultiKeyError) {
  // Corrupt BOTH a and b; the oracle needs both restored together.
  SearchFixture f;
  f.ttkv = HistoryFixture();
  f.ttkv.record_write("a", Value(666), Seconds(400));
  f.ttkv.record_write("b", Value(777), Seconds(400));
  ClusteringParams params;
  f.clusters = ClusterKeys(f.ttkv, params);
  f.current = ConfigMap{{"a", Value(666)}, {"b", Value(777)}};
  const RequiredKeyOracle oracle({{"a", "3"}, {"b", "30"}});

  RepairController with_clusters(f.ttkv, f.clusters, f.current, StoreKind::kGconf, f.trial,
                                 oracle);
  EXPECT_TRUE(with_clusters.Run(RepairConfig{}).fixed);

  const ClusterSet singles = SingletonClusters(f.ttkv);
  RepairController no_clusters(f.ttkv, singles, f.current, StoreKind::kGconf, f.trial, oracle);
  EXPECT_FALSE(no_clusters.Run(RepairConfig{}).fixed);
}

TEST(SingletonClusters, OnePerModifiedKey) {
  TTKV ttkv;
  ttkv.record_write("a", Value(1), 0);
  ttkv.record_write("a", Value(2), Seconds(1));
  ttkv.record_write("b", Value(1), 0);
  ttkv.record_reads("readonly", 5);
  const ClusterSet singles = SingletonClusters(ttkv);
  ASSERT_EQ(singles.size(), 2u);
  EXPECT_EQ(singles.multi_cluster_count(), 0u);
  EXPECT_EQ(singles.cluster(0).version_count, 2u);
}

TEST(RemapClusters, CarriesClustersOntoExtendedHistory) {
  TTKV clean = HistoryFixture();
  TTKV full = HistoryFixture();
  full.record_write("a", Value(666), Seconds(400));  // Injection.
  full.record_write("new_key", Value(1), Seconds(450));

  const ClusterSet clean_clusters = ClusterKeys(clean, ClusteringParams{});
  ASSERT_EQ(clean_clusters.multi_cluster_count(), 1u);
  const ClusterSet remapped = RemapClusters(clean_clusters, clean, full, 1.0);

  // The {a, b} cluster survives even though the lone injected write would
  // have diluted its correlation below 2.
  EXPECT_EQ(remapped.cluster_of(full.key_id("a")), remapped.cluster_of(full.key_id("b")));
  // Keys only modified post-injection become singletons.
  EXPECT_NE(remapped.cluster_of(full.key_id("new_key")), ClusterSet::kNoCluster);
  // Version counts reflect the full history (3 changes + injection).
  const uint32_t c = remapped.cluster_of(full.key_id("a"));
  EXPECT_EQ(remapped.cluster(c).version_count, 4u);
}

TEST(RequiredKeyOracle, MatchesRenderedLines) {
  const RequiredKeyOracle oracle(
      std::vector<RequiredKeyOracle::Requirement>{{"k", "true"}});
  EXPECT_TRUE(oracle.LooksFixed(Screenshot::FromText("k = true\n")));
  EXPECT_FALSE(oracle.LooksFixed(Screenshot::FromText("k = false\n")));
  EXPECT_FALSE(oracle.LooksFixed(Screenshot::FromText("k = truer\n")));
}

// ----- User model -------------------------------------------------------------------------------

TEST(UserModel, NineteenParticipantsSixNonTechnical) {
  const auto participants = StudyParticipants(1);
  ASSERT_EQ(participants.size(), 19u);
  int non_technical = 0;
  for (const auto& participant : participants) non_technical += !participant.technical;
  EXPECT_EQ(non_technical, 6);
}

TEST(UserModel, ManualFailureHitsCutoff) {
  Rng rng(3);
  UserStudyErrorParams error;
  error.manual_fix_prob = 0.0;
  const auto outcome = SimulateParticipant(rng, ParticipantProfile{}, error, 3);
  EXPECT_FALSE(outcome.manual_fixed);
  EXPECT_EQ(outcome.manual_time, Minutes(5));
}

TEST(UserModel, OcastaTimeScalesWithScreenshots) {
  Rng rng(4);
  UserStudyErrorParams error;
  double few = 0;
  double many = 0;
  for (int i = 0; i < 200; ++i) {
    few += static_cast<double>(
        SimulateParticipant(rng, ParticipantProfile{}, error, 1).screenshot_selection);
    many += static_cast<double>(
        SimulateParticipant(rng, ParticipantProfile{}, error, 11).screenshot_selection);
  }
  EXPECT_LT(few, many);
}

TEST(UserModel, StudyErrorsMatchPaperCases) {
  const auto errors = UserStudyErrors();
  ASSERT_EQ(errors.size(), 4u);
  EXPECT_EQ(errors[0].error_id, 11);
  EXPECT_EQ(errors[3].error_id, 16);
  // Case 16 is the one most participants fixed by hand.
  for (const auto& error : errors) {
    if (error.error_id != 16) {
      EXPECT_LT(error.manual_fix_prob, errors[3].manual_fix_prob);
    }
  }
}

}  // namespace
}  // namespace ocasta
