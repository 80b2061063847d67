// Property-based and failure-injection tests.
//
//  - HAC is checked against a brute-force reference implementation on
//    random sparse distance tables (all three linkages);
//  - clustering invariants (partition, threshold monotonicity) hold on
//    randomly generated TTKV histories;
//  - corrupted binary snapshots and trace files must fail cleanly with
//    ParseError — never crash or silently succeed with wrong totals;
//  - the sandbox is checked against a plain-map reference model under
//    random operation sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <tuple>

#include "clustering/engine.h"
#include "clustering/hac.h"
#include "api/engine.h"
#include "common/error.h"
#include "common/rng.h"
#include "parsers/codec.h"
#include "logger/trace.h"
#include "repair/sandbox.h"
#include "server/sharded_ttkv.h"
#include "ttkv/ttkv.h"

namespace ocasta {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ----- Brute-force HAC reference ------------------------------------------------

double LinkDistance(const std::vector<uint32_t>& a, const std::vector<uint32_t>& b,
                    const PairTable& distances, Linkage linkage) {
  double best = linkage == Linkage::kSingle ? kInf : 0.0;
  double total = 0.0;
  size_t count = 0;
  for (uint32_t x : a) {
    for (uint32_t y : b) {
      const double d = distances.Get(x, y, kInf);
      switch (linkage) {
        case Linkage::kComplete: best = std::max(best, d); break;
        case Linkage::kSingle: best = std::min(best, d); break;
        case Linkage::kAverage:
          total += d;
          ++count;
          break;
      }
    }
  }
  if (linkage == Linkage::kAverage) return count == 0 ? kInf : total / static_cast<double>(count);
  return best;
}

// O(n^3) agglomerative clustering, recomputing all linkage distances from
// the original pairwise table every round (exact for complete and single
// linkage; average linkage uses the same UPGMA arithmetic as the real
// implementation, so it matches too).
std::vector<std::vector<uint32_t>> BruteForceCluster(const std::vector<uint32_t>& ids,
                                                     const PairTable& distances, Linkage linkage,
                                                     double max_distance) {
  std::vector<std::vector<uint32_t>> clusters;
  for (uint32_t id : ids) clusters.push_back({id});
  while (clusters.size() > 1) {
    size_t best_a = 0;
    size_t best_b = 0;
    double best = kInf;
    for (size_t i = 0; i < clusters.size(); ++i) {
      for (size_t j = i + 1; j < clusters.size(); ++j) {
        const double d = LinkDistance(clusters[i], clusters[j], distances, linkage);
        if (d < best) {
          best = d;
          best_a = i;
          best_b = j;
        }
      }
    }
    if (best > max_distance) break;
    clusters[best_a].insert(clusters[best_a].end(), clusters[best_b].begin(),
                            clusters[best_b].end());
    clusters.erase(clusters.begin() + static_cast<ptrdiff_t>(best_b));
  }
  for (auto& cluster : clusters) std::sort(cluster.begin(), cluster.end());
  std::sort(clusters.begin(), clusters.end(),
            [](const auto& x, const auto& y) { return x.front() < y.front(); });
  return clusters;
}

struct HacPropertyCase {
  uint64_t seed;
  Linkage linkage;
};

class HacReferenceTest : public ::testing::TestWithParam<HacPropertyCase> {};

TEST_P(HacReferenceTest, MatchesBruteForce) {
  const auto [seed, linkage] = GetParam();
  Rng rng(seed);
  const size_t n = 6 + rng.next_below(10);
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < n; ++i) ids.push_back(i);
  PairTable distances;
  // Sparse: ~40% of pairs connected. Distinct distances (random doubles)
  // make the dendrogram unique, so both implementations must agree exactly.
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (rng.next_bool(0.4)) distances.Set(i, j, 0.1 + rng.next_double());
    }
  }
  const double threshold = 0.3 + rng.next_double() * 0.8;
  // Average linkage with infinities is arithmetic-order sensitive between
  // UPGMA (incremental) and recompute-from-scratch; restrict the average
  // case to fully-connected tables where both are exact.
  if (linkage == Linkage::kAverage) {
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = i + 1; j < n; ++j) {
        if (distances.Get(i, j, kInf) == kInf) distances.Set(i, j, 1.5 + rng.next_double());
      }
    }
  }

  const auto fast = AgglomerativeCluster(ids, distances, linkage, threshold);
  const auto reference = BruteForceCluster(ids, distances, linkage, threshold);
  if (linkage == Linkage::kAverage) {
    // UPGMA weights by cluster size on merge; the recompute reference is
    // equivalent for pairwise-complete tables, but floating-point ties can
    // reorder merges. Compare only the partition sizes distribution.
    std::multiset<size_t> fast_sizes;
    std::multiset<size_t> ref_sizes;
    for (const auto& c : fast) fast_sizes.insert(c.size());
    for (const auto& c : reference) ref_sizes.insert(c.size());
    EXPECT_EQ(fast_sizes, ref_sizes) << "seed " << seed;
  } else {
    EXPECT_EQ(fast, reference) << "seed " << seed;
  }
}

std::vector<HacPropertyCase> HacCases() {
  std::vector<HacPropertyCase> cases;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    cases.push_back({seed, Linkage::kComplete});
    cases.push_back({seed, Linkage::kSingle});
    cases.push_back({seed, Linkage::kAverage});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomTables, HacReferenceTest, ::testing::ValuesIn(HacCases()),
                         [](const auto& info) {
                           return std::string(LinkageName(info.param.linkage)) + "_seed" +
                                  std::to_string(info.param.seed);
                         });

// ----- Random-history clustering invariants ---------------------------------------

TTKV RandomHistory(uint64_t seed) {
  Rng rng(seed);
  TTKV ttkv;
  const size_t num_keys = 10 + rng.next_below(30);
  TimeMicros t = 0;
  const size_t bursts = 30 + rng.next_below(100);
  for (size_t b = 0; b < bursts; ++b) {
    t += Seconds(5 + static_cast<double>(rng.next_below(600)));
    const size_t size = 1 + rng.next_below(5);
    TimeMicros offset = 0;
    for (size_t i = 0; i < size; ++i) {
      const std::string key = "k" + std::to_string(rng.next_below(num_keys));
      if (rng.next_bool(0.05)) {
        ttkv.record_delete(key, QuantizeToSecond(t + offset));
      } else {
        ttkv.record_write(key, Value(static_cast<int64_t>(b)), QuantizeToSecond(t + offset));
      }
      offset += Seconds(0.4);
    }
  }
  return ttkv;
}

class ClusteringInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClusteringInvariantTest, PartitionOfModifiedKeys) {
  const TTKV ttkv = RandomHistory(GetParam());
  const ClusterSet clusters = ClusterKeys(ttkv, ClusteringParams{});
  std::set<uint32_t> covered;
  for (const KeyCluster& cluster : clusters.clusters()) {
    for (uint32_t key : cluster.keys) {
      EXPECT_TRUE(covered.insert(key).second) << "key in two clusters";
    }
    EXPECT_GT(cluster.version_count, 0u);
  }
  const auto modified = ttkv.modified_key_ids();
  EXPECT_EQ(covered, std::set<uint32_t>(modified.begin(), modified.end()));
}

TEST_P(ClusteringInvariantTest, ThresholdMonotonicity) {
  const TTKV ttkv = RandomHistory(GetParam());
  ClusteringParams strict;
  ClusteringParams loose;
  loose.threshold_correlation = 1.0;
  const ClusterSet strict_clusters = ClusterKeys(ttkv, strict);
  const ClusterSet loose_clusters = ClusterKeys(ttkv, loose);
  // Complete-linkage cuts nest: every strict cluster sits inside one loose
  // cluster.
  for (const KeyCluster& cluster : strict_clusters.clusters()) {
    const uint32_t target = loose_clusters.cluster_of(cluster.keys.front());
    for (uint32_t key : cluster.keys) EXPECT_EQ(loose_clusters.cluster_of(key), target);
  }
  EXPECT_GE(strict_clusters.size(), loose_clusters.size());
}

TEST_P(ClusteringInvariantTest, WindowMonotoneGroupCounts) {
  const TTKV ttkv = RandomHistory(GetParam());
  const auto events = ttkv.write_events();
  size_t previous = std::numeric_limits<size_t>::max();
  for (double window : {0.0, 1.0, 10.0, 60.0}) {
    const size_t groups = GroupWrites(events, Seconds(window)).size();
    EXPECT_LE(groups, previous);  // Wider windows only merge groups.
    previous = groups;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusteringInvariantTest, ::testing::Range<uint64_t>(1, 9));

// ----- CLUSTER_NOW equivalence ------------------------------------------------------

// A cluster as CLUSTER_NOW reports it: member names, version count, last
// modification.
using ClusterView = std::tuple<std::vector<std::string>, uint64_t, TimeMicros>;

std::vector<ClusterView> Views(const std::vector<NamedCluster>& clusters) {
  std::vector<ClusterView> views;
  for (const NamedCluster& c : clusters) {
    views.emplace_back(c.keys, c.version_count, c.last_modified);
  }
  return views;
}

class OnlineEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OnlineEquivalenceTest, MatchesBatchPipeline) {
  // Replay a random history through PUT/DELETE into engines of several
  // shard counts; CLUSTER_NOW must give ClusterKeys' clusters on the same
  // history, annotations included.
  const TTKV history = RandomHistory(GetParam());
  // HAC breaks distance ties by key id and the engine numbers keys in name
  // order, so the batch side gets the same numbering.
  std::vector<uint32_t> by_name(history.num_keys());
  std::iota(by_name.begin(), by_name.end(), 0u);
  std::sort(by_name.begin(), by_name.end(),
            [&](uint32_t a, uint32_t b) { return history.key_name(a) < history.key_name(b); });
  TTKV batch_ttkv;
  for (uint32_t id : by_name) batch_ttkv.ImportRecord(history.record(id));

  for (const size_t shards : {1, 4, 16}) {
    ShardedTtkv engine(shards);
    for (uint32_t id = 0; id < history.num_keys(); ++id) {
      const std::string& key = history.key_name(id);
      for (const Version& v : history.record(id).versions) {
        if (v.is_delete) {
          api::Delete(engine, key, v.timestamp, /*force=*/true);
        } else {
          api::Put(engine, key, v.value, v.timestamp);
        }
      }
    }
    for (const double threshold : {2.0, 1.0}) {
      ClusteringParams params;
      params.threshold_correlation = threshold;
      const ClusterSet set = ClusterKeys(batch_ttkv, params);
      std::vector<NamedCluster> batch;
      for (const KeyCluster& cluster : set.clusters()) {
        NamedCluster named{{}, cluster.version_count, cluster.last_modified};
        for (uint32_t key : cluster.keys) named.keys.push_back(batch_ttkv.key_name(key));
        batch.push_back(std::move(named));
      }
      EXPECT_EQ(Views(engine.ClusterNow(threshold)), Views(batch))
          << "seed " << GetParam() << ", " << shards << " shards, threshold " << threshold;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineEquivalenceTest, ::testing::Range<uint64_t>(1, 13));

// ----- Failure injection: corrupted artifacts ---------------------------------------

TTKV SnapshotFixture() {
  TTKV ttkv;
  for (int k = 0; k < 10; ++k) {
    const std::string key = "app/key" + std::to_string(k);
    for (int v = 0; v < 5; ++v) {
      ttkv.record_write(key, Value("value" + std::to_string(v)), Seconds(k * 100 + v * 7));
    }
  }
  ttkv.record_delete("app/key3", Seconds(10000));
  return ttkv;
}

TEST(FailureInjection, TruncatedSnapshotsFailCleanly) {
  const std::string bytes = SnapshotFixture().Serialize();
  // Every strict prefix must throw ParseError (sampled for speed).
  for (size_t len = 0; len < bytes.size(); len += 13) {
    EXPECT_THROW(TTKV::Deserialize(bytes.substr(0, len)), ParseError) << "prefix " << len;
  }
}

TEST(FailureInjection, BitFlippedSnapshotsNeverCrash) {
  const std::string bytes = SnapshotFixture().Serialize();
  const TTKV original = SnapshotFixture();
  Rng rng(99);
  int clean_failures = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupt = bytes;
    const size_t pos = rng.next_below(corrupt.size());
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1 << rng.next_below(8)));
    try {
      const TTKV restored = TTKV::Deserialize(corrupt);
      // A flip in a value byte can deserialize "successfully"; structure
      // must still be sane.
      EXPECT_EQ(restored.num_keys(), original.num_keys());
    } catch (const ParseError&) {
      ++clean_failures;
    } catch (const StoreError&) {
      ++clean_failures;  // E.g. a flipped timestamp breaking time order.
    }
  }
  EXPECT_GT(clean_failures, 0);
}

TEST(FailureInjection, MangledTraceLinesFailCleanly) {
  const std::string line = "1000000\tApp\t1\t1\tkey\t2\t42\n";
  EXPECT_NO_THROW(TraceLog::ParseText(line));
  EXPECT_THROW(TraceLog::ParseText("1000000\tApp\t1\t1\tkey\t2\n"), ParseError);  // 6 fields.
  EXPECT_THROW(TraceLog::ParseText("1\t2\t3\t4\t5\t6\t7\t8\n"), ParseError);      // 8 fields.
}

TEST(FailureInjection, RandomTextNeverCrashesParsers) {
  Rng rng(7);
  const char alphabet[] = "{}[]()<>\"'=/\\ \n\tabc123.%-";
  for (ConfigFormat format : {ConfigFormat::kIni, ConfigFormat::kPlainText, ConfigFormat::kJson,
                              ConfigFormat::kXml, ConfigFormat::kPskv}) {
    const FormatCodec& codec = CodecFor(format);
    for (int trial = 0; trial < 200; ++trial) {
      std::string text;
      const size_t len = rng.next_below(60);
      for (size_t i = 0; i < len; ++i) {
        text += alphabet[rng.next_below(sizeof(alphabet) - 1)];
      }
      try {
        codec.Parse(text);  // Either parses or throws ParseError.
      } catch (const ParseError&) {
      }
    }
  }
}

// ----- Sandbox model check ---------------------------------------------------------

TEST(SandboxModel, RandomOpsMatchReferenceMap) {
  Rng rng(31);
  for (int round = 0; round < 20; ++round) {
    ConfigMap base;
    const size_t base_keys = rng.next_below(10);
    for (size_t i = 0; i < base_keys; ++i) {
      base["k" + std::to_string(i)] = Value(static_cast<int64_t>(i));
    }
    SandboxStore sandbox(base, StoreKind::kGconf);
    std::map<std::string, Value> model = base;
    for (int op = 0; op < 60; ++op) {
      const std::string key = "k" + std::to_string(rng.next_below(12));
      switch (rng.next_below(3)) {
        case 0: {
          const Value value(static_cast<int64_t>(rng.next_below(100)));
          sandbox.Write(key, value);
          model[key] = value;
          break;
        }
        case 1: {
          const bool expected = model.erase(key) != 0;
          EXPECT_EQ(sandbox.Remove(key), expected);
          break;
        }
        default: {
          const auto got = sandbox.Read(key);
          const auto it = model.find(key);
          if (it == model.end()) {
            EXPECT_EQ(got, std::nullopt);
          } else {
            EXPECT_EQ(got, it->second);
          }
        }
      }
    }
    EXPECT_EQ(sandbox.Snapshot(), model);
    // The whole point of the sandbox: dropping it leaves no trace.
    sandbox.Reset();
    EXPECT_EQ(sandbox.Snapshot(), base);
  }
}

}  // namespace
}  // namespace ocasta
