// Tests for the observability subsystem (src/obs): histogram bucket math
// and percentile accuracy against an exact sort, concurrent recording,
// registry identity and kind rules, Prometheus exposition (golden output,
// escaping, non-finite values), the slow-op log's threshold and GCRA rate
// limiter under an injected clock, the METRICS wire round-trip, engine
// counter exactness against STATS on a quiesced engine, and the HTTP
// exporter's request handling.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/codec.h"
#include "api/engine.h"
#include "api/remote_engine.h"
#include "common/error.h"
#include "common/rng.h"
#include "obs/histogram.h"
#include "obs/http_exporter.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/slow_log.h"
#include "server/server.h"
#include "server/sharded_ttkv.h"

namespace ocasta {
namespace {

using obs::LatencyHistogram;

// --- Histogram ---------------------------------------------------------------

TEST(ObsHistogram, SmallValuesGetExactBuckets) {
  // Values below kSub land in one-value-wide buckets: index == value and
  // the upper bound is the value itself.
  for (uint64_t v = 0; v < LatencyHistogram::kSub; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), v);
    EXPECT_EQ(LatencyHistogram::BucketUpperBound(v), v);
  }
}

TEST(ObsHistogram, BucketBoundsBracketTheValue) {
  // Every value sits at or below its bucket's upper bound, and the bound
  // overshoots by at most one sub-bucket width (1/kSub relative, ~3.1%).
  const uint64_t probes[] = {32,    33,   63,
                             64,    100,  1000,
                             4095,  4096, 1u << 20,
                             (1u << 20) + 7,     1000000000ull, 3000000000ull,
                             uint64_t{1} << 40,  uint64_t{1} << 62,
                             ~uint64_t{0}};
  for (const uint64_t v : probes) {
    const size_t index = LatencyHistogram::BucketIndex(v);
    ASSERT_LT(index, LatencyHistogram::kBuckets) << v;
    const uint64_t upper = LatencyHistogram::BucketUpperBound(index);
    EXPECT_GE(upper, v) << v;
    // Relative error bound; +1 covers integer truncation of the width.
    EXPECT_LE(static_cast<double>(upper),
              static_cast<double>(v) * (1.0 + 1.0 / LatencyHistogram::kSub) + 1.0)
        << v;
    // Bucket edges are consistent: the next bucket starts above `upper`.
    if (index + 1 < LatencyHistogram::kBuckets) {
      EXPECT_GT(LatencyHistogram::BucketUpperBound(index + 1), upper) << v;
    }
  }
}

TEST(ObsHistogram, OctaveBoundariesDoNotMisfile) {
  // First value of each octave must open a new bucket, not fall into the
  // previous octave's last one.
  for (size_t e = LatencyHistogram::kSubBits; e < 63; ++e) {
    const uint64_t first = uint64_t{1} << e;
    EXPECT_GT(LatencyHistogram::BucketIndex(first),
              LatencyHistogram::BucketIndex(first - 1))
        << "octave 2^" << e;
  }
}

TEST(ObsHistogram, PercentilesTrackExactSortWithin4Percent) {
  // Log-uniform values spanning ns..seconds, the shape latency data takes.
  Rng rng(7);
  LatencyHistogram hist;
  std::vector<uint64_t> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const double exponent = 2.0 + 7.0 * rng.next_double();  // 1e2..1e9 ns.
    const auto v = static_cast<uint64_t>(std::pow(10.0, exponent));
    values.push_back(v);
    hist.Record(v);
  }
  std::sort(values.begin(), values.end());
  const obs::HistogramStats stats = hist.Snapshot();
  ASSERT_EQ(stats.count, values.size());
  EXPECT_EQ(static_cast<uint64_t>(stats.max), values.back());

  const auto exact = [&](double q) {
    return static_cast<double>(values[static_cast<size_t>(q * (values.size() - 1))]);
  };
  for (const auto& [q, est] : std::initializer_list<std::pair<double, double>>{
           {0.50, stats.p50}, {0.90, stats.p90}, {0.99, stats.p99}, {0.999, stats.p999}}) {
    // The estimate is the holding bucket's upper bound: never below the
    // true order statistic, at most one bucket width (3.125%) above it —
    // 4% gives slack for the rank interpolation at the edges.
    EXPECT_GE(est * 1.001, exact(q)) << "q=" << q;
    EXPECT_LE(est, exact(q) * 1.04 + 1.0) << "q=" << q;
  }
}

TEST(ObsHistogram, ConcurrentRecordersLoseNothing) {
  // Exactness under parallel recording: count and sum are exact, max is
  // the global max. Run under TSan this also proves the no-lock claim.
  LatencyHistogram hist;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (uint64_t i = 1; i <= kPerThread; ++i) {
        hist.Record(i + static_cast<uint64_t>(t));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const obs::HistogramStats stats = hist.Snapshot();
  EXPECT_EQ(stats.count, kThreads * kPerThread);
  // Sum of i+t over all threads and i.
  double expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += (kPerThread * (kPerThread + 1)) / 2.0 + kPerThread * t;
  }
  EXPECT_DOUBLE_EQ(stats.sum, expected_sum);
  EXPECT_EQ(static_cast<uint64_t>(stats.max), kPerThread + kThreads - 1);
}

TEST(ObsHistogram, HotPathSamplerAlwaysTakesFirstCall) {
  obs::HotPathSampler sample;
  EXPECT_TRUE(sample());  // A single op must already yield a data point.
  int taken = 0;
  for (uint32_t i = 1; i < obs::kHotPathSamplePeriod; ++i) taken += sample() ? 1 : 0;
  EXPECT_EQ(taken, 0);
  EXPECT_TRUE(sample());  // Call #kHotPathSamplePeriod.
}

// --- Registry ----------------------------------------------------------------

TEST(ObsRegistry, LabelOrderDoesNotSplitIdentity) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.GetCounter("c_total", {{"x", "1"}, {"y", "2"}});
  obs::Counter& b = registry.GetCounter("c_total", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&a, &b);
  obs::Counter& c = registry.GetCounter("c_total", {{"x", "1"}, {"y", "3"}});
  EXPECT_NE(&a, &c);
  a.Inc(5);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  // Labels come back canonicalized (key-sorted) regardless of request order.
  EXPECT_EQ(snap.counters[0].labels, (obs::Labels{{"x", "1"}, {"y", "2"}}));
  EXPECT_EQ(snap.counters[0].value, 5u);
}

TEST(ObsRegistry, KindMismatchThrows) {
  obs::MetricsRegistry registry;
  registry.GetCounter("thing_total");
  EXPECT_THROW(registry.GetGauge("thing_total"), Error);
  EXPECT_THROW(registry.GetHistogram("thing_total"), Error);
  // Same name and kind is the same instrument, not an error.
  obs::Counter& again = registry.GetCounter("thing_total");
  again.Inc();
  EXPECT_EQ(registry.Snapshot().counters.at(0).value, 1u);
}

TEST(ObsRegistry, SnapshotIsSortedByNameThenLabels) {
  obs::MetricsRegistry registry;
  registry.GetCounter("zz_total");
  registry.GetCounter("aa_total", {{"op", "put"}});
  registry.GetCounter("aa_total", {{"op", "get"}});
  const obs::MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "aa_total");
  EXPECT_EQ(snap.counters[0].labels, (obs::Labels{{"op", "get"}}));
  EXPECT_EQ(snap.counters[1].labels, (obs::Labels{{"op", "put"}}));
  EXPECT_EQ(snap.counters[2].name, "zz_total");
}

TEST(ObsRegistry, GaugeSetMaxRatchetsUpOnly) {
  obs::MetricsRegistry registry;
  obs::Gauge& g = registry.GetGauge("peak");
  g.SetMax(7);
  g.SetMax(3);
  EXPECT_EQ(g.value(), 7);
  g.SetMax(11);
  EXPECT_EQ(g.value(), 11);
}

// --- Prometheus exposition ---------------------------------------------------

TEST(ObsPrometheus, GoldenSnapshot) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"ops_total", {{"op", "put"}}, 42});
  snap.gauges.push_back({"conns_live", {}, 3});
  snap.histograms.push_back(
      {"apply_ns", {{"op", "put"}}, obs::HistogramStats{.count = 10,
                                                        .sum = 1000.0,
                                                        .p50 = 90.0,
                                                        .p90 = 180.0,
                                                        .p99 = 198.0,
                                                        .p999 = 200.0,
                                                        .max = 200.0}});
  const std::string text = obs::WritePrometheusText(snap);
  EXPECT_EQ(text,
            "# TYPE ops_total counter\n"
            "ops_total{op=\"put\"} 42\n"
            "# TYPE conns_live gauge\n"
            "conns_live 3\n"
            "# TYPE apply_ns summary\n"
            "apply_ns{op=\"put\",quantile=\"0.5\"} 90\n"
            "apply_ns{op=\"put\",quantile=\"0.9\"} 180\n"
            "apply_ns{op=\"put\",quantile=\"0.99\"} 198\n"
            "apply_ns{op=\"put\",quantile=\"0.999\"} 200\n"
            "apply_ns_sum{op=\"put\"} 1000\n"
            "apply_ns_count{op=\"put\"} 10\n"
            "# TYPE apply_ns_max gauge\n"
            "apply_ns_max{op=\"put\"} 200\n");
}

TEST(ObsPrometheus, LabelValuesAreEscaped) {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"c_total", {{"k", "a\"b\\c\nd"}}, 1});
  const std::string text = obs::WritePrometheusText(snap);
  EXPECT_NE(text.find("c_total{k=\"a\\\"b\\\\c\\nd\"} 1\n"), std::string::npos) << text;
}

TEST(ObsPrometheus, HostileNamesAreSanitized) {
  EXPECT_EQ(obs::SanitizeMetricName("9bad name-total"), "_9bad_name_total");
  EXPECT_EQ(obs::SanitizeMetricName(""), "_");
  EXPECT_EQ(obs::SanitizeLabelName("op:kind"), "op_kind");
  obs::MetricsSnapshot snap;
  snap.gauges.push_back({"spaced out", {{"bad key", "v"}}, 2});
  const std::string text = obs::WritePrometheusText(snap);
  EXPECT_NE(text.find("spaced_out{bad_key=\"v\"} 2\n"), std::string::npos) << text;
}

TEST(ObsPrometheus, NonFiniteValuesRender) {
  EXPECT_EQ(obs::FormatPrometheusValue(std::nan("")), "NaN");
  EXPECT_EQ(obs::FormatPrometheusValue(HUGE_VAL), "+Inf");
  EXPECT_EQ(obs::FormatPrometheusValue(-HUGE_VAL), "-Inf");
  EXPECT_EQ(obs::FormatPrometheusValue(1.5), "1.5");
}

// --- Slow-op log -------------------------------------------------------------

TEST(ObsSlowLog, ZeroThresholdDisables) {
  obs::SlowOpLog log(0.0);
  EXPECT_FALSE(log.enabled());
  obs::SlowOpLog on(250.0);
  EXPECT_TRUE(on.enabled());
  EXPECT_DOUBLE_EQ(on.threshold_micros(), 250.0);
}

TEST(ObsSlowLog, FormatIsStableAndLeaksNoKeys) {
  obs::SlowOpRecord rec;
  rec.op = "PUT";
  rec.has_key = true;
  rec.key_hash = 0x1a2b3c4d5e6f7788ULL;
  rec.shard = 5;
  rec.bytes = 64;
  rec.conn_fd = 12;
  rec.total_us = 1834.21;
  rec.queue_us = 210.44;
  rec.apply_us = 96.01;
  rec.wal_us = 1502.12;
  EXPECT_EQ(obs::SlowOpLog::Format(rec),
            "slow_op op=PUT key=1a2b3c4d5e6f7788 shard=5 bytes=64 conn=12 "
            "total_us=1834.2 queue_us=210.4 apply_us=96.0 wal_us=1502.1");
  // Cross-shard ops carry no key: hash and shard render as "-".
  obs::SlowOpRecord crossshard;
  crossshard.op = "STATS";
  EXPECT_EQ(obs::SlowOpLog::Format(crossshard),
            "slow_op op=STATS key=- shard=- bytes=0 conn=-1 "
            "total_us=0.0 queue_us=0.0 apply_us=0.0 wal_us=0.0");
}

TEST(ObsSlowLog, GcraAdmitsBurstThenRefillsOverTime) {
  // Injected clock: a flood at t=0 gets exactly one second's burst (rate
  // lines), everything else is suppressed; a full second later one slot
  // has refilled.
  int64_t now_ns = 0;
  std::vector<std::string> lines;
  obs::SlowOpLog log(
      1.0, /*max_lines_per_sec=*/10.0,
      [&lines](const std::string& line) { lines.push_back(line); },
      [&now_ns] { return now_ns; });
  obs::SlowOpRecord rec;
  rec.op = "PUT";
  for (int i = 0; i < 100; ++i) log.Log(rec);
  EXPECT_EQ(log.logged(), 10u);
  EXPECT_EQ(log.suppressed(), 90u);
  EXPECT_EQ(lines.size(), 10u);

  now_ns += 99'999'999;  // Just shy of one 10-per-second slot.
  EXPECT_FALSE(log.Log(rec));
  now_ns += 1;  // Exactly one slot refilled.
  EXPECT_TRUE(log.Log(rec));
  EXPECT_FALSE(log.Log(rec));
  EXPECT_EQ(log.logged(), 11u);

  now_ns += 2'000'000'000;  // A long quiet spell refills at most the burst.
  for (int i = 0; i < 100; ++i) log.Log(rec);
  EXPECT_EQ(log.logged(), 21u);
}

// --- METRICS wire round-trip -------------------------------------------------

TEST(ObsWire, MetricsCommandAndResultRoundTrip) {
  const api::Command cmd{api::MetricsCmd{}};
  const api::Command decoded_cmd = api::DecodeCommand(api::EncodeCommand(cmd));
  EXPECT_TRUE(std::holds_alternative<api::MetricsCmd>(decoded_cmd.op));

  api::MetricsResult result;
  result.snapshot.counters.push_back({"ops_total", {{"op", "put"}}, 42});
  result.snapshot.counters.push_back({"wal_records_total", {}, 7});
  result.snapshot.gauges.push_back({"conns_live", {{"loop", "0"}}, -3});
  result.snapshot.histograms.push_back(
      {"apply_ns",
       {{"op", "get"}, {"shard", "2"}},
       obs::HistogramStats{.count = 1234,
                           .sum = 5.5e6,
                           .p50 = 100.0,
                           .p90 = 400.0,
                           .p99 = 900.0,
                           .p999 = 1500.0,
                           .max = 2000.0}});
  const api::Result decoded = api::DecodeResult(api::EncodeResult(api::Result{result}));
  const auto* metrics = std::get_if<api::MetricsResult>(&decoded.op);
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->snapshot, result.snapshot);
}

TEST(ObsWire, EmptySnapshotRoundTrips) {
  const api::Result decoded =
      api::DecodeResult(api::EncodeResult(api::Result{api::MetricsResult{}}));
  const auto* metrics = std::get_if<api::MetricsResult>(&decoded.op);
  ASSERT_NE(metrics, nullptr);
  EXPECT_TRUE(metrics->snapshot.empty());
}

// --- Engine integration ------------------------------------------------------

// 26 puts, 20 gets and 2 deletes, through the single-command path and the
// batched path.
void DriveCountedTraffic(api::Engine& engine) {
  for (int i = 0; i < 17; ++i) {
    engine.Apply(api::Command{api::PutCmd{"k" + std::to_string(i), Value(i), Seconds(i + 1)}});
  }
  for (int i = 0; i < 11; ++i) {
    engine.Apply(api::Command{api::GetCmd{"k" + std::to_string(i)}});
  }
  engine.Apply(api::Command{api::DeleteCmd{"k0", Seconds(100)}});
  std::vector<api::Command> batch;
  for (int i = 0; i < 9; ++i) {
    batch.emplace_back(api::PutCmd{"b" + std::to_string(i), Value(i), Seconds(i + 200)});
    batch.emplace_back(api::GetCmd{"k1"});
  }
  batch.emplace_back(api::DeleteCmd{"k2", Seconds(300)});
  engine.Apply(api::Command{api::BatchCmd{std::move(batch)}});
}

// The EngineStats freshness contract (api/types.h): STATS reads the same
// counters ocasta_engine_ops_total exports, so on a quiesced engine the
// two are equal — and STATS is just as exact with metrics off.
void ExpectStatsMatchCounters(size_t shards) {
  obs::MetricsRegistry registry;
  ShardedTtkv engine(shards, 1.0, &registry);
  DriveCountedTraffic(engine);
  const EngineStats stats = api::Stats(engine);
  EXPECT_EQ(stats.puts, 26u);
  EXPECT_EQ(stats.gets, 20u);
  EXPECT_EQ(stats.deletes, 2u);
  const obs::MetricsSnapshot snap = api::Metrics(engine);
  const auto counter = [&](const char* op) -> uint64_t {
    for (const auto& c : snap.counters) {
      if (c.name == "ocasta_engine_ops_total" && c.labels == obs::Labels{{"op", op}}) {
        return c.value;
      }
    }
    return ~uint64_t{0};
  };
  EXPECT_EQ(counter("put"), stats.puts);
  EXPECT_EQ(counter("get"), stats.gets);
  EXPECT_EQ(counter("delete"), stats.deletes);

  ShardedTtkv unmetered(shards);
  DriveCountedTraffic(unmetered);
  const EngineStats plain = api::Stats(unmetered);
  EXPECT_EQ(plain.puts, stats.puts);
  EXPECT_EQ(plain.gets, stats.gets);
  EXPECT_EQ(plain.deletes, stats.deletes);
}

TEST(ObsEngine, QuiescedStatsMatchMetricsCountersExactly) { ExpectStatsMatchCounters(4); }

TEST(ObsEngine, OneShardCountersMatchStatsToo) { ExpectStatsMatchCounters(1); }

TEST(ObsEngine, MetricsOpOverTheWire) {
  // METRICS through the daemon: protocol v4 end to end, and the apply
  // histograms must hold real measurements after traffic.
  TtkvServer server(ServerOptions{.port = 0,
                                  .num_shards = 4,
                                  .metrics = std::make_shared<obs::MetricsRegistry>()});
  server.Start();
  api::RemoteEngine remote("127.0.0.1", server.port());
  for (int i = 0; i < 40; ++i) {
    remote.Apply(api::Command{api::PutCmd{"w" + std::to_string(i), Value(i), Seconds(i + 1)}});
  }
  remote.Apply(api::Command{api::GetCmd{"w0"}});

  const obs::MetricsSnapshot snap = api::Metrics(remote);
  uint64_t puts = 0;
  for (const auto& c : snap.counters) {
    if (c.name == "ocasta_engine_ops_total" && c.labels == obs::Labels{{"op", "put"}}) {
      puts = c.value;
    }
  }
  EXPECT_EQ(puts, 40u);
  bool saw_apply_hist = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "ocasta_engine_apply_ns" && h.labels == obs::Labels{{"op", "put"}}) {
      saw_apply_hist = true;
      // Latency is sampled 1-in-N but the first call always records, so
      // 40 puts guarantee at least ceil(40/N) points.
      EXPECT_GE(h.stats.count, 40 / obs::kHotPathSamplePeriod);
      EXPECT_GT(h.stats.max, 0.0);
    }
  }
  EXPECT_TRUE(saw_apply_hist);
  server.Stop();
}

TEST(ObsEngine, MetricsOnUnconfiguredEngineIsEmptyNotError) {
  ShardedTtkv engine(2);
  const obs::MetricsSnapshot snap = api::Metrics(engine);
  EXPECT_TRUE(snap.empty());
}

// --- HTTP exporter -----------------------------------------------------------

// Minimal scrape client: one request, read to EOF (the exporter closes
// after each response).
std::string HttpRequest(uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) response.append(buf, static_cast<size_t>(n));
  ::close(fd);
  return response;
}

TEST(ObsHttp, GetScrapesHeadOmitsBodyOthersRejected) {
  obs::MetricsHttpServer exporter(0, [] { return std::string("metric_a 1\n"); });
  exporter.Start();
  ASSERT_GT(exporter.port(), 0);

  const std::string get = HttpRequest(exporter.port(), "GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(get.find("200"), std::string::npos) << get;
  EXPECT_NE(get.find("text/plain; version=0.0.4"), std::string::npos) << get;
  EXPECT_NE(get.find("metric_a 1\n"), std::string::npos) << get;

  const std::string head = HttpRequest(exporter.port(), "HEAD /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(head.find("200"), std::string::npos) << head;
  EXPECT_EQ(head.find("metric_a"), std::string::npos) << head;

  const std::string post =
      HttpRequest(exporter.port(), "POST /metrics HTTP/1.1\r\n\r\nmetric_a 9\n");
  EXPECT_NE(post.find("405"), std::string::npos) << post;

  EXPECT_GE(exporter.scrapes(), 2u);
  exporter.Stop();
  exporter.Stop();  // Idempotent.
}

// An ephemeral port the OS just handed out and we released — the usual
// probe for "some free port" when an option cannot express port 0.
uint16_t ProbeFreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

TEST(ObsHttp, EndToEndScrapeThroughServerOptions) {
  // The full daemon path: setting only metrics_port auto-creates the
  // registry, and a scrape after traffic carries the engine histograms.
  TtkvServer server(
      ServerOptions{.port = 0, .num_shards = 4, .metrics_port = ProbeFreePort()});
  server.Start();
  ASSERT_NE(server.metrics(), nullptr);
  ASSERT_GT(server.metrics_port(), 0);
  api::RemoteEngine remote("127.0.0.1", server.port());
  for (int i = 0; i < 20; ++i) {
    remote.Apply(api::Command{api::PutCmd{"s" + std::to_string(i), Value(i), Seconds(i + 1)}});
  }
  const std::string scrape =
      HttpRequest(server.metrics_port(), "GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(scrape.find("200"), std::string::npos);
  EXPECT_NE(scrape.find("# TYPE ocasta_engine_apply_ns summary"), std::string::npos);
  EXPECT_NE(scrape.find("ocasta_engine_ops_total{op=\"put\"} 20"), std::string::npos);
  EXPECT_NE(scrape.find("ocasta_loop_connections_live"), std::string::npos);
  server.Stop();
}

TEST(ObsServer, NoMetricsPortMeansNoListener) {
  TtkvServer server(ServerOptions{.port = 0, .num_shards = 2});
  server.Start();
  EXPECT_EQ(server.metrics_port(), 0);
  EXPECT_EQ(server.metrics(), nullptr);
  server.Stop();
}

}  // namespace
}  // namespace ocasta
