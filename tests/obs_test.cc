// Observability-layer tests: registry handle stability and exposition
// format, the process-wide Enabled() gate, Scoped wrapper locality under
// shared registries, the periodic JSON snapshot writer, tracer ring/slow-log
// mechanics, and the acceptance scenario from the issue — a 3-backend router
// fleet where one traced point's full span chain (client push -> router leg
// -> backend dispatch -> shard queue-wait -> pump compute -> score emit) is
// reconstructed from a single tracer JSON dump, and one downstream scrape
// returns the whole fleet's metrics with backend labels.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/causal_tad.h"
#include "eval/datasets.h"
#include "eval/harness.h"
#include "models/scorer.h"
#include "net/client.h"
#include "net/router.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "serve/streaming.h"
#include "util/logging.h"

namespace causaltad {
namespace {

using core::CausalTad;
using eval::BuildExperiment;
using eval::ExperimentData;
using eval::Scale;
using eval::XianConfig;
using net::Client;
using net::ClientOptions;
using net::Router;
using net::RouterBackend;
using net::RouterOptions;
using net::Server;
using net::ServerOptions;
using serve::ServiceOptions;
using serve::StreamingService;

// Tests that flip the global metrics switch restore it on every exit path.
struct EnabledGuard {
  ~EnabledGuard() { obs::SetEnabled(true); }
};

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(RegistryTest, HandlesAreStablePerNameAndLabels) {
  obs::Registry registry;
  obs::Counter* a = registry.GetCounter("requests_total");
  obs::Counter* b = registry.GetCounter("requests_total");
  EXPECT_EQ(a, b);
  obs::Counter* labeled =
      registry.GetCounter("requests_total", {{"tenant", "t0"}});
  EXPECT_NE(a, labeled);
  EXPECT_EQ(labeled, registry.GetCounter("requests_total", {{"tenant", "t0"}}));
  // Distinct label VALUES are distinct series.
  EXPECT_NE(labeled,
            registry.GetCounter("requests_total", {{"tenant", "t1"}}));
  registry.GetGauge("live_sessions");
  registry.GetHistogram("wait_ms");
  EXPECT_EQ(registry.series(), 5);
}

TEST(RegistryTest, ExpositionTextIsVersionedSortedAndByteExact) {
  obs::Registry registry;
  registry.GetCounter("requests_total")->Inc(3);
  registry.GetCounter("requests_total", {{"tenant", "t0"}})->Inc();
  registry.GetGauge("live_sessions")->Set(-2);
  registry.GetHistogram("wait_ms");  // registered, empty

  // std::map keying makes the output sorted and diffable; an empty
  // histogram renders all-zero so the whole exposition is byte-exact.
  EXPECT_EQ(registry.ExpositionText(),
            "# causaltad_metrics v1\n"
            "live_sessions -2\n"
            "requests_total 3\n"
            "requests_total{tenant=\"t0\"} 1\n"
            "wait_ms_count 0\n"
            "wait_ms_mean_ms 0\n"
            "wait_ms_p50_ms 0\n"
            "wait_ms_p95_ms 0\n"
            "wait_ms_p99_ms 0\n");
}

TEST(RegistryTest, HistogramSeriesExposePercentiles) {
  obs::Registry registry;
  obs::Histogram* h = registry.GetHistogram("wait_ms", {{"shard", "0"}});
  for (int i = 0; i < 100; ++i) h->Observe(2.0);
  const std::string text = registry.ExpositionText();
  EXPECT_NE(text.find("wait_ms_count{shard=\"0\"} 100"), std::string::npos)
      << text;
  EXPECT_NE(text.find("wait_ms_mean_ms{shard=\"0\"} 2"), std::string::npos)
      << text;
  EXPECT_NEAR(h->percentile(50.0), 2.0, 0.5);
  EXPECT_NEAR(h->percentile(99.0), 2.0, 0.5);
}

TEST(RegistryTest, JsonSnapshotCarriesVersionAndTypes) {
  obs::Registry registry;
  registry.GetCounter("requests_total")->Inc(7);
  registry.GetGauge("live_sessions")->Set(4);
  registry.GetHistogram("wait_ms")->Observe(1.0);
  const std::string json = registry.JsonSnapshot();
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"requests_total\", \"labels\": {}, "
                      "\"type\": \"counter\", \"value\": 7"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"type\": \"gauge\", \"value\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"histogram\", \"count\": 1"),
            std::string::npos);
}

TEST(RegistryTest, SetEnabledFreezesAllInstrumentTypes) {
  EnabledGuard guard;
  obs::Registry registry;
  obs::Counter* c = registry.GetCounter("requests_total");
  obs::Gauge* g = registry.GetGauge("live_sessions");
  obs::Histogram* h = registry.GetHistogram("wait_ms");
  c->Inc(2);
  g->Set(5);
  h->Observe(1.0);

  obs::SetEnabled(false);
  EXPECT_FALSE(obs::Enabled());
  c->Inc(100);
  g->Set(100);
  g->Add(100);
  h->Observe(100.0);
  EXPECT_EQ(c->value(), 2);
  EXPECT_EQ(g->value(), 5);
  EXPECT_EQ(h->count(), 1);

  obs::SetEnabled(true);
  c->Inc();
  EXPECT_EQ(c->value(), 3);
}

// ---------------------------------------------------------------------------
// Scoped wrappers: per-instance truth, shared-registry accumulation.
// ---------------------------------------------------------------------------

TEST(ScopedCounterTest, LocalValueIsPerInstanceWhileSeriesAccumulates) {
  obs::Registry registry;
  obs::ScopedCounter a;
  obs::ScopedCounter b;
  a.Bind(&registry, "service_sessions_begun_total");
  b.Bind(&registry, "service_sessions_begun_total");
  a.Inc(3);
  b.Inc(5);
  // Two concurrent components sharing one registry: each stats() view stays
  // scoped to its own instance, the fleet series sums across both.
  EXPECT_EQ(a.value(), 3);
  EXPECT_EQ(b.value(), 5);
  EXPECT_EQ(registry.GetCounter("service_sessions_begun_total")->value(), 8);
}

TEST(ScopedCounterTest, LocalValueIgnoresEnabledGate) {
  EnabledGuard guard;
  obs::Registry registry;
  obs::ScopedCounter c;
  c.Bind(&registry, "service_points_accepted_total");
  obs::SetEnabled(false);
  c.Inc(4);
  // stats() correctness must not depend on the metrics toggle; only the
  // registry mirror freezes.
  EXPECT_EQ(c.value(), 4);
  EXPECT_EQ(registry.GetCounter("service_points_accepted_total")->value(), 0);
}

TEST(ScopedGaugeTest, FunctionalValueSurvivesDisabledMetrics) {
  EnabledGuard guard;
  obs::Registry registry;
  obs::ScopedGauge g;
  g.Bind(&registry, "server_connections_active");
  g.Add(2);
  obs::SetEnabled(false);
  g.Add(-2);
  // Drain loops poll this value; a frozen gauge would deadlock a drain
  // when metrics are off.
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(registry.GetGauge("server_connections_active")->value(), 2);
}

TEST(ScopedCounterTest, UnboundCounterStillCounts) {
  obs::ScopedCounter c;
  c.Inc(2);
  EXPECT_EQ(c.value(), 2);
}

// ---------------------------------------------------------------------------
// Periodic JSON writer.
// ---------------------------------------------------------------------------

TEST(PeriodicJsonWriterTest, WritesSnapshotsAndFinalOnDestruction) {
  obs::Registry registry;
  registry.GetCounter("requests_total")->Inc(9);
  const std::string path = testing::TempDir() + "obs_snapshot_test.json";
  std::remove(path.c_str());
  int64_t writes_seen = 0;
  {
    obs::PeriodicJsonWriter writer(&registry, path, /*interval_ms=*/5.0);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (writer.writes() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    writes_seen = writer.writes();
    registry.GetCounter("requests_total")->Inc();  // 10, caught by the
                                                   // shutdown snapshot
  }
  EXPECT_GE(writes_seen, 2);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr) << path;
  std::string content(1 << 12, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  EXPECT_NE(content.find("\"version\": 1"), std::string::npos) << content;
  EXPECT_NE(content.find("\"name\": \"requests_total\""), std::string::npos);
  EXPECT_NE(content.find("\"value\": 10"), std::string::npos)
      << "final shutdown snapshot missing: " << content;
  // The atomic tmp+rename never leaves a partial file behind.
  EXPECT_EQ(std::fopen((path + ".tmp").c_str(), "r"), nullptr);
  std::remove(path.c_str());
}

TEST(PeriodicJsonWriterTest, FromEnvIsOptIn) {
  ::unsetenv("CAUSALTAD_METRICS_JSON");
  EXPECT_EQ(obs::PeriodicJsonWriter::FromEnv(obs::Registry::Default()),
            nullptr);
  const std::string path = testing::TempDir() + "obs_fromenv_test.json";
  ::setenv("CAUSALTAD_METRICS_JSON", path.c_str(), 1);
  ::setenv("CAUSALTAD_METRICS_JSON_INTERVAL_MS", "5", 1);
  {
    obs::Registry registry;
    auto writer = obs::PeriodicJsonWriter::FromEnv(&registry);
    ASSERT_NE(writer, nullptr);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (writer->writes() < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(writer->writes(), 1);
  }
  ::unsetenv("CAUSALTAD_METRICS_JSON");
  ::unsetenv("CAUSALTAD_METRICS_JSON_INTERVAL_MS");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------------

TEST(TracerTest, RingBoundsCapacityAndKeepsRecordedTotal) {
  obs::Tracer tracer(/*capacity=*/16);
  for (uint64_t i = 1; i <= 40; ++i) {
    tracer.Record(i, "compute", "shard=0", 0.0, 1.0);
  }
  EXPECT_EQ(tracer.recorded(), 40);
  // Early spans were overwritten by the ring; late ones survive.
  EXPECT_TRUE(tracer.SpansFor(1).empty());
  ASSERT_EQ(tracer.SpansFor(40).size(), 1u);
  EXPECT_EQ(tracer.SpansFor(40)[0].stage, "compute");
  EXPECT_EQ(tracer.SpansFor(40)[0].where, "shard=0");
}

TEST(TracerTest, ZeroTraceIdAndDisabledMetricsAreNoOps) {
  EnabledGuard guard;
  obs::Tracer tracer;
  tracer.Record(0, "compute", "shard=0", 0.0, 1.0);
  EXPECT_EQ(tracer.recorded(), 0);
  obs::SetEnabled(false);
  tracer.Record(7, "compute", "shard=0", 0.0, 1.0);
  EXPECT_EQ(tracer.recorded(), 0);
}

TEST(TracerTest, DumpJsonHoldsEveryRingSpan) {
  obs::Tracer tracer;
  tracer.Record(12, "queue_wait", "shard=1", 10.0, 0.5);
  tracer.Record(12, "compute", "shard=1", 10.5, 2.0);
  const std::string dump = tracer.DumpJson();
  EXPECT_NE(dump.find("\"trace_id\": 12, \"stage\": \"queue_wait\", "
                      "\"where\": \"shard=1\""),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("\"stage\": \"compute\""), std::string::npos);
  EXPECT_NE(dump.find("\"duration_ms\": 2.0000"), std::string::npos);
}

TEST(TracerTest, SlowRootCapturesFullChainIntoSlowLog) {
  obs::Tracer tracer;
  tracer.set_slow_threshold_ms(5.0);
  // A fast trace: no slow chain.
  tracer.Record(1, "compute", "shard=0", 0.0, 0.1);
  tracer.Record(1, "client_push_rtt", "client", 0.0, 0.5, /*root=*/true);
  EXPECT_EQ(tracer.slow_chains(), 0);
  // A slow trace: the root copies its whole chain into the side log.
  tracer.Record(2, "queue_wait", "shard=1", 1.0, 4.0);
  tracer.Record(2, "compute", "shard=1", 5.0, 6.0);
  tracer.Record(2, "client_push_rtt", "client", 0.0, 12.0, /*root=*/true);
  EXPECT_EQ(tracer.slow_chains(), 1);
  const std::string slow = tracer.SlowLogJson();
  EXPECT_NE(slow.find("\"root\": {\"trace_id\": 2"), std::string::npos)
      << slow;
  EXPECT_NE(slow.find("\"stage\": \"queue_wait\""), std::string::npos);
  EXPECT_NE(slow.find("\"stage\": \"compute\""), std::string::npos);
  // Even after the ring is cleared, the slow log keeps its copies.
  tracer.Clear();
  EXPECT_EQ(tracer.slow_chains(), 0);  // Clear drops the log too
}

// ---------------------------------------------------------------------------
// Acceptance: 3-backend fleet, span chain from one JSON dump, fleet scrape.
// ---------------------------------------------------------------------------

const ExperimentData& Data() {
  static const ExperimentData* data =
      new ExperimentData(BuildExperiment(XianConfig(Scale::kSmoke)));
  return *data;
}

const CausalTad* FittedCausal() {
  static const models::TrajectoryScorer* scorer = [] {
    auto owned = eval::MakeScorer("CausalTAD", Data(), Scale::kSmoke);
    models::FitOptions options;
    options.epochs = 2;
    options.lr = 3e-3f;
    options.seed = 17;
    owned->Fit(Data().train, options);
    return owned.release();
  }();
  return dynamic_cast<const CausalTad*>(scorer);
}

// Minimal parsed view of one tracer dump entry — the test reconstructs the
// chain from the JSON text alone, exactly as an offline tool would.
struct DumpSpan {
  uint64_t trace_id = 0;
  std::string stage;
  std::string where;
  double start_ms = 0.0;
};

std::vector<DumpSpan> ParseDump(const std::string& json) {
  std::vector<DumpSpan> out;
  const std::string head = "{\"trace_id\": ";
  size_t pos = 0;
  while ((pos = json.find(head, pos)) != std::string::npos) {
    DumpSpan span;
    span.trace_id = std::strtoull(json.c_str() + pos + head.size(), nullptr,
                                  10);
    const size_t end = json.find('}', pos);
    const std::string line = json.substr(pos, end - pos);
    const auto field = [&line](const std::string& key) {
      const std::string tag = "\"" + key + "\": \"";
      const size_t a = line.find(tag);
      if (a == std::string::npos) return std::string();
      const size_t b = line.find('"', a + tag.size());
      return line.substr(a + tag.size(), b - a - tag.size());
    };
    span.stage = field("stage");
    span.where = field("where");
    const size_t start = line.find("\"start_ms\": ");
    if (start != std::string::npos) {
      span.start_ms = std::atof(line.c_str() + start + 12);
    }
    out.push_back(std::move(span));
    pos = end;
  }
  return out;
}

TEST(ObsFleetTest, SpanChainReconstructsFromOneDumpAndScrapeCoversFleet) {
  const CausalTad* causal = FittedCausal();
  ASSERT_NE(causal, nullptr);
  const auto trips = eval::Subsample(Data().id_test, 3, 7);
  ASSERT_GE(trips.size(), 2u);

  // Per-backend registries keep each kStats scrape scoped to its backend;
  // ONE shared tracer collects every tier's spans so a single dump holds
  // whole chains.
  obs::Tracer tracer;
  obs::Registry backend_registry[3];
  obs::Registry router_registry;
  obs::Registry client_registry;

  struct Backend {
    std::unique_ptr<StreamingService> service;
    std::unique_ptr<Server> server;
  };
  std::vector<std::unique_ptr<Backend>> backends;
  for (int i = 0; i < 3; ++i) {
    auto backend = std::make_unique<Backend>();
    ServiceOptions sopts;
    sopts.num_shards = 2;
    sopts.pump = true;
    sopts.batcher.max_batch_rows = 16;
    sopts.registry = &backend_registry[i];
    sopts.tracer = &tracer;
    backend->service = std::make_unique<StreamingService>(causal, sopts);
    ServerOptions oopts;
    oopts.network = &Data().city.network;
    oopts.registry = &backend_registry[i];
    oopts.tracer = &tracer;
    oopts.trace_where = "backend=" + std::to_string(i);
    backend->server = std::make_unique<Server>(backend->service.get(), oopts);
    ASSERT_TRUE(backend->server->Start().ok());
    backends.push_back(std::move(backend));
  }

  RouterOptions ropts;
  ropts.idle_tick_ms = 5.0;
  ropts.health_interval_ms = 10.0;
  ropts.registry = &router_registry;
  ropts.tracer = &tracer;
  std::vector<RouterBackend> router_backends;
  for (int i = 0; i < 3; ++i) {
    RouterBackend b;
    Server* server = backends[i]->server.get();
    b.dialer = [server] { return server->AddLoopbackConnection(); };
    router_backends.push_back(std::move(b));
  }
  Router router(std::move(router_backends), ropts);
  ASSERT_TRUE(router.Start().ok());

  std::string fleet_text;
  {
    ClientOptions copts;
    copts.registry = &client_registry;
    copts.tracer = &tracer;
    copts.trace_sample_period = 1;  // every push traced
    copts.trace_slow_ms = 1e-6;    // every RTT "slow": slow log fills too
    auto client = Client::FromFd(router.AddLoopbackConnection(), copts);
    ASSERT_TRUE(client->Hello().ok()) << client->status().ToString();
    for (const auto& trip : trips) {
      const uint64_t id = client->Begin(trip.route.segments.front(),
                                        trip.route.segments.back(),
                                        trip.time_slot);
      for (const auto segment : trip.route.segments) {
        ASSERT_TRUE(client->Push(id, segment).ok())
            << client->status().ToString();
      }
      const auto scores = client->Finish(id);
      ASSERT_TRUE(scores.ok()) << scores.status().ToString();
      EXPECT_EQ(scores->size(), trip.route.segments.size());
    }
    ASSERT_TRUE(client->ScrapeStats(&fleet_text).ok())
        << client->status().ToString();
  }

  // --- Span chain, reconstructed from ONE JSON dump. ---
  const std::vector<DumpSpan> spans = ParseDump(tracer.DumpJson());
  ASSERT_FALSE(spans.empty());
  // Pick a trace whose root RTT span made it back (Finish drained all
  // scores, so every sampled push has one).
  uint64_t chain_id = 0;
  double root_start = 0.0;
  for (const DumpSpan& s : spans) {
    if (s.stage == "client_push_rtt") {
      chain_id = s.trace_id;
      root_start = s.start_ms;
      break;
    }
  }
  ASSERT_NE(chain_id, 0u) << tracer.DumpJson();
  std::set<std::string> stages;
  for (const DumpSpan& s : spans) {
    if (s.trace_id != chain_id) continue;
    stages.insert(s.stage);
    if (s.stage == "router_leg") EXPECT_EQ(s.where, "router");
    if (s.stage == "server_dispatch") {
      EXPECT_EQ(s.where.rfind("backend=", 0), 0u) << s.where;
    }
    if (s.stage == "queue_wait" || s.stage == "compute" ||
        s.stage == "emit") {
      EXPECT_EQ(s.where.rfind("shard=", 0), 0u) << s.where;
    }
    // Everything downstream happens inside the client's RTT window.
    if (s.stage != "client_push_rtt") {
      EXPECT_GE(s.start_ms, root_start - 1.0) << s.stage;
    }
  }
  const std::set<std::string> want = {"client_push_rtt", "server_dispatch",
                                      "router_leg",      "queue_wait",
                                      "compute",         "emit"};
  EXPECT_EQ(stages, want) << tracer.DumpJson();
  // The sub-ms slow threshold means root spans landed in the slow log with
  // their chains attached.
  EXPECT_GE(tracer.slow_chains(), 1);
  EXPECT_NE(tracer.SlowLogJson().find("client_push_rtt"), std::string::npos);

  // --- Fleet scrape through the downstream client. ---
  EXPECT_EQ(fleet_text.rfind("# causaltad_metrics v1\n", 0), 0u)
      << fleet_text.substr(0, 120);
  for (int i = 0; i < 3; ++i) {
    const std::string label = "backend=\"" + std::to_string(i) + "\"";
    EXPECT_NE(fleet_text.find(label), std::string::npos)
        << "missing " << label << " in:\n"
        << fleet_text;
  }
  // Backend series (service + server share each backend registry) carry the
  // injected backend label; the router's own series ride along unlabeled.
  EXPECT_NE(fleet_text.find("service_points_accepted_total{backend=\""),
            std::string::npos)
      << fleet_text;
  EXPECT_NE(fleet_text.find("server_pushes_accepted_total{backend=\""),
            std::string::npos)
      << fleet_text;
  EXPECT_NE(fleet_text.find("router_sessions_opened_total "),
            std::string::npos)
      << fleet_text;
  // The client kept its own registry out of the fleet view but counted its
  // side of the conversation.
  EXPECT_EQ(
      client_registry.GetCounter("client_pushes_sent_total")->value(), [&] {
        int64_t total = 0;
        for (const auto& trip : trips) {
          total += static_cast<int64_t>(trip.route.segments.size());
        }
        return total;
      }());

  router.Stop();
  for (auto& backend : backends) {
    backend->server->Stop();
    backend->service->Shutdown();
  }
}

}  // namespace
}  // namespace causaltad
