#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "models/table_encoder.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "obs/window.h"
#include "serialize/vocab_builder.h"
#include "serve/cluster.h"
#include "table/synth.h"

// Global allocation counter for the zero-allocation record-path pin.
// Every operator new in this binary bumps it; the test snapshots it
// around the metric hot loop. Deletes stay count-free so teardown
// cannot skew the delta.
//
// GCC cannot see that the replacement operator new is malloc-backed
// and flags every new/free pairing in the TU; the pairing is correct
// by construction here.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
static std::atomic<uint64_t> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tabrep {
namespace {

// --- WindowedRegistry: merge-on-read correctness. -----------------------

TEST(WindowTest, CounterDeltasFallOutOfTheWindow) {
  obs::Counter& c = obs::Registry::Get().counter("win.test.falloff");
  obs::WindowOptions wopts;
  wopts.window_secs = 3;
  obs::WindowedRegistry window(wopts);

  // Slot 0 carries 10, slot 1 carries 5, slot 2 nothing.
  c.Increment(10);
  window.Tick();
  c.Increment(5);
  window.Tick();
  window.Tick();

  obs::WindowedCounterStats stats;
  ASSERT_TRUE(window.CounterWindow("win.test.falloff", &stats));
  EXPECT_EQ(stats.delta, 15u);
  EXPECT_GT(stats.rate_per_sec, 0.0);

  // Two more empty ticks: the ring wraps, slot 0's 10 and slot 1's 5
  // are overwritten, and the window drains to zero.
  window.Tick();
  window.Tick();
  ASSERT_TRUE(window.CounterWindow("win.test.falloff", &stats));
  EXPECT_EQ(stats.delta, 0u);
  EXPECT_EQ(stats.rate_per_sec, 0.0);

  // Unknown names are a miss, not zeroed stats.
  EXPECT_FALSE(window.CounterWindow("win.test.never-recorded", &stats));
}

TEST(WindowTest, BaselinesExistingActivityAtConstruction) {
  obs::Counter& c = obs::Registry::Get().counter("win.test.baseline");
  c.Increment(1000);  // history that predates the window
  obs::WindowOptions wopts;
  wopts.window_secs = 4;
  obs::WindowedRegistry window(wopts);
  c.Increment(3);
  window.Tick();

  obs::WindowedCounterStats stats;
  ASSERT_TRUE(window.CounterWindow("win.test.baseline", &stats));
  EXPECT_EQ(stats.delta, 3u) << "pre-construction activity leaked in";
}

TEST(WindowTest, WindowedPercentilesAgreeWithCumulative) {
  // The acceptance pin: a window that covers all activity must report
  // the same percentiles as the cumulative histogram — both paths
  // reduce the identical bucket counts through StatsFromBucketCounts,
  // so agreement is exact, not merely within log-bucket tolerance.
  obs::Histogram& h = obs::Registry::Get().histogram("win.test.agree.us");
  obs::WindowOptions wopts;
  wopts.window_secs = 8;
  obs::WindowedRegistry window(wopts);

  // A wide log-spread of latencies, recorded across two slots.
  double v = 1.0;
  for (int i = 0; i < 4000; ++i) {
    h.Record(v);
    v *= 1.004;
    if (i == 2000) window.Tick();
  }
  window.Tick();

  const obs::HistogramStats cumulative = h.Stats();
  obs::WindowedHistogramStats windowed;
  ASSERT_TRUE(window.HistogramWindow("win.test.agree.us", &windowed));
  ASSERT_EQ(windowed.count, cumulative.count);
  // The windowed sum is reassembled from snapshot differences, so the
  // mean can differ by float rounding; percentiles reduce identical
  // integer bucket counts and must agree exactly.
  EXPECT_NEAR(windowed.mean, cumulative.mean, 1e-9 * cumulative.mean);
  EXPECT_DOUBLE_EQ(windowed.p50, cumulative.p50);
  EXPECT_DOUBLE_EQ(windowed.p95, cumulative.p95);
  EXPECT_DOUBLE_EQ(windowed.p99, cumulative.p99);
}

TEST(WindowTest, PartialWindowDropsOldPercentileMass) {
  // Record a low-latency era, roll it out of the window, then a
  // high-latency era: the windowed p50 must reflect only the recent
  // era while the cumulative p50 still sits between the two.
  obs::Histogram& h = obs::Registry::Get().histogram("win.test.eras.us");
  obs::WindowOptions wopts;
  wopts.window_secs = 2;
  obs::WindowedRegistry window(wopts);

  for (int i = 0; i < 1000; ++i) h.Record(10.0);
  window.Tick();
  window.Tick();  // low era now fills the whole ring
  for (int i = 0; i < 1000; ++i) h.Record(10000.0);
  window.Tick();
  window.Tick();  // high era overwrites both slots

  obs::WindowedHistogramStats windowed;
  ASSERT_TRUE(window.HistogramWindow("win.test.eras.us", &windowed));
  EXPECT_EQ(windowed.count, 1000u);
  EXPECT_GT(windowed.p50, 1000.0) << "old low-latency era still visible";
  const obs::HistogramStats cumulative = h.Stats();
  EXPECT_EQ(cumulative.count, 2000u);
  EXPECT_LT(cumulative.p50, 1000.0) << "cumulative median spans both eras";
}

TEST(WindowTest, CounterResetContributesPostResetValue) {
  // Registry::ResetAll (or a restarted exporter) shrinks cumulative
  // values; the slot must carry the post-reset value, never a huge
  // unsigned wraparound.
  obs::Counter& c = obs::Registry::Get().counter("win.test.reset");
  obs::WindowOptions wopts;
  wopts.window_secs = 4;
  obs::WindowedRegistry window(wopts);
  c.Increment(100);
  window.Tick();
  c.Reset();
  c.Increment(7);
  window.Tick();

  obs::WindowedCounterStats stats;
  ASSERT_TRUE(window.CounterWindow("win.test.reset", &stats));
  EXPECT_EQ(stats.delta, 107u);
}

TEST(WindowTest, ToJsonIsValidAndCarriesWindowedEntries) {
  obs::Counter& c = obs::Registry::Get().counter("win.test.json");
  obs::Histogram& h = obs::Registry::Get().histogram("win.test.json.us");
  obs::WindowOptions wopts;
  wopts.window_secs = 4;
  obs::WindowedRegistry window(wopts);
  c.Increment(5);
  for (int i = 0; i < 32; ++i) h.Record(100.0 + i);
  window.Tick();

  const std::string json = window.ToJson();
  ASSERT_TRUE(obs::JsonLint(json)) << json;
  Result<obs::JsonValue> doc = obs::JsonParse(json);
  ASSERT_TRUE(doc.ok());
  const obs::JsonValue* delta = doc->Get({"counters", "win.test.json",
                                          "delta"});
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->AsNumber(), 5.0);
  const obs::JsonValue* p99 = doc->Get({"histograms", "win.test.json.us",
                                        "p99"});
  ASSERT_NE(p99, nullptr);
  EXPECT_GT(p99->AsNumber(), 0.0);
  ASSERT_NE(doc->Find("window_secs"), nullptr);
  ASSERT_NE(doc->Find("covered_secs"), nullptr);
}

// --- Zero allocations on the record path (acceptance pin). --------------

TEST(WindowTest, RecordPathDoesNotAllocate) {
  // Pre-warm: instrument creation and the first Beat may allocate;
  // the steady-state record path must not. The WindowedRegistry exists
  // here to prove its presence adds nothing to the writer side —
  // all windowing cost is merge-on-read inside Tick()/queries.
  obs::Counter& c = obs::Registry::Get().counter("win.test.alloc.count");
  obs::Gauge& g = obs::Registry::Get().gauge("win.test.alloc.gauge");
  obs::Histogram& h = obs::Registry::Get().histogram("win.test.alloc.us");
  obs::Heartbeat heartbeat("win.test.alloc.lag.us");
  heartbeat.Beat();
  obs::WindowedRegistry window;
  window.Tick();

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    c.Increment();
    g.Set(static_cast<double>(i));
    h.Record(static_cast<double>(1 + (i % 4096)));
    heartbeat.Beat();
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "metric record path allocated " << (after - before) << " times";
}

// --- Heartbeat + watchdog units. ----------------------------------------

TEST(WatchdogTest, HeartbeatTracksLag) {
  obs::Heartbeat hb("win.test.hb.us");
  EXPECT_FALSE(hb.ever_beat());
  EXPECT_LT(hb.MicrosSinceBeat(), 0.0);
  hb.Beat();
  EXPECT_TRUE(hb.ever_beat());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double lag = hb.MicrosSinceBeat();
  EXPECT_GE(lag, 15000.0);
  hb.Beat();
  EXPECT_LT(hb.MicrosSinceBeat(), lag);
  // Inter-beat gaps land in the named histogram.
  EXPECT_GE(obs::Registry::Get().histogram("win.test.hb.us").Stats().count,
            1u);
}

TEST(WatchdogTest, ApplySloThresholds) {
  obs::SloConfig slo;
  slo.target_p99_us = 1000.0;
  slo.max_shed_rate = 0.1;

  obs::HealthVerdict ok;
  obs::ApplySlo(slo, 900.0, 0.05, &ok);
  EXPECT_EQ(ok.level, obs::HealthLevel::kOk);
  EXPECT_TRUE(ok.reasons.empty());

  obs::HealthVerdict degraded;
  obs::ApplySlo(slo, 1500.0, 0.0, &degraded);
  EXPECT_EQ(degraded.level, obs::HealthLevel::kDegraded);
  ASSERT_EQ(degraded.reasons.size(), 1u);
  EXPECT_EQ(degraded.reasons[0].code, "slo_p99");

  obs::HealthVerdict critical;
  obs::ApplySlo(slo, 2500.0, 0.25, &critical);  // 2x p99 target + shed
  EXPECT_EQ(critical.level, obs::HealthLevel::kCritical);
  ASSERT_EQ(critical.reasons.size(), 2u);
  EXPECT_EQ(critical.reasons[1].code, "slo_shed_rate");

  // Zero targets disable the checks entirely.
  obs::HealthVerdict unbounded;
  obs::ApplySlo(obs::SloConfig{}, 1e9, 1.0, &unbounded);
  EXPECT_EQ(unbounded.level, obs::HealthLevel::kOk);
}

TEST(WatchdogTest, OptionsFromEnv) {
  setenv("TABREP_WATCHDOG_INTERVAL_MS", "123", 1);
  setenv("TABREP_WATCHDOG_DEADMAN_MS", "456", 1);
  setenv("TABREP_SLO_P99_US", "7500", 1);
  setenv("TABREP_SLO_SHED_RATE", "0.25", 1);
  setenv("TABREP_WINDOW_SECS", "17", 1);
  obs::WatchdogOptions wopts = obs::WatchdogOptions::FromEnv();
  EXPECT_EQ(wopts.interval_ms, 123);
  EXPECT_EQ(wopts.deadman_ms, 456);
  EXPECT_DOUBLE_EQ(wopts.slo.target_p99_us, 7500.0);
  EXPECT_DOUBLE_EQ(wopts.slo.max_shed_rate, 0.25);
  EXPECT_EQ(obs::WindowOptions::FromEnv().window_secs, 17);
  unsetenv("TABREP_WATCHDOG_INTERVAL_MS");
  unsetenv("TABREP_WATCHDOG_DEADMAN_MS");
  unsetenv("TABREP_SLO_P99_US");
  unsetenv("TABREP_SLO_SHED_RATE");
  unsetenv("TABREP_WINDOW_SECS");
  EXPECT_EQ(obs::WatchdogOptions::FromEnv().interval_ms,
            obs::WatchdogOptions{}.interval_ms);
}

TEST(WatchdogTest, DeadmanTripsOnStalledHeartbeatAndRecovers) {
  obs::WatchdogOptions wopts;
  wopts.interval_ms = 10;
  wopts.deadman_ms = 50;
  obs::Heartbeat hb("win.test.deadman.us");
  obs::Watchdog watchdog(wopts, nullptr);
  watchdog.WatchHeartbeat("testloop", &hb);

  hb.Beat();
  watchdog.TickOnce();
  EXPECT_EQ(watchdog.verdict().level, obs::HealthLevel::kOk);

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  watchdog.TickOnce();
  obs::HealthVerdict verdict = watchdog.verdict();
  EXPECT_NE(verdict.level, obs::HealthLevel::kOk);
  ASSERT_FALSE(verdict.reasons.empty());
  EXPECT_EQ(verdict.reasons[0].code, "testloop_stall");
  ASSERT_EQ(verdict.heartbeat_lag_us.size(), 1u);
  EXPECT_GE(verdict.heartbeat_lag_us[0].second, 50000.0);

  hb.Beat();
  watchdog.TickOnce();
  EXPECT_EQ(watchdog.verdict().level, obs::HealthLevel::kOk);
}

TEST(WatchdogTest, SloEvaluatesWindowedLatency) {
  // The watchdog folds the windowed p99 of its configured latency
  // histogram into the verdict; a latency burst inside the window
  // trips the SLO, and rolling it out of the window clears it.
  obs::WatchdogOptions wopts;
  wopts.interval_ms = 10;
  wopts.deadman_ms = 60000;  // irrelevant here
  wopts.slo.target_p99_us = 500.0;
  wopts.latency_histogram = "win.test.slo.request.us";
  wopts.requests_counter = "win.test.slo.requests";
  wopts.shed_counter = "win.test.slo.shed";
  obs::Histogram& lat =
      obs::Registry::Get().histogram("win.test.slo.request.us");
  obs::WindowOptions wo;
  wo.window_secs = 2;
  obs::WindowedRegistry window(wo);
  obs::Watchdog watchdog(wopts, &window);

  for (int i = 0; i < 200; ++i) lat.Record(5000.0);  // 10x the target
  watchdog.TickOnce();
  obs::HealthVerdict verdict = watchdog.verdict();
  EXPECT_EQ(verdict.level, obs::HealthLevel::kCritical);
  ASSERT_FALSE(verdict.reasons.empty());
  EXPECT_EQ(verdict.reasons[0].code, "slo_p99");
  EXPECT_GT(verdict.window_p99_us, 500.0);

  watchdog.TickOnce();
  watchdog.TickOnce();  // burst rolls out of the 2-slot window
  EXPECT_EQ(watchdog.verdict().level, obs::HealthLevel::kOk);
}

TEST(WatchdogTest, ProbesAreSampledIntoTheVerdict) {
  obs::WatchdogOptions wopts;
  wopts.interval_ms = 10;
  obs::Watchdog watchdog(wopts, nullptr);
  std::atomic<double> depth{3.0};
  watchdog.AddProbe("queue_depth", [&] { return depth.load(); });
  watchdog.AddProbe("rss_bytes", [] {
    return static_cast<double>(obs::ProcessRssBytes());
  });
  watchdog.TickOnce();
  obs::HealthVerdict verdict = watchdog.verdict();
  ASSERT_EQ(verdict.probes.size(), 2u);
  EXPECT_EQ(verdict.probes[0].first, "queue_depth");
  EXPECT_DOUBLE_EQ(verdict.probes[0].second, 3.0);
  EXPECT_GT(verdict.probes[1].second, 0.0) << "RSS probe read nothing";

  const std::string json =
      obs::HealthVerdictJson(verdict, obs::SloConfig{});
  ASSERT_TRUE(obs::JsonLint(json)) << json;
  Result<obs::JsonValue> doc = obs::JsonParse(json);
  ASSERT_TRUE(doc.ok());
  ASSERT_NE(doc->Get({"probes", "queue_depth"}), nullptr);
}

TEST(WatchdogTest, BackgroundThreadPublishesVerdicts) {
  obs::WatchdogOptions wopts;
  wopts.interval_ms = 5;
  wopts.deadman_ms = 60000;
  obs::Heartbeat hb("win.test.bg.us");
  hb.Beat();
  obs::Watchdog watchdog(wopts, nullptr);
  watchdog.WatchHeartbeat("bg", &hb);
  watchdog.Start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (watchdog.verdict().ticks < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    hb.Beat();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  watchdog.Stop();
  EXPECT_GE(watchdog.verdict().ticks, 3);
  EXPECT_EQ(watchdog.verdict().level, obs::HealthLevel::kOk);
}

// --- End-to-end: a wedged dispatcher flips kHealth to degraded. ---------

/// Corpus + tokenizer + model shared by the socket tests (vocab
/// building is the slow part; same idiom as NetFixture).
class WindowNetFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticCorpusOptions opts;
    opts.num_tables = 8;
    corpus_ = new TableCorpus(GenerateSyntheticCorpus(opts));
    WordPieceTrainerOptions topts;
    topts.vocab_size = 800;
    tokenizer_ = new WordPieceTokenizer(BuildCorpusTokenizer(*corpus_, topts));
    SerializerOptions sopts;
    sopts.max_tokens = 64;
    serializer_ = new TableSerializer(tokenizer_, sopts);

    ModelConfig config;
    config.family = ModelFamily::kTapas;
    config.vocab_size = tokenizer_->vocab().size();
    config.entity_vocab_size = corpus_->entities.size();
    config.transformer.dim = 32;
    config.transformer.num_layers = 1;
    config.transformer.num_heads = 2;
    config.transformer.ffn_dim = 64;
    config.transformer.dropout = 0.0f;
    config.max_position = 128;
    model_ = new TableEncoderModel(config);
    model_->SetTraining(false);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete serializer_;
    delete tokenizer_;
    delete corpus_;
    model_ = nullptr;
    serializer_ = nullptr;
    tokenizer_ = nullptr;
    corpus_ = nullptr;
  }

  static TableCorpus* corpus_;
  static WordPieceTokenizer* tokenizer_;
  static TableSerializer* serializer_;
  static TableEncoderModel* model_;
};

TableCorpus* WindowNetFixture::corpus_ = nullptr;
WordPieceTokenizer* WindowNetFixture::tokenizer_ = nullptr;
TableSerializer* WindowNetFixture::serializer_ = nullptr;
TableEncoderModel* WindowNetFixture::model_ = nullptr;

/// Polls kHealth until `want_status` or the deadline; returns the
/// last parsed document (Null on transport/parse failure).
obs::JsonValue PollHealthUntil(net::Client* client,
                               const std::string& want_status,
                               std::chrono::milliseconds deadline_ms,
                               bool* reached) {
  *reached = false;
  obs::JsonValue last;
  const auto deadline = std::chrono::steady_clock::now() + deadline_ms;
  while (std::chrono::steady_clock::now() < deadline) {
    StatusOr<std::string> health = client->Health();
    if (!health.ok()) return last;
    Result<obs::JsonValue> doc = obs::JsonParse(*health);
    if (!doc.ok()) return last;
    last = std::move(*doc);
    const obs::JsonValue* status = last.Find("status");
    if (status != nullptr && status->AsString() == want_status) {
      *reached = true;
      return last;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return last;
}

TEST_F(WindowNetFixture, DispatcherStallFlipsHealthDegradedThenRecovers) {
  // One slow batch: the dispatcher sleeps ~1.5s mid-dispatch, so its
  // heartbeat (beaten per wakeup, every <=100ms when healthy) goes
  // quiet. With a 300ms deadman and 30ms watchdog cadence the verdict
  // must flip to degraded with a dispatcher_stall reason within 2x the
  // deadman of the stall being induced, and return to ok once the
  // batch completes.
  serve::ClusterOptions copts;
  copts.encoder.max_batch = 1;
  copts.encoder.max_wait_us = 0;
  copts.encoder.cache_capacity = 0;
  copts.encoder.dispatch_delay_us = 1500000;
  serve::Cluster cluster(model_, copts);

  net::ServerOptions sopts;
  sopts.watchdog_interval_ms = 30;
  sopts.watchdog_deadman_ms = 300;
  sopts.window_secs = 10;
  net::Server server(&cluster, sopts);
  ASSERT_TRUE(server.Start().ok());

  StatusOr<net::Client> sender =
      net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(sender.ok());
  StatusOr<net::Client> prober =
      net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(prober.ok());

  // Healthy first: dispatcher and event loop both beating.
  bool reached = false;
  obs::JsonValue doc = PollHealthUntil(&*prober, "ok",
                                       std::chrono::milliseconds(3000),
                                       &reached);
  ASSERT_TRUE(reached) << "server never reported ok at idle";

  // Induce the stall. kHealth is answered on the event loop, so the
  // probe connection keeps working while the dispatcher sleeps.
  const auto stall_start = std::chrono::steady_clock::now();
  ASSERT_TRUE(
      sender->SendEncodeRequest(serializer_->Serialize(corpus_->tables[0]), 1)
          .ok());
  doc = PollHealthUntil(&*prober, "degraded",
                        std::chrono::milliseconds(2 * 300), &reached);
  const double detect_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - stall_start)
          .count();
  ASSERT_TRUE(reached) << "stall not detected within 2x deadman";
  EXPECT_LE(detect_ms, 2.0 * 300.0);

  // Machine-readable cause: the dispatcher heartbeat tripped the
  // deadman, and the lag sample in the verdict exceeds it.
  const obs::JsonValue* reasons = doc.Get({"slo", "reasons"});
  ASSERT_NE(reasons, nullptr);
  bool saw_dispatcher_stall = false;
  for (const obs::JsonValue& reason : reasons->items()) {
    const obs::JsonValue* code = reason.Find("code");
    if (code != nullptr && code->AsString() == "dispatcher_stall") {
      saw_dispatcher_stall = true;
    }
  }
  EXPECT_TRUE(saw_dispatcher_stall) << "no dispatcher_stall reason";
  const obs::JsonValue* lag =
      doc.Get({"slo", "heartbeat_lag_us", "dispatcher"});
  ASSERT_NE(lag, nullptr);
  EXPECT_GT(lag->AsNumber(), 300.0 * 1000.0);

  // The batch finishes, the response arrives, beats resume, verdict
  // clears. Generous deadline: the sleep itself is 1.5s.
  StatusOr<net::EncodeResult> result = sender->ReadResponse();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  doc = PollHealthUntil(&*prober, "ok", std::chrono::milliseconds(10000),
                        &reached);
  EXPECT_TRUE(reached) << "verdict never recovered to ok";

  // The stats plane carries the additive window section end-to-end.
  StatusOr<std::string> stats_json = prober->Stats();
  ASSERT_TRUE(stats_json.ok());
  Result<obs::JsonValue> stats = obs::JsonParse(*stats_json);
  ASSERT_TRUE(stats.ok());
  ASSERT_NE(stats->Get({"window", "window_secs"}), nullptr);
  ASSERT_NE(stats->Get({"window", "histograms"}), nullptr);

  server.Stop();
}

TEST_F(WindowNetFixture, WatchdogDisabledServesLegacyHealth) {
  serve::Cluster cluster(model_);
  net::ServerOptions sopts;
  sopts.watchdog = false;
  net::Server server(&cluster, sopts);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<net::Client> client =
      net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  StatusOr<std::string> health_json = client->Health();
  ASSERT_TRUE(health_json.ok());
  Result<obs::JsonValue> health = obs::JsonParse(*health_json);
  ASSERT_TRUE(health.ok());
  ASSERT_NE(health->Find("status"), nullptr);
  EXPECT_EQ(health->Find("status")->AsString(), "ok");
  EXPECT_EQ(health->Find("slo"), nullptr);

  StatusOr<std::string> stats_json = client->Stats();
  ASSERT_TRUE(stats_json.ok());
  Result<obs::JsonValue> stats = obs::JsonParse(*stats_json);
  ASSERT_TRUE(stats.ok());
  // The key stays (additive schema), but empty without the watchdog.
  const obs::JsonValue* window = stats->Find("window");
  ASSERT_NE(window, nullptr);
  EXPECT_TRUE(window->members().empty());
}

}  // namespace
}  // namespace tabrep
