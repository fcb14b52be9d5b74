// serve_cold / serve_hot: pre-tokenized tables go over the wire to an
// in-process net::Server in front of a 2-shard serve::Cluster.
//
// Phases (untraced run): a short warm-up, a closed loop of a few
// pipelined connections to saturation (capacity; its first part is an
// unmeasured ramp), then an open loop at a fixed rate (latency timed
// from each request's due time). The traced run measures an untraced
// closed-loop base first, then both loops with the library's spans and
// the benchmark's own spans on.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>
#include <utility>

#include "checks.h"
#include "common/rng.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "runtime/runtime.h"
#include "serve/cluster.h"
#include "serve/serve.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

using namespace tabrep;

namespace {

// Topology and traffic shape (README "Inputs").
constexpr int64_t kShards = 2;
constexpr int64_t kCachePerShard = 128;
constexpr int64_t kColdWorkingSet = 2048;  // 8x both caches together
constexpr int64_t kColdBaseTables = 512;
constexpr int64_t kHotWorkingSet = 48;     // x2 precisions < one shard's cache
constexpr double kZipfAlpha = 1.1;
constexpr uint64_t kReloadEvery = 2000;    // requests sent, hot only
constexpr uint64_t kInt8Every = 4;         // request i is int8 iff i % 4 == 3
constexpr int kOpenConns = 2;
constexpr int kClosedConns = 3;
constexpr int kClosedDepth = 8;
constexpr double kWindowSeconds = 0.5;  // capacity = median window rate
// The run report's latency_tail_us is the median over windows of the
// open loop's p90; its p99 is reported beside it and, traced, as
// loadgen.request_p99_us.
constexpr double kTailQuantile = 0.90;
// Traced runs keep the send/request spans of every 16th request, so a
// serving run's span file stays a few MB.
constexpr uint64_t kSpanSampleEvery = 16;
constexpr int64_t kMaxTokens = 128;
// Open-loop rates, fixed in the benchmark and never derived from a
// run: about a sixth (cold) and a fifth (hot) of the closed-loop
// capacity measured on a quiet 4-core VM when they were set (README).
// That machine is shared, and its capacity halved at times; at a third
// to a half of the quiet capacity the open loops tipped into a growing
// backlog on some runs.
constexpr double kColdRate = 1000.0;
constexpr double kHotRate = 8000.0;

// Weight sets: version v encodes under A when v is odd, B when even.
constexpr uint64_t kWeightSeedA = 101;
constexpr uint64_t kWeightSeedB = 202;

kernels::Precision PrecisionOf(bool int8) {
  return int8 ? kernels::Precision::kInt8 : kernels::Precision::kFloat32;
}

/// Deterministic request stream: request i's table and precision are a
/// pure function of (seed, i), so every thread derives them alone.
class Traffic {
 public:
  Traffic(uint64_t seed, bool hot, int64_t working_set)
      : seed_(seed), hot_(hot), n_(working_set) {
    if (hot_) {
      double total = 0.0;
      for (int64_t r = 0; r < n_; ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfAlpha);
        cdf_.push_back(total);
      }
      for (double& c : cdf_) c /= total;
    }
  }

  int32_t Table(uint64_t i) const {
    if (!hot_) return static_cast<int32_t>(i % static_cast<uint64_t>(n_));
    const double u = UnitDouble(seed_ ^ 0x5eedULL, i);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int32_t>(
        std::min<int64_t>(it - cdf_.begin(), n_ - 1));
  }
  static bool Int8(uint64_t i) { return i % kInt8Every == kInt8Every - 1; }

 private:
  uint64_t seed_;
  bool hot_;
  int64_t n_;
  std::vector<double> cdf_;
};

/// Publishes the alternating weight sets from its own thread whenever
/// the senders cross a multiple of kReloadEvery requests.
class Reloader {
 public:
  Reloader(serve::Cluster* cluster, const TensorMap* a, const TensorMap* b)
      : cluster_(cluster), a_(a), b_(b), thread_([this] { Loop(); }) {}
  ~Reloader() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Reloader(const Reloader&) = delete;
  Reloader& operator=(const Reloader&) = delete;

  void Trigger() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++pending_;
    }
    cv_.notify_all();
  }
  /// Waits until every triggered reload has been published.
  void Drain() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [&] { return pending_ == 0 && !busy_; });
  }
  /// Durations (us) of PublishWeights calls since the last Take.
  std::vector<double> TakeDurations() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(durations_, {});
  }
  /// Published version -> steady-clock ns when its PublishWeights
  /// returned (every shard serves it, or newer, from then on).
  std::map<uint64_t, int64_t> publish_end_ns() {
    std::lock_guard<std::mutex> lock(mu_);
    return publish_end_ns_;
  }
  std::string error() {
    std::lock_guard<std::mutex> lock(mu_);
    return error_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [&] { return stop_ || pending_ > 0; });
      if (pending_ == 0 && stop_) return;
      --pending_;
      busy_ = true;
      lock.unlock();
      const uint64_t next = cluster_->weights_version() + 1;
      const TensorMap& ckpt = next % 2 == 1 ? *a_ : *b_;
      const Clock::time_point t0 = Clock::now();
      StatusOr<uint64_t> v = [&] {
        ScopedSpan span("cluster.publish_weights", next);
        return cluster_->PublishWeights(ckpt);
      }();
      const Clock::time_point t1 = Clock::now();
      lock.lock();
      busy_ = false;
      durations_.push_back(Us(t1 - t0));
      if (!v.ok()) {
        error_ = "PublishWeights: " + v.status().ToString();
      } else if (*v != next) {
        error_ = "PublishWeights returned version " + std::to_string(*v) +
                 ", expected " + std::to_string(next);
      } else {
        publish_end_ns_[next] = Ns(t1);
      }
      if (pending_ == 0) idle_cv_.notify_all();
    }
  }

  serve::Cluster* cluster_;
  const TensorMap* a_;
  const TensorMap* b_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  int64_t pending_ = 0;
  bool busy_ = false;
  bool stop_ = false;
  std::vector<double> durations_;
  std::map<uint64_t, int64_t> publish_end_ns_;
  std::string error_;
  std::thread thread_;  // last: starts after the members it uses
};

/// What one connection saw during one phase.
struct ConnLog {
  ConnectionResponses served;        // OK responses, receive order
  std::vector<double> send_to_recv_us;
  int64_t ok = 0;
  int64_t failed = 0;
  std::string transport_error;
  std::vector<float> sample_hidden;  // first OK response's hidden states
};

/// Everything a set of phases produced.
struct ServeLog {
  std::vector<ConnectionResponses> connections;  // one per connection-phase
  std::vector<double> open_latency_us;  // from due time, in due order
  std::vector<double> send_to_recv_us;
  std::vector<double> lateness_us;
  int64_t attempted = 0;
  int64_t ok = 0;
  int64_t failed = 0;
  std::string transport_error;
  // First OK response (record and bytes), for the negative self-test.
  ServedRecord sample_record;
  std::vector<float> sample_hidden;

  void Add(ConnLog& log) {
    if (sample_hidden.empty() && !log.served.empty()) {
      sample_record = log.served.front();
      sample_hidden = std::move(log.sample_hidden);
    }
    connections.push_back(std::move(log.served));
    Append(send_to_recv_us, log.send_to_recv_us);
    ok += log.ok;
    failed += log.failed;
    if (transport_error.empty()) transport_error = log.transport_error;
  }
  void Add(const ServeLog& o) {
    if (sample_hidden.empty()) {
      sample_record = o.sample_record;
      sample_hidden = o.sample_hidden;
    }
    Append(connections, o.connections);
    Append(open_latency_us, o.open_latency_us);
    Append(send_to_recv_us, o.send_to_recv_us);
    Append(lateness_us, o.lateness_us);
    attempted += o.attempted;
    ok += o.ok;
    failed += o.failed;
    if (transport_error.empty()) transport_error = o.transport_error;
  }
  std::vector<ServedRecord> AllServed() const {
    std::vector<ServedRecord> all;
    for (const ConnectionResponses& c : connections) Append(all, c);
    return all;
  }

 private:
  template <typename T>
  static void Append(std::vector<T>& to, const std::vector<T>& from) {
    to.insert(to.end(), from.begin(), from.end());
  }
};

class ServeBench {
 public:
  ServeBench(const RunConfig& config, bool hot) : config_(config), hot_(hot) {}

  RunResult Run();

 private:
  void Setup(RunResult* result);
  /// Reads the response to request `expected` on `client` and books it
  /// into `log`; `sent_time` is asked for the request's send time once
  /// the response is in. False (log.transport_error set) on a transport
  /// failure or an out-of-order response.
  bool Receive(net::Client& client, uint64_t expected,
               const std::function<Clock::time_point()>& sent_time,
               ConnLog& log, Clock::time_point* recv);
  Status Send(net::Client& client, uint64_t i);
  void WarmUp();
  void OpenLoop(double seconds, ServeLog* out);
  /// Closed loop for ramp + measure seconds; returns the capacity: the
  /// median over kWindowSeconds windows of the measure part of OK
  /// responses per second.
  double ClosedLoop(double ramp_seconds, double measure_seconds,
                    ServeLog* out);
  void Verify(const ServeLog& log, int64_t server_requests,
              const std::map<uint64_t, int64_t>& publish_end_ns,
              RunResult* result);
  void FillServeLayers(const ServeLog& traced, RunResult* result);
  /// Open-loop requests per tail window: one reload period on
  /// serve_hot (every window holds exactly one republish), one second
  /// of schedule on serve_cold. Both keep 100 samples beyond p90 and at
  /// least ten beyond p99.
  size_t TailWindow() const {
    return hot_ ? kReloadEvery : static_cast<size_t>(kColdRate);
  }

  RunConfig config_;
  bool hot_;
  TableCorpus corpus_;
  std::unique_ptr<WordPieceTokenizer> tokenizer_;
  std::unique_ptr<TableSerializer> serializer_;
  std::vector<TokenizedTable> tables_;  // the working set
  std::unique_ptr<Traffic> traffic_;
  ModelConfig model_config_;
  std::unique_ptr<TableEncoderModel> model_a_;
  TensorMap ckpt_a_, ckpt_b_;
  std::unique_ptr<serve::Cluster> cluster_;
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<Reloader> reloader_;
  std::vector<net::Client> clients_;  // kClosedConns >= kOpenConns
  uint64_t next_request_ = 0;
};

void ServeBench::Setup(RunResult* result) {
  SetupClock clock;
  const int64_t base_tables = hot_ ? kHotWorkingSet : kColdBaseTables;
  corpus_ = MakeCorpus(config_.seed, 1, base_tables, 1, 16);
  SetLayer(result, "setup.corpus_s", clock.Lap());

  tokenizer_ = std::make_unique<WordPieceTokenizer>(MakeTokenizer(corpus_));
  SerializerOptions sopts;
  sopts.max_tokens = kMaxTokens;
  sopts.max_rows = 16;
  sopts.max_columns = 8;
  serializer_ = std::make_unique<TableSerializer>(tokenizer_.get(), sopts);
  SetLayer(result, "setup.tokenizer_s", clock.Lap());

  // Working set: distinct shape variants of the corpus tables (distinct
  // by serve cache key, so cycling them never hits by accident).
  const int64_t working_set = hot_ ? kHotWorkingSet : kColdWorkingSet;
  std::set<uint64_t> keys;
  for (uint64_t i = 0; static_cast<int64_t>(tables_.size()) < working_set;
       ++i) {
    const Table& base = corpus_.tables[i % corpus_.tables.size()];
    TokenizedTable t = serializer_->Serialize(VaryShape(base, config_.seed, i));
    if (keys.insert(serve::HashTokenizedTable(t)).second) {
      tables_.push_back(std::move(t));
    }
  }
  if (hot_) {
    // Zipf rank r gets the table at length position (24 + 29 r) % 48 (29
    // is coprime to 48; the hottest rank gets the median length): which
    // lengths are hot is then the same for every seed, so the seed
    // moves content, not the work a rank costs.
    std::stable_sort(tables_.begin(), tables_.end(),
                     [](const TokenizedTable& a, const TokenizedTable& b) {
                       return a.size() < b.size();
                     });
    std::vector<TokenizedTable> by_rank(tables_.size());
    for (size_t r = 0; r < tables_.size(); ++r) {
      by_rank[r] = tables_[(24 + r * 29) % tables_.size()];
    }
    tables_ = std::move(by_rank);
  }
  traffic_ = std::make_unique<Traffic>(config_.seed, hot_, working_set);
  double tokens = 0.0;
  for (const TokenizedTable& t : tables_) tokens += static_cast<double>(t.size());
  result->notes["serve.working_set_mean_tokens"] =
      tokens / static_cast<double>(tables_.size());
  SetLayer(result, "setup.inputs_s", clock.Lap());

  // Two fixed weight sets, both int8-calibrated on the working set.
  model_config_ = EncoderConfig(ModelFamily::kTabert,
                                tokenizer_->vocab().size(),
                                static_cast<int64_t>(corpus_.entities.size()),
                                64, 128, kWeightSeedA);
  std::vector<TokenizedTable> calibration(
      tables_.begin(), tables_.begin() + std::min<int64_t>(64, working_set));
  model_a_ = std::make_unique<TableEncoderModel>(model_config_);
  model_a_->SetTraining(false);
  model_a_->CalibrateInt8(calibration);
  ckpt_a_ = model_a_->ExportStateDict();
  {
    ModelConfig cb = model_config_;
    cb.seed = kWeightSeedB;
    TableEncoderModel model_b(cb);
    model_b.SetTraining(false);
    model_b.CalibrateInt8(calibration);
    ckpt_b_ = model_b.ExportStateDict();
  }

  serve::ClusterOptions copts;
  copts.shards = kShards;
  copts.steal_threshold = 8;
  copts.encoder.max_batch = 8;
  copts.encoder.max_wait_us = 200;
  copts.encoder.cache_capacity = kCachePerShard;
  copts.encoder.max_queue = 0;
  cluster_ = std::make_unique<serve::Cluster>(model_a_.get(), copts);
  SetLayer(result, "setup.model_s", clock.Lap());

  net::ServerOptions nopts;
  nopts.port = 0;
  nopts.max_queue = 1 << 16;              // no admission sheds: a stall
  nopts.max_inflight_per_conn = 1 << 16;  // shows as latency, not loss
  nopts.shards = kShards;
  server_ = std::make_unique<net::Server>(cluster_.get(), nopts);
  Status started = server_->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "perfbench: server start: %s\n",
                 started.ToString().c_str());
    std::exit(1);
  }
  for (int c = 0; c < kClosedConns; ++c) {
    StatusOr<net::Client> client = net::Client::Connect("127.0.0.1",
                                                         server_->port());
    if (!client.ok()) {
      std::fprintf(stderr, "perfbench: connect: %s\n",
                   client.status().ToString().c_str());
      std::exit(1);
    }
    clients_.push_back(std::move(*client));
  }
  if (hot_) {
    reloader_ = std::make_unique<Reloader>(cluster_.get(), &ckpt_a_, &ckpt_b_);
  }
}

Status ServeBench::Send(net::Client& client, uint64_t i) {
  const Clock::time_point start = Clock::now();
  Status s = client.SendEncodeRequest(
      tables_[static_cast<size_t>(traffic_->Table(i))],
      static_cast<uint32_t>(i), PrecisionOf(Traffic::Int8(i)));
  if (i % kSpanSampleEvery == 0) {
    spans::Record("client.send", start, Clock::now(), i);
  }
  if (reloader_ && (i + 1) % kReloadEvery == 0) reloader_->Trigger();
  return s;
}

bool ServeBench::Receive(net::Client& client, uint64_t expected,
                         const std::function<Clock::time_point()>& sent_time,
                         ConnLog& log, Clock::time_point* recv) {
  StatusOr<net::EncodeResult> r = client.ReadResponse();
  *recv = Clock::now();
  const Clock::time_point sent = sent_time();
  if (!r.ok()) {
    log.transport_error = r.status().ToString();
    return false;
  }
  // Responses on one connection come back in request order.
  if (r->seq != expected) {
    log.transport_error = "response " + std::to_string(r->seq) +
                          " where " + std::to_string(expected) +
                          " was next";
    return false;
  }
  log.send_to_recv_us.push_back(Us(*recv - sent));
  if (expected % kSpanSampleEvery == 0) {
    spans::Record("client.request", sent, *recv, expected);
  }
  if (!r->status.ok()) {
    ++log.failed;
    return true;
  }
  ++log.ok;
  const Tensor& h = r->encoded.hidden;
  ServedRecord rec;
  rec.request = expected;
  rec.table = traffic_->Table(expected);
  rec.int8 = Traffic::Int8(expected);
  rec.version = r->encoded.weights_version;
  rec.sent_ns = Ns(sent);
  rec.hash = HashBytes(h.data(), static_cast<size_t>(h.numel()) * sizeof(float));
  rec.rows = h.dim() == 2 ? h.rows() : 0;
  rec.cols = h.dim() == 2 ? h.cols() : 0;
  if (log.served.empty()) {
    log.sample_hidden.assign(h.data(), h.data() + h.numel());
  }
  log.served.push_back(rec);
  return true;
}

void ServeBench::WarmUp() {
  // Cold: tables from the end of the cycle (evicted long before the
  // measured cycle reaches them). Hot: the whole working set, both
  // precisions, so the measured phase starts with warm caches.
  std::vector<std::pair<int32_t, bool>> warm;
  if (hot_) {
    for (int32_t t = 0; t < kHotWorkingSet; ++t) {
      warm.emplace_back(t, false);
      warm.emplace_back(t, true);
    }
  } else {
    for (int32_t k = 0; k < 64; ++k) {
      warm.emplace_back(static_cast<int32_t>(kColdWorkingSet - 1 - k),
                        k % 4 == 3);
    }
  }
  net::Client& client = clients_[0];
  for (const auto& [t, int8] : warm) {
    StatusOr<net::EncodeResult> r =
        client.Encode(tables_[static_cast<size_t>(t)], PrecisionOf(int8));
    if (!r.ok() || !r->status.ok()) {
      std::fprintf(stderr, "perfbench: warm-up request failed\n");
      std::exit(1);
    }
  }
}

void ServeBench::OpenLoop(double seconds, ServeLog* out) {
  const double rate = hot_ ? kHotRate : kColdRate;
  const int64_t n = static_cast<int64_t>(std::llround(rate * seconds));
  const uint64_t first = next_request_;
  next_request_ += static_cast<uint64_t>(n);
  const auto period = std::chrono::duration<double>(1.0 / rate);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  auto due = [&](int64_t k) {
    return t0 + std::chrono::duration_cast<Clock::duration>(period * k);
  };
  // Actual send times, written by the sender before each send and read
  // by the connection's reader after the response arrives.
  std::vector<std::atomic<int64_t>> sent_ns(static_cast<size_t>(n));

  std::vector<double> latency(static_cast<size_t>(n));  // by request
  std::vector<ConnLog> logs(kOpenConns);
  std::vector<std::thread> readers;
  for (int c = 0; c < kOpenConns; ++c) {
    readers.emplace_back([&, c] {
      ConnLog& log = logs[static_cast<size_t>(c)];
      for (int64_t k = c; k < n; k += kOpenConns) {
        // The load runs after the response arrived, so after the
        // sender's release store for request k.
        auto sent = [&] {
          return Clock::time_point(std::chrono::nanoseconds(
              sent_ns[static_cast<size_t>(k)].load(std::memory_order_acquire)));
        };
        Clock::time_point recv;
        if (!Receive(clients_[static_cast<size_t>(c)],
                     first + static_cast<uint64_t>(k), sent, log, &recv)) {
          return;
        }
        latency[static_cast<size_t>(k)] = Us(recv - due(k));
      }
    });
  }
  // Wake the sender within a few microseconds of each due time (the
  // default 50us timer slack would dominate a 67us send period).
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<double> lateness;
  lateness.reserve(static_cast<size_t>(n));
  std::string send_error;
  for (int64_t k = 0; k < n && send_error.empty(); ++k) {
    const Clock::time_point when = due(k);
    if (Clock::now() < when) std::this_thread::sleep_until(when);
    const Clock::time_point start = Clock::now();
    lateness.push_back(Us(start - when));
    sent_ns[static_cast<size_t>(k)].store(Ns(start), std::memory_order_release);
    Status s = Send(clients_[static_cast<size_t>(k % kOpenConns)],
                    first + static_cast<uint64_t>(k));
    if (!s.ok()) send_error = s.ToString();
  }
  if (!send_error.empty()) {
    std::fprintf(stderr, "perfbench: send failed: %s\n", send_error.c_str());
    std::exit(1);
  }
  for (std::thread& t : readers) t.join();
  for (ConnLog& log : logs) out->Add(log);
  out->open_latency_us.insert(out->open_latency_us.end(), latency.begin(),
                              latency.end());
  out->lateness_us.insert(out->lateness_us.end(), lateness.begin(),
                          lateness.end());
  out->attempted += n;
}

double ServeBench::ClosedLoop(double ramp_seconds, double measure_seconds,
                              ServeLog* out) {
  std::atomic<uint64_t> next{next_request_};
  const Clock::time_point t0 = Clock::now();
  auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  const Clock::time_point measure_start = at(ramp_seconds);
  const Clock::time_point t_end = at(ramp_seconds + measure_seconds);
  const int64_t windows = std::max<int64_t>(
      1, static_cast<int64_t>(measure_seconds / kWindowSeconds));
  std::vector<std::atomic<int64_t>> window_ok(static_cast<size_t>(windows));
  std::vector<ConnLog> logs(kClosedConns);
  std::vector<int64_t> sent(kClosedConns, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClosedConns; ++c) {
    threads.emplace_back([&, c] {
      net::Client& client = clients_[static_cast<size_t>(c)];
      ConnLog& log = logs[static_cast<size_t>(c)];
      std::deque<std::pair<uint64_t, Clock::time_point>> outstanding;
      auto send_one = [&] {
        const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        const Clock::time_point start = Clock::now();
        Status s = Send(client, i);
        if (!s.ok()) {
          log.transport_error = s.ToString();
          return false;
        }
        outstanding.emplace_back(i, start);
        ++sent[static_cast<size_t>(c)];
        return true;
      };
      for (int d = 0; d < kClosedDepth; ++d) {
        if (!send_one()) return;
      }
      while (!outstanding.empty()) {
        const auto [i, start] = outstanding.front();
        outstanding.pop_front();
        const int64_t ok_before = log.ok;
        Clock::time_point recv;
        if (!Receive(client, i, [&] { return start; }, log, &recv)) return;
        const int64_t w = static_cast<int64_t>(
            Sec(recv - measure_start) / kWindowSeconds);
        if (log.ok > ok_before && recv >= measure_start && w < windows) {
          window_ok[static_cast<size_t>(w)].fetch_add(1);
        }
        if (recv < t_end && !send_one()) return;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  next_request_ = next.load();
  for (int c = 0; c < kClosedConns; ++c) {
    out->attempted += sent[static_cast<size_t>(c)];
    out->Add(logs[static_cast<size_t>(c)]);
  }
  std::vector<double> rates;
  for (const auto& w : window_ok) {
    rates.push_back(static_cast<double>(w.load()) / kWindowSeconds);
  }
  return Quantile(rates, 0.5);
}

void ServeBench::Verify(const ServeLog& log, int64_t server_requests,
                        const std::map<uint64_t, int64_t>& publish_end,
                        RunResult* result) {
  // Reference encodes: one fresh model per weight set, built from the
  // exported checkpoints outside the serving stack.
  std::unique_ptr<TableEncoderModel> refs[2];
  const TensorMap* ckpts[2] = {&ckpt_b_, &ckpt_a_};  // index = version % 2
  for (int w = 0; w < 2; ++w) {
    refs[w] = std::make_unique<TableEncoderModel>(model_config_);
    Status s = refs[w]->ImportStateDict(*ckpts[w]);
    if (!s.ok()) {
      result->checks.Real("serve.reference_import", s.ToString());
      return;
    }
    refs[w]->SetTraining(false);
  }
  const std::vector<ServedRecord> served = log.AllServed();
  using Key = std::tuple<int32_t, bool, int>;
  std::map<Key, ReferenceEncoding> references;
  for (const ServedRecord& r : served) {
    references[{r.table, r.int8, static_cast<int>(r.version % 2)}];
  }
  std::vector<std::pair<const Key, ReferenceEncoding>*> todo;
  for (auto& entry : references) todo.push_back(&entry);
  runtime::ParallelFor(0, static_cast<int64_t>(todo.size()), 1,
                       [&](int64_t lo, int64_t hi) {
    for (int64_t k = lo; k < hi; ++k) {
      auto& [key, ref] = *todo[static_cast<size_t>(k)];
      const auto& [table, int8, w] = key;
      Rng rng(1);
      models::EncodeOptions options;
      options.need_cells = false;
      options.inference = true;
      options.precision = PrecisionOf(int8);
      models::Encoded enc = refs[w]->Encode(
          tables_[static_cast<size_t>(table)], rng, options);
      const Tensor& h = enc.hidden.value();
      ref.hash = HashBytes(h.data(), static_cast<size_t>(h.numel()) * sizeof(float));
      ref.rows = h.rows();
      ref.cols = h.cols();
    }
  });
  result->notes["serve.reference_encodes"] = static_cast<double>(todo.size());
  const uint64_t max_version = cluster_->weights_version();
  auto lookup = [&](int32_t table, bool int8, uint64_t version)
      -> const ReferenceEncoding* {
    if (version < 1 || version > max_version) return nullptr;
    auto it = references.find({table, int8, static_cast<int>(version % 2)});
    return it == references.end() ? nullptr : &it->second;
  };
  int64_t regressions = 0;
  result->checks.Real("serve.bitwise_vs_direct_encode",
                      CheckServedBitwise(served, lookup));
  result->checks.Real(
      "serve.versions_monotonic",
      CheckVersionsMonotonic(log.connections, publish_end, &regressions));
  result->checks.Real("serve.ok_count_vs_server",
                      CheckOkCount(log.ok, server_requests));
  result->notes["serve.version_regressions_during_publish"] =
      static_cast<double>(regressions);
  if (config_.trace) {
    SetLayer(result, "cluster.version_regressions",
             static_cast<double>(regressions));
  }

  // Negative self-test: one corrupted output of each kind.
  {
    std::vector<float> hidden = log.sample_hidden;
    ServedRecord bad = log.sample_record;
    if (!hidden.empty()) hidden[hidden.size() / 2] += 1e-3f;
    bad.hash = HashBytes(hidden.data(), hidden.size() * sizeof(float));
    result->checks.Corrupted("serve.bitwise_vs_direct_encode",
                             CheckServedBitwise({bad}, lookup));
  }
  {
    // A response one version behind, sent after every publish returned.
    ConnectionResponses conn = {log.sample_record, log.sample_record};
    conn[0].version = max_version;
    conn[1].version = max_version - 1;
    conn[1].sent_ns = std::numeric_limits<int64_t>::max();
    result->checks.Corrupted("serve.versions_monotonic",
                             CheckVersionsMonotonic({conn}, publish_end));
  }
  result->checks.Corrupted("serve.ok_count_vs_server",
                           CheckOkCount(log.ok - 1, server_requests));
}

void ServeBench::FillServeLayers(const ServeLog& traced, RunResult* result) {
  const double hit = static_cast<double>(CounterValue("tabrep.serve.cache.hit"));
  const double miss =
      static_cast<double>(CounterValue("tabrep.serve.cache.miss"));
  SetLayer(result, "serve.cache_lookups", hit + miss);
  SetLayer(result, "serve.cache_hit_ratio",
           hit + miss > 0 ? hit / (hit + miss) : 0.0);
  SetLayer(result, "serve.batch_size_mean",
           HistogramValue("tabrep.serve.batch.size").mean);
  SetLayer(result, "serve.coalesced",
           static_cast<double>(CounterValue("tabrep.serve.coalesced")));
  SetLayer(result, "serve.requests",
           static_cast<double>(CounterValue("tabrep.serve.requests")));
  const struct {
    const char* hist;
    const char* mean;
    const char* p99;
  } kStages[] = {
      {"tabrep.serve.stage.queue.us", "serve.stage.queue_us_mean",
       "serve.stage.queue_us_p99"},
      {"tabrep.serve.stage.batch.us", "serve.stage.batch_us_mean",
       "serve.stage.batch_us_p99"},
      {"tabrep.serve.stage.inference.us", "serve.stage.inference_us_mean",
       "serve.stage.inference_us_p99"},
  };
  for (const auto& s : kStages) {
    const HistSummary h = HistogramValue(s.hist);
    SetLayer(result, s.mean, h.mean);
    SetLayer(result, s.p99, h.p99);
  }
  const double routed =
      static_cast<double>(CounterValue("tabrep.cluster.routed"));
  const double steals =
      static_cast<double>(CounterValue("tabrep.cluster.steal"));
  // Every request is either routed home or stolen; the ratio's base is
  // their sum.
  SetLayer(result, "cluster.routed", routed + steals);
  SetLayer(result, "cluster.steal_ratio",
           routed + steals > 0 ? steals / (routed + steals) : 0.0);
  SetLayer(result, "net.stage.decode_us",
           HistogramValue("tabrep.serve.stage.decode.us").mean);
  SetLayer(result, "net.stage.serialize_us",
           HistogramValue("tabrep.serve.stage.serialize.us").mean);
  SetLayer(result, "net.stage.write_us",
           HistogramValue("tabrep.serve.stage.write.us").mean);
  const double server_us = HistogramValue("tabrep.net.request.us").mean;
  SetLayer(result, "net.request_us", server_us);
  SetLayer(result, "net.client_overhead_us",
           Mean(traced.send_to_recv_us) - server_us);
  const double responses =
      static_cast<double>(CounterValue("tabrep.net.responses.out"));
  SetLayer(result, "net.bytes_per_response",
           responses > 0
               ? static_cast<double>(CounterValue("tabrep.net.bytes.out")) /
                     responses
               : 0.0);
  SetLayer(result, "loadgen.lateness_p99_us",
           Quantile(traced.lateness_us, 0.99));
  SetLayer(result, "loadgen.request_p99_us",
           WindowedQuantile(traced.open_latency_us, TailWindow(), 0.99));
}

RunResult ServeBench::Run() {
  RunResult result;
  Setup(&result);
  const double setup_s = Sec(Clock::now() - ProcessStart());
  WarmUp();

  const double T = config_.seconds;
  ServeLog log;  // every measured phase: all of it is checked
  double capacity = 0.0;
  const uint64_t requests_before = CounterValue("tabrep.net.requests");
  int64_t server_requests = 0;
  if (!config_.trace) {
    capacity = ClosedLoop(0.1 * T, 0.45 * T, &log);
    OpenLoop(0.45 * T, &log);
    server_requests = static_cast<int64_t>(
        CounterValue("tabrep.net.requests") - requests_before);
  } else {
    const double base_capacity = ClosedLoop(0.1 * T, 0.2 * T, &log);
    if (reloader_) reloader_->Drain();
    server_requests = static_cast<int64_t>(
        CounterValue("tabrep.net.requests") - requests_before);
    if (reloader_) reloader_->TakeDurations();

    ResetProgramCounters(true);
    spans::SetEnabled(true);
    ServeLog traced;
    OpenLoop(0.3 * T, &traced);
    capacity = ClosedLoop(0.1 * T, 0.3 * T, &traced);
    if (reloader_) reloader_->Drain();
    spans::SetEnabled(false);
    tabrep::obs::SetTracingEnabled(false);
    server_requests +=
        static_cast<int64_t>(CounterValue("tabrep.net.requests"));
    FillProgramLayerMetrics(static_cast<double>(traced.attempted), &result);
    FillServeLayers(traced, &result);
    if (reloader_) {
      const std::vector<double> reloads = reloader_->TakeDurations();
      SetLayer(&result, "cluster.reload_us", Mean(reloads));
      SetLayer(&result, "cluster.reloads", static_cast<double>(reloads.size()));
    }
    SetLayer(&result, "obs.tracing_base_ops_per_s", base_capacity);
    SetLayer(&result, "obs.tracing_overhead_pct",
             100.0 * (base_capacity - capacity) / base_capacity);
    log.Add(traced);
  }
  if (reloader_) reloader_->Drain();
  const double peak_rss = PeakRssMb();
  if (!log.transport_error.empty()) {
    std::fprintf(stderr, "perfbench: transport error: %s\n",
                 log.transport_error.c_str());
    std::exit(1);
  }
  if (reloader_ && !reloader_->error().empty()) {
    result.checks.Real("serve.reload", reloader_->error());
  }

  result.attempted = log.attempted;
  result.failed = log.failed;
  SetEndToEnd(&result, setup_s, Quantile(log.open_latency_us, 0.5),
              WindowedQuantile(log.open_latency_us, TailWindow(), kTailQuantile),
              capacity, peak_rss);
  result.notes["serve.open_loop_samples"] =
      static_cast<double>(log.open_latency_us.size());
  result.notes["serve.open_loop_p99_us"] = Quantile(log.open_latency_us, 0.99);
  result.notes["serve.open_loop_windowed_p99_us"] =
      WindowedQuantile(log.open_latency_us, TailWindow(), 0.99);
  result.notes["serve.lateness_p99_us"] = Quantile(log.lateness_us, 0.99);
  result.notes["serve.weights_version"] =
      static_cast<double>(cluster_->weights_version());

  const std::map<uint64_t, int64_t> publish_end =
      reloader_ ? reloader_->publish_end_ns() : std::map<uint64_t, int64_t>{};
  reloader_.reset();
  server_->Stop();
  if (config_.trace) {
    ProbeInputs probe;
    probe.tables = &corpus_.tables;
    probe.serializer = serializer_.get();
    probe.model = model_a_.get();
    probe.int8_calibrated = true;
    spans::SetEnabled(true);
    RunLayerProbes(probe, &result);
    spans::SetEnabled(false);
  }
  Verify(log, server_requests, publish_end, &result);
  return result;
}

}  // namespace

RunResult RunServe(const RunConfig& config, bool hot) {
  ServeBench bench(config, hot);
  return bench.Run();
}

}  // namespace perfbench
