// loadgen — multi-connection load generator for the tabrep::net server.
//
// Builds the same synthetic-corpus workload as the benches (fixed
// seed: every run sends byte-identical requests), opens N concurrent
// connections, and drives the wire protocol in one of two modes:
//
//   closed  (default) each connection sends one request and waits for
//           its response before sending the next — measures latency
//           under a fixed concurrency level;
//   open    each connection sends at a fixed --rate regardless of
//           responses (pipelined), with a reader draining responses —
//           measures behaviour at a chosen offered load, including
//           typed kOverloaded sheds once the server's admission
//           bounds are hit.
//
// Usage:
//   loadgen --port=PORT [--host=127.0.0.1] [--connections=4]
//           [--requests=64] [--mode=closed|open] [--rate=200]
//           [--tables=24] [--stats=1] [--key-skew=ALPHA]
//           [--slo-p99-us=US] [--slo-shed-rate=FRACTION]
//
//   --requests is per connection; --rate is per connection in req/s
//   (open mode only). Exit code 0 unless a transport error occurred.
//
// --key-skew=ALPHA replaces the default round-robin table selection
// with a zipf-ish draw: table i is picked with probability
// proportional to 1/(i+1)^ALPHA, from a per-connection deterministic
// LCG (seeded by the connection index, so two runs still send
// identical workloads). Skewed keys concentrate traffic on a few home
// shards of a serve::Cluster backend, which is how you provoke work
// stealing from the outside. ALPHA=0 (default) keeps round-robin.
//
// Every OK response's weights-snapshot version (ISSUE 10 hot reload)
// is tracked per connection: the summary reports the first/last
// version each connection observed and how many times it changed
// mid-run — pointed at a server with --reload-every-ms, this shows the
// reload wavefront passing through live connections without a single
// failed request. A pre-cluster server that never sets the version
// flag reports version 0 ("unknown") and zero transitions.
//
// The run ends with an SLO verdict: the measured client-side p99 and
// shed rate evaluated against the same thresholds the server watchdog
// uses (obs::ApplySlo). Targets default from TABREP_SLO_P99_US /
// TABREP_SLO_SHED_RATE; the flags override. A zero target disables
// that check, so with no SLO configured the verdict is always ok.
//
// Every response is accounted: the final line reports ok / overloaded /
// error counts that must sum to the number of requests sent — the
// zero-silent-drops contract, observable from outside the process.
//
// With --stats=1 (the default) loadgen snapshots the server's kStats
// JSON before and after the run and prints the server-side per-stage
// latency breakdown for exactly this run's requests (delta means from
// the stage histograms' count/sum), followed by client-vs-server
// attribution: how much of the client-observed mean latency the server
// accounts for, and how much was wire + client scheduling. A server
// that predates the stats plane just skips the report (never an
// error).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "net/client.h"
#include "obs/json.h"
#include "obs/watchdog.h"
#include "serialize/serializer.h"
#include "serialize/vocab_builder.h"
#include "table/synth.h"

namespace {

using namespace tabrep;

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;
  int connections = 4;
  int requests = 64;     // per connection
  bool open_loop = false;
  double rate = 200.0;   // per connection, open loop only
  int num_tables = 24;
  int stats = 1;         // fetch kStats before/after, print attribution
  double key_skew = 0.0; // zipf-ish exponent; 0 = round-robin
  obs::SloConfig slo;    // env defaults; --slo-* flags override
};

bool ParseIntFlag(const char* arg, const char* name, int* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = std::atoi(arg + len + 1);
  return true;
}

bool ParseStringFlag(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

bool ParseDoubleFlag(const char* arg, const char* name, double* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = std::atof(arg + len + 1);
  return true;
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: loadgen --port=PORT [--host=H] [--connections=N]\n"
               "               [--requests=R] [--mode=closed|open]\n"
               "               [--rate=QPS] [--tables=T] [--stats=0|1]\n"
               "               [--key-skew=ALPHA]\n"
               "               [--slo-p99-us=US] [--slo-shed-rate=F]\n");
  std::exit(2);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-connection tally; merged after the threads join.
struct ConnStats {
  std::vector<double> latencies_us;  // closed loop only
  uint64_t ok = 0;
  uint64_t overloaded = 0;
  uint64_t app_error = 0;        // typed non-overload server errors
  uint64_t transport_error = 0;  // connect/read/write failures
  /// Weights-snapshot versions observed on OK responses. 0 = the
  /// server never reported one (pre-version binary, or no OK yet).
  uint64_t first_version = 0;
  uint64_t last_version = 0;
  uint64_t version_transitions = 0;  // times the version changed mid-run
};

/// Per-connection deterministic table selection. With alpha == 0 the
/// picker is the historical round-robin, byte-for-byte. With alpha > 0
/// it draws zipf-ish (P(i) ∝ 1/(i+1)^alpha) from an LCG seeded by the
/// connection index — deterministic per run, skewed toward low table
/// ids, so a sharded server sees a few hot home shards.
class KeyPicker {
 public:
  KeyPicker(size_t n, double alpha, int conn_index)
      : n_(n), state_(0x9e3779b97f4a7c15ull ^
                      static_cast<uint64_t>(conn_index) * 0xbf58476d1ce4e5b9ull) {
    if (alpha <= 0.0) return;
    cdf_.reserve(n);
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Pick(int conn_index, int r) {
    if (cdf_.empty()) {
      return static_cast<size_t>(conn_index + r) % n_;
    }
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    const double u =
        static_cast<double>(state_ >> 11) * (1.0 / 9007199254740992.0);
    const size_t idx = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return idx < n_ ? idx : n_ - 1;
  }

 private:
  size_t n_;
  uint64_t state_;
  std::vector<double> cdf_;  // empty = round-robin
};

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(p * static_cast<double>(v.size())));
  return v[idx];
}

void Tally(const StatusOr<net::EncodeResult>& result, ConnStats* stats) {
  if (!result.ok()) {
    ++stats->transport_error;
  } else if (result->status.ok()) {
    ++stats->ok;
    const uint64_t version = result->encoded.weights_version;
    if (version != 0) {
      if (stats->last_version != 0 && version != stats->last_version) {
        ++stats->version_transitions;
      }
      if (stats->first_version == 0) stats->first_version = version;
      stats->last_version = version;
    }
  } else if (result->status.code() == StatusCode::kOverloaded) {
    ++stats->overloaded;
  } else {
    ++stats->app_error;
  }
}

/// Cumulative {count, sum} per stage histogram, read off one kStats
/// snapshot. `ok` is false when the server has no stats plane (old
/// binary) or the fetch failed — the caller then skips attribution.
struct StageSnapshot {
  bool ok = false;
  std::map<std::string, std::pair<double, double>> count_sum;
};

StageSnapshot FetchStageSnapshot(const Options& options) {
  StageSnapshot snap;
  StatusOr<net::Client> client =
      net::Client::Connect(options.host, static_cast<uint16_t>(options.port));
  if (!client.ok()) return snap;
  StatusOr<std::string> json = client->Stats();
  if (!json.ok()) return snap;
  Result<obs::JsonValue> doc = obs::JsonParse(*json);
  if (!doc.ok()) return snap;
  const obs::JsonValue* hists = doc->Get({"metrics", "histograms"});
  if (hists == nullptr) return snap;
  for (const auto& [name, h] : hists->members()) {
    if (name.rfind("tabrep.serve.stage.", 0) != 0 &&
        name != "tabrep.net.request.us") {
      continue;
    }
    const obs::JsonValue* count = h.Find("count");
    const obs::JsonValue* sum = h.Find("sum");
    if (count == nullptr || sum == nullptr) continue;
    snap.count_sum[name] = {count->AsNumber(), sum->AsNumber()};
  }
  snap.ok = true;
  return snap;
}

/// Server-side view of this run: per-stage delta means between the two
/// snapshots, then client-vs-server latency attribution.
void PrintAttribution(const StageSnapshot& before, const StageSnapshot& after,
                      double client_mean_us) {
  std::printf("\nserver-side stage breakdown (this run):\n");
  std::printf("  %-34s %10s %12s\n", "stage", "requests", "mean_us");
  double stage_mean_total = 0.0;
  double request_mean = 0.0;
  for (const auto& [name, cs] : after.count_sum) {
    const auto it = before.count_sum.find(name);
    const double c0 = it != before.count_sum.end() ? it->second.first : 0.0;
    const double s0 = it != before.count_sum.end() ? it->second.second : 0.0;
    const double dc = cs.first - c0;
    if (dc <= 0.0) continue;  // stage saw no traffic this run
    const double mean = (cs.second - s0) / dc;
    std::printf("  %-34s %10.0f %12.1f\n", name.c_str(), dc, mean);
    if (name == "tabrep.net.request.us") {
      request_mean = mean;
    } else if (name != "tabrep.serve.stage.handoff.us") {  // in serialize
      stage_mean_total += mean;
    }
  }
  if (request_mean > 0.0) {
    std::printf("  stage sum %.1f us covers %.1f%% of server request mean "
                "%.1f us\n",
                stage_mean_total,
                100.0 * stage_mean_total / request_mean, request_mean);
  }
  if (client_mean_us > 0.0 && request_mean > 0.0) {
    const double overhead = client_mean_us - request_mean;
    std::printf("client mean %.1f us = server %.1f us (%.1f%%) + wire/client "
                "%.1f us (%.1f%%)\n",
                client_mean_us, request_mean,
                100.0 * request_mean / client_mean_us,
                overhead > 0.0 ? overhead : 0.0,
                overhead > 0.0 ? 100.0 * overhead / client_mean_us : 0.0);
  }
}

void RunClosed(const Options& options,
               const std::vector<TokenizedTable>& inputs, int conn_index,
               ConnStats* stats) {
  StatusOr<net::Client> client =
      net::Client::Connect(options.host, static_cast<uint16_t>(options.port));
  if (!client.ok()) {
    stats->transport_error += static_cast<uint64_t>(options.requests);
    return;
  }
  KeyPicker picker(inputs.size(), options.key_skew, conn_index);
  for (int r = 0; r < options.requests; ++r) {
    const TokenizedTable& in = inputs[picker.Pick(conn_index, r)];
    const double t0 = NowSeconds();
    StatusOr<net::EncodeResult> result = client->Encode(in);
    stats->latencies_us.push_back((NowSeconds() - t0) * 1e6);
    Tally(result, stats);
    if (!result.ok()) return;  // transport is gone; stop this connection
  }
}

void RunOpen(const Options& options,
             const std::vector<TokenizedTable>& inputs, int conn_index,
             ConnStats* stats) {
  StatusOr<net::Client> client =
      net::Client::Connect(options.host, static_cast<uint16_t>(options.port));
  if (!client.ok()) {
    stats->transport_error += static_cast<uint64_t>(options.requests);
    return;
  }
  // Reader drains pipelined responses while the sender paces sends; the
  // server answers in request order, so counts (not seqs) suffice.
  std::atomic<int> sent{0};
  std::atomic<bool> send_done{false};
  std::thread reader([&] {
    int received = 0;
    while (!send_done.load(std::memory_order_acquire) ||
           received < sent.load(std::memory_order_acquire)) {
      if (received >= sent.load(std::memory_order_acquire)) {
        std::this_thread::yield();
        continue;
      }
      StatusOr<net::EncodeResult> result = client->ReadResponse();
      Tally(result, stats);
      if (!result.ok()) {
        // Transport failure: everything still in flight is lost too.
        stats->transport_error += static_cast<uint64_t>(
            sent.load(std::memory_order_acquire) - received - 1);
        return;
      }
      ++received;
    }
  });
  const double interval = options.rate > 0.0 ? 1.0 / options.rate : 0.0;
  const double start = NowSeconds();
  KeyPicker picker(inputs.size(), options.key_skew, conn_index);
  for (int r = 0; r < options.requests; ++r) {
    const TokenizedTable& in = inputs[picker.Pick(conn_index, r)];
    if (!client->SendEncodeRequest(in, static_cast<uint32_t>(r + 1)).ok()) {
      break;
    }
    sent.fetch_add(1, std::memory_order_release);
    const double next = start + interval * static_cast<double>(r + 1);
    while (NowSeconds() < next) std::this_thread::yield();
  }
  send_done.store(true, std::memory_order_release);
  reader.join();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.slo = obs::SloConfig::FromEnv();
  std::string mode = "closed";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    int rate_int = 0;
    if (ParseIntFlag(arg, "--port", &options.port) ||
        ParseIntFlag(arg, "--connections", &options.connections) ||
        ParseIntFlag(arg, "--requests", &options.requests) ||
        ParseIntFlag(arg, "--tables", &options.num_tables) ||
        ParseIntFlag(arg, "--stats", &options.stats) ||
        ParseStringFlag(arg, "--host", &options.host) ||
        ParseStringFlag(arg, "--mode", &mode) ||
        ParseDoubleFlag(arg, "--key-skew", &options.key_skew) ||
        ParseDoubleFlag(arg, "--slo-p99-us", &options.slo.target_p99_us) ||
        ParseDoubleFlag(arg, "--slo-shed-rate", &options.slo.max_shed_rate)) {
      continue;
    }
    if (ParseIntFlag(arg, "--rate", &rate_int)) {
      options.rate = rate_int;
      continue;
    }
    std::fprintf(stderr, "loadgen: unknown flag '%s'\n", arg);
    Usage();
  }
  if (options.port <= 0) Usage();
  if (mode == "open") {
    options.open_loop = true;
  } else if (mode != "closed") {
    Usage();
  }

  // Fixed-seed workload: identical tables every run, so two loadgen
  // invocations against the same server are comparable.
  SyntheticCorpusOptions copts;
  copts.num_tables = options.num_tables;
  TableCorpus corpus = GenerateSyntheticCorpus(copts);
  WordPieceTrainerOptions topts;
  topts.vocab_size = 1500;
  WordPieceTokenizer tokenizer = BuildCorpusTokenizer(corpus, topts);
  SerializerOptions sopts;
  sopts.max_tokens = 96;
  TableSerializer serializer(&tokenizer, sopts);
  std::vector<TokenizedTable> inputs;
  inputs.reserve(corpus.tables.size());
  for (const Table& t : corpus.tables) {
    inputs.push_back(serializer.Serialize(t));
  }

  std::printf("loadgen: %d connections x %d requests, mode=%s, "
              "target %s:%d\n",
              options.connections, options.requests, mode.c_str(),
              options.host.c_str(), options.port);

  const StageSnapshot before =
      options.stats != 0 ? FetchStageSnapshot(options) : StageSnapshot();

  std::vector<ConnStats> stats(static_cast<size_t>(options.connections));
  std::vector<std::thread> threads;
  const double t0 = NowSeconds();
  for (int c = 0; c < options.connections; ++c) {
    threads.emplace_back([&, c] {
      if (options.open_loop) {
        RunOpen(options, inputs, c, &stats[static_cast<size_t>(c)]);
      } else {
        RunClosed(options, inputs, c, &stats[static_cast<size_t>(c)]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = NowSeconds() - t0;

  ConnStats total;
  std::vector<double> latencies;
  for (ConnStats& s : stats) {
    total.ok += s.ok;
    total.overloaded += s.overloaded;
    total.app_error += s.app_error;
    total.transport_error += s.transport_error;
    latencies.insert(latencies.end(), s.latencies_us.begin(),
                     s.latencies_us.end());
  }
  const uint64_t answered = total.ok + total.overloaded + total.app_error;
  std::printf("elapsed %.3f s, %llu responses (%.1f rsp/sec)\n", elapsed,
              static_cast<unsigned long long>(answered),
              elapsed > 0.0 ? static_cast<double>(answered) / elapsed : 0.0);
  if (!latencies.empty()) {
    std::printf("latency p50 %.1f us  p95 %.1f us  p99 %.1f us\n",
                Percentile(latencies, 0.50), Percentile(latencies, 0.95),
                Percentile(latencies, 0.99));
  }
  std::printf("ok %llu  overloaded %llu  error %llu  transport %llu\n",
              static_cast<unsigned long long>(total.ok),
              static_cast<unsigned long long>(total.overloaded),
              static_cast<unsigned long long>(total.app_error),
              static_cast<unsigned long long>(total.transport_error));

  // Weights-version view (ISSUE 10 hot reload): what each connection
  // saw. Against a server republishing mid-run, transitions > 0 with
  // zero error/transport counts is the observable proof that a reload
  // dropped nothing. Servers that never set the version flag report 0.
  uint64_t transitions = 0;
  uint64_t min_first = 0;
  uint64_t max_last = 0;
  for (const ConnStats& s : stats) {
    transitions += s.version_transitions;
    if (s.first_version != 0 &&
        (min_first == 0 || s.first_version < min_first)) {
      min_first = s.first_version;
    }
    max_last = std::max(max_last, s.last_version);
  }
  if (max_last != 0) {
    std::printf("weights version: %llu -> %llu, %llu transitions observed\n",
                static_cast<unsigned long long>(min_first),
                static_cast<unsigned long long>(max_last),
                static_cast<unsigned long long>(transitions));
    if (transitions > 0) {
      for (size_t c = 0; c < stats.size(); ++c) {
        std::printf("  conn %zu: v%llu -> v%llu (%llu transitions)\n", c,
                    static_cast<unsigned long long>(stats[c].first_version),
                    static_cast<unsigned long long>(stats[c].last_version),
                    static_cast<unsigned long long>(
                        stats[c].version_transitions));
      }
    }
  }

  if (options.stats != 0 && before.ok) {
    const StageSnapshot after = FetchStageSnapshot(options);
    if (after.ok) {
      double client_mean_us = 0.0;
      if (!latencies.empty()) {
        double sum = 0.0;
        for (double v : latencies) sum += v;
        client_mean_us = sum / static_cast<double>(latencies.size());
      }
      PrintAttribution(before, after, client_mean_us);
    }
  }

  // End-of-run SLO verdict: this client's measured numbers through the
  // same thresholds the server watchdog applies. Open-loop runs have no
  // client latencies, so only the shed-rate check can fire there.
  const double measured_p99 =
      latencies.empty() ? 0.0 : Percentile(latencies, 0.99);
  const double shed_rate =
      answered > 0
          ? static_cast<double>(total.overloaded) / static_cast<double>(answered)
          : 0.0;
  obs::HealthVerdict verdict;
  obs::ApplySlo(options.slo, measured_p99, shed_rate, &verdict);
  std::printf("slo verdict: %s (p99 %.1f us vs target %.0f us, shed %.4f vs "
              "max %.4f)\n",
              obs::HealthLevelName(verdict.level), measured_p99,
              options.slo.target_p99_us, shed_rate, options.slo.max_shed_rate);
  for (const obs::HealthReason& reason : verdict.reasons) {
    std::printf("  reason: %s — %s\n", reason.code.c_str(),
                reason.detail.c_str());
  }
  if (options.stats != 0) {
    // The server's own view, from its watchdog (window + heartbeats).
    StatusOr<net::Client> client = net::Client::Connect(
        options.host, static_cast<uint16_t>(options.port));
    if (client.ok()) {
      StatusOr<std::string> health = client->Health();
      if (health.ok()) {
        Result<obs::JsonValue> doc = obs::JsonParse(*health);
        const obs::JsonValue* status =
            doc.ok() ? doc->Find("status") : nullptr;
        if (status != nullptr) {
          std::printf("server health: %s\n", status->AsString().c_str());
        }
      }
    }
  }
  return total.transport_error == 0 ? 0 : 1;
}
