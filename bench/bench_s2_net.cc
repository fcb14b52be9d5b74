// S2 — the network serving bench (tabrep::net front-end).
//
// Three phases over one TaBERT-family model behind an in-process
// net::Server on an ephemeral loopback port:
//   (a) wire parity: every table encoded through a real socket must be
//       bitwise identical to a direct serve::Cluster::Encode — the
//       network layer is transport, never a transform;
//   (b) sustained load: closed-loop concurrent connections, reporting
//       throughput (requests/sec) and client-observed p95/p99 latency
//       (wire + framing + batching + encode);
//   (c) deterministic overload: a pipelined single-connection burst of
//       distinct tables against a tight per-connection admission cap
//       and a deliberately slowed dispatcher — every rejected request
//       comes back as a typed kOverloaded response, and
//       ok + shed == sent (the zero-silent-drops contract).
//
// Counter determinism note (for the baseline gate): phases (a) and (b)
// have fully deterministic request counts, and phase (b) gives every
// connection a disjoint slice of the tables, so with the cache off
// each request is exactly one encode. Phase (c)'s ok/shed split
// depends on completion timing, which is why tabrep.net.* counters are
// on the bench_diff noisy list (absolute slack, currently 512) — the
// split moves by a handful of requests run-to-run, never by hundreds.
// The shed volume is additionally reported as a *fraction of sent*
// (gauge tabrep.net.bench.shed.rate) so the baseline gate compares a
// scale-free number: a raw shed count doubles when the burst doubles,
// a rate only moves when admission behaviour changes.
//
// The bench also asserts the request-scoped stage instrumentation adds
// up: summed means of tabrep.serve.stage.{queue,batch,inference,
// serialize}.us must cover >= 80% of mean tabrep.net.request.us, i.e.
// the per-stage breakdown accounts for where server-side latency
// actually goes rather than leaving it in an unattributed gap.
//
// Phase (b) additionally runs under a bench-owned obs::WindowedRegistry
// ticked at ~10 Hz (ISSUE 8): after the load drains, the windowed
// request count must equal the phase's request count exactly and the
// windowed p99 must agree with the cumulative p99 within log-bucket
// tolerance. The window rides into BENCH_s2.json as the trailing
// "window" section, where bench_stage_gate.cmake pins its p99 fields.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/window.h"
#include "serve/cluster.h"

using namespace tabrep;
using namespace tabrep::bench;

namespace {

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

}  // namespace

int main() {
  PrintHeader("S2", "Network serving: wire protocol + admission control");
  EnableBenchObs();

  WorldOptions wopts;
  wopts.num_tables = SmokeMode() ? 24 : 64;
  World w = MakeWorld(wopts);
  ModelConfig config = BenchModelConfig(ModelFamily::kTabert, w);
  TableEncoderModel model(config);
  model.SetTraining(false);

  std::vector<TokenizedTable> inputs;
  inputs.reserve(w.corpus.tables.size());
  for (const Table& t : w.corpus.tables) {
    inputs.push_back(w.serializer->Serialize(t));
  }
  const int64_t num_inputs = static_cast<int64_t>(inputs.size());

  // --- (a) Wire parity: socket result == direct result, bitwise. --------
  {
    serve::ClusterOptions copts;
    copts.encoder.cache_capacity = 1024;
    serve::Cluster cluster(&model, copts);
    net::Server server(&cluster);
    TABREP_CHECK(server.Start().ok());
    StatusOr<net::Client> client =
        net::Client::Connect("127.0.0.1", server.port());
    TABREP_CHECK(client.ok()) << client.status().ToString();

    const int64_t parity_n = std::min<int64_t>(num_inputs, 8);
    for (int64_t i = 0; i < parity_n; ++i) {
      StatusOr<serve::EncodedTablePtr> direct =
          cluster.Encode(inputs[static_cast<size_t>(i)]);
      TABREP_CHECK(direct.ok()) << direct.status().ToString();
      StatusOr<net::EncodeResult> wired =
          client->Encode(inputs[static_cast<size_t>(i)]);
      TABREP_CHECK(wired.ok()) << wired.status().ToString();
      TABREP_CHECK(wired->status.ok()) << wired->status.ToString();
      TABREP_CHECK(
          BitwiseEqual(wired->encoded.hidden, (*direct)->hidden))
          << "socket round-trip diverged from direct Encode, table " << i;
    }
    std::printf("\nwire parity over %lld tables: bitwise identical\n",
                static_cast<long long>(parity_n));
  }

  // --- (b) Sustained closed-loop load over concurrent connections. ------
  obs::Histogram& request_us =
      obs::Registry::Get().histogram("tabrep.net.bench.request.us");
  double load_sec = 0.0;
  int64_t load_requests = 0;
  // Windowed view of the steady-load phase (ISSUE 8): a bench-owned
  // ring ticked at ~10 Hz while the load runs. Constructed here — after
  // phase (a) — so its baseline excludes the parity traffic and the
  // merged window describes exactly the phase-(b) population. The ring
  // is long enough that no phase-(b) slot ever rotates out.
  obs::WindowOptions window_opts;
  window_opts.window_secs = 512;
  obs::WindowedRegistry window(window_opts);
  {
    serve::ClusterOptions copts;
    copts.encoder.max_batch = 8;
    copts.encoder.max_wait_us = 200;
    // Every request does real encode work.
    copts.encoder.cache_capacity = 0;
    serve::Cluster cluster(&model, copts);
    net::Server server(&cluster);
    TABREP_CHECK(server.Start().ok());

    std::atomic<bool> ticker_stop{false};
    std::thread ticker([&] {
      while (!ticker_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        window.Tick();
      }
    });

    // Each connection cycles over its own disjoint slice of the inputs,
    // so no request can coalesce onto another connection's encode and
    // the counters do not depend on thread timing.
    const int64_t num_conns = 4;
    const int64_t slice = num_inputs / num_conns;
    TABREP_CHECK(slice > 0) << "fewer inputs than connections";
    const int64_t rounds = BenchSteps(12, 2);
    load_requests = num_conns * rounds * num_inputs;
    std::vector<std::thread> conns;
    std::vector<int64_t> failures(static_cast<size_t>(num_conns), 0);
    const double t0 = NowSeconds();
    for (int64_t c = 0; c < num_conns; ++c) {
      conns.emplace_back([&, c] {
        StatusOr<net::Client> client =
            net::Client::Connect("127.0.0.1", server.port());
        if (!client.ok()) {
          failures[static_cast<size_t>(c)] = rounds * num_inputs;
          return;
        }
        for (int64_t r = 0; r < rounds; ++r) {
          for (int64_t i = 0; i < num_inputs; ++i) {
            obs::ScopedTimer timer(request_us);
            StatusOr<net::EncodeResult> out = client->Encode(
                inputs[static_cast<size_t>(c * slice + i % slice)]);
            if (!out.ok() || !out->status.ok()) {
              ++failures[static_cast<size_t>(c)];
            }
          }
        }
      });
    }
    for (std::thread& t : conns) t.join();
    load_sec = NowSeconds() - t0;
    ticker_stop.store(true, std::memory_order_relaxed);
    ticker.join();
    window.Tick();  // close the final partial slot
    for (int64_t f : failures) TABREP_CHECK(f == 0) << f << " failures";
  }
  const obs::HistogramStats rs = request_us.Stats();
  std::printf("\nSustained load (4 connections, closed loop):\n");
  std::printf("  %lld requests in %s s  (%s req/sec)\n",
              static_cast<long long>(load_requests), Fmt(load_sec).c_str(),
              Fmt(load_sec > 0.0
                      ? static_cast<double>(load_requests) / load_sec
                      : 0.0,
                  1)
                  .c_str());
  std::printf("  latency: p50 %s us  p95 %s us  p99 %s us\n",
              Fmt(rs.p50, 1).c_str(), Fmt(rs.p95, 1).c_str(),
              Fmt(rs.p99, 1).c_str());

  // Windowed-vs-cumulative agreement (ISSUE 8 acceptance): merging the
  // per-slot ring must reproduce the cumulative percentile up to
  // log-bucket resolution. The window saw exactly the phase-(b)
  // server-side requests (its baseline was taken after phase (a), its
  // final tick after the load joined), so the count pins the
  // snapshot-difference bookkeeping exactly; the p99s come from the
  // same power-of-two buckets, so they agree within the 2x bucket
  // width on each side (factor-4 tolerance overall — the cumulative
  // histogram additionally clamps to observed extremes and includes
  // the few phase-(a) parity requests).
  {
    obs::WindowedHistogramStats wreq;
    TABREP_CHECK(window.HistogramWindow("tabrep.net.request.us", &wreq))
        << "window never saw tabrep.net.request.us";
    TABREP_CHECK(static_cast<int64_t>(wreq.count) == load_requests)
        << "window count " << wreq.count << " != phase-(b) requests "
        << load_requests;
    const obs::HistogramStats cum =
        obs::Registry::Get().histogram("tabrep.net.request.us").Stats();
    std::printf("  window: %lld requests over %s s  p50 %s us  p99 %s us  "
                "(cumulative p99 %s us)\n",
                static_cast<long long>(wreq.count),
                Fmt(window.covered_secs()).c_str(), Fmt(wreq.p50, 1).c_str(),
                Fmt(wreq.p99, 1).c_str(), Fmt(cum.p99, 1).c_str());
    TABREP_CHECK(wreq.p99 > 0.0);
    TABREP_CHECK(wreq.p99 >= cum.p99 * 0.25 && wreq.p99 <= cum.p99 * 4.0)
        << "windowed p99 " << wreq.p99
        << " disagrees with cumulative p99 " << cum.p99
        << " beyond log-bucket tolerance";
  }

  // --- (c) Deterministic overload: typed sheds, zero silent drops. ------
  int64_t shed_ok = 0, shed_overloaded = 0, shed_other = 0;
  const int64_t burst = std::min<int64_t>(num_inputs, 24);
  {
    serve::ClusterOptions copts;
    copts.encoder.max_batch = 1;
    copts.encoder.max_wait_us = 0;
    copts.encoder.cache_capacity = 0;  // distinct tables, no coalescing
    // Hold the dispatcher: 50ms/batch.
    copts.encoder.dispatch_delay_us = 50000;
    serve::Cluster cluster(&model, copts);
    net::ServerOptions sopts;
    sopts.max_inflight_per_conn = 2;   // tight admission bound
    net::Server server(&cluster, sopts);
    TABREP_CHECK(server.Start().ok());
    StatusOr<net::Client> client =
        net::Client::Connect("127.0.0.1", server.port());
    TABREP_CHECK(client.ok());

    // Pipeline the whole burst before reading: all frames reach the
    // event loop while at most 2 requests are admitted.
    for (int64_t i = 0; i < burst; ++i) {
      TABREP_CHECK(client
                       ->SendEncodeRequest(inputs[static_cast<size_t>(i)],
                                           static_cast<uint32_t>(i + 1))
                       .ok());
    }
    for (int64_t i = 0; i < burst; ++i) {
      StatusOr<net::EncodeResult> out = client->ReadResponse();
      TABREP_CHECK(out.ok()) << out.status().ToString();
      if (out->status.ok()) {
        ++shed_ok;
      } else if (out->status.code() == StatusCode::kOverloaded) {
        ++shed_overloaded;
      } else {
        ++shed_other;
      }
    }
  }
  std::printf("\nOverload (1 connection, burst %lld, inflight cap 2):\n",
              static_cast<long long>(burst));
  std::printf("  ok %lld  overloaded %lld  other %lld\n",
              static_cast<long long>(shed_ok),
              static_cast<long long>(shed_overloaded),
              static_cast<long long>(shed_other));
  TABREP_CHECK(shed_ok + shed_overloaded == burst)
      << "silent drop: " << (burst - shed_ok - shed_overloaded)
      << " requests unanswered";
  TABREP_CHECK(shed_other == 0);
  TABREP_CHECK(shed_overloaded >= 1)
      << "burst failed to trigger admission control";

  obs::Registry& reg = obs::Registry::Get();

  // Shed rate as a fraction of sent: the scale-free overload signal the
  // baseline gate compares (noisy_gauge_slack absorbs timing wobble).
  const double shed_rate =
      burst > 0 ? static_cast<double>(shed_overloaded) /
                      static_cast<double>(burst)
                : 0.0;
  reg.gauge("tabrep.net.bench.shed.rate").Set(shed_rate);
  std::printf("  shed rate %.4f of %lld sent\n", shed_rate,
              static_cast<long long>(burst));

  // Stage attribution: the per-request breakdown must account for the
  // server-side latency it claims to explain. Sum of stage means vs the
  // server's own request histogram (received -> response queued); both
  // are recorded for OK submitted requests only, so they describe the
  // same population. admission/decode/write are excluded: they are not
  // part of the received->serialized span's encoder path budget and are
  // each sub-microsecond here.
  {
    const char* stage_names[] = {
        "tabrep.serve.stage.queue.us", "tabrep.serve.stage.batch.us",
        "tabrep.serve.stage.inference.us", "tabrep.serve.stage.serialize.us"};
    double stage_sum_means = 0.0;
    std::printf("\nServer-side stage breakdown (OK requests):\n");
    for (const char* name : stage_names) {
      const obs::HistogramStats ss = reg.histogram(name).Stats();
      TABREP_CHECK(ss.count > 0) << name << " never recorded";
      stage_sum_means += ss.mean;
      std::printf("  %-36s count %8llu  mean %10.1f us\n", name,
                  static_cast<unsigned long long>(ss.count), ss.mean);
    }
    const obs::HistogramStats req =
        reg.histogram("tabrep.net.request.us").Stats();
    TABREP_CHECK(req.count > 0) << "tabrep.net.request.us never recorded";
    const double coverage =
        req.mean > 0.0 ? stage_sum_means / req.mean : 0.0;
    std::printf("  stage sum %.1f us vs request mean %.1f us  "
                "(coverage %.1f%%)\n",
                stage_sum_means, req.mean, coverage * 100.0);
    TABREP_CHECK(coverage >= 0.80)
        << "stage breakdown covers only " << coverage * 100.0
        << "% of mean request latency";
  }

  std::printf("\nnet counters: requests %llu  responses %llu  shed %llu  "
              "errors %llu\n",
              static_cast<unsigned long long>(
                  reg.counter("tabrep.net.requests").value()),
              static_cast<unsigned long long>(
                  reg.counter("tabrep.net.responses.out").value()),
              static_cast<unsigned long long>(
                  reg.counter("tabrep.net.shed").value()),
              static_cast<unsigned long long>(
                  reg.counter("tabrep.net.errors").value()));

  std::printf("\nExpected shape: parity holds bitwise; the overload burst "
              "sheds with typed kOverloaded and every request is "
              "answered.\n");
  std::printf("\nbench_s2: OK\n");
  // The steady-load window rides along as the report's trailing
  // "window" section; bench_stage_gate.cmake pins its p99 fields.
  WriteBenchObsReport("s2", window.ToJson());
  return 0;
}
