// S1 — the serving-layer bench.
//
// Three phases over one TaBERT-family model:
//   (a) single-encode latency, graph path vs the graph-free inference
//       path (EncodeOptions::inference), with a bitwise-equality check
//       between the two — the inference path must be an optimization,
//       never an approximation;
//   (b) cold serving: concurrent clients push distinct tables through
//       a one-shard serve::Cluster (every request misses the cache) — reports
//       throughput (tables/sec) and per-request p95 latency;
//   (c) warm serving: the same requests again, now served from the
//       LRU cache.
//
// The serve counters this emits (requests / cache.hit / cache.miss /
// encoded) are deterministic because the workload is fixed and
// in-flight duplicates coalesce; only batch composition depends on
// scheduling, and that is recorded as a histogram, not a counter.

#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "serve/cluster.h"
#include "tensor/arena.h"

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
  PrintHeader("S1", "Batched serving: graph-free inference + LRU cache");
  EnableBenchObs();

  WorldOptions wopts;
  wopts.num_tables = SmokeMode() ? 24 : 80;
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

  // --- (a) Graph vs graph-free single-encode latency + parity. ----------
  obs::Histogram& graph_us =
      obs::Registry::Get().histogram("tabrep.serve.bench.encode.graph.us");
  obs::Histogram& infer_us =
      obs::Registry::Get().histogram("tabrep.serve.bench.encode.infer.us");

  models::EncodeOptions graph_opts;
  graph_opts.need_cells = true;
  models::EncodeOptions infer_opts = graph_opts;
  infer_opts.inference = true;

  // Parity first (doubles as warmup: grows the scratch arena, so the
  // timed loops below measure the steady state, not first-touch
  // allocation).
  bool parity = true;
  const int64_t parity_n = std::min<int64_t>(num_inputs, 8);
  for (int64_t i = 0; i < parity_n; ++i) {
    Rng rng_g(7), rng_f(7);
    models::Encoded g =
        model.Encode(inputs[static_cast<size_t>(i)], rng_g, graph_opts);
    models::Encoded f =
        model.Encode(inputs[static_cast<size_t>(i)], rng_f, infer_opts);
    parity = parity && BitwiseEqual(g.hidden.value(), f.hidden.value());
    if (g.has_cells || f.has_cells) {
      parity = parity && g.has_cells == f.has_cells &&
               BitwiseEqual(g.cells.value(), f.cells.value());
    }
  }
  TABREP_CHECK(parity)
      << "graph-free Encode diverged from the autograd path";
  std::printf("\ngraph vs inference parity over %lld tables: bitwise "
              "identical\n",
              static_cast<long long>(parity_n));

  const int64_t reps = BenchSteps(300, 12);
  for (int64_t r = 0; r < reps; ++r) {
    const TokenizedTable& in =
        inputs[static_cast<size_t>(r % num_inputs)];
    Rng rng(7);
    obs::ScopedTimer timer(graph_us);
    models::Encoded enc = model.Encode(in, rng, graph_opts);
    (void)enc;
  }
  for (int64_t r = 0; r < reps; ++r) {
    const TokenizedTable& in =
        inputs[static_cast<size_t>(r % num_inputs)];
    Rng rng(7);
    obs::ScopedTimer timer(infer_us);
    models::Encoded enc = model.Encode(in, rng, infer_opts);
    (void)enc;
  }
  const obs::HistogramStats gs = graph_us.Stats();
  const obs::HistogramStats is = infer_us.Stats();
  std::printf("\nSingle-encode latency, %lld reps each:\n",
              static_cast<long long>(reps));
  std::printf("  graph path:     p50 %s us  p95 %s us\n",
              Fmt(gs.p50, 1).c_str(), Fmt(gs.p95, 1).c_str());
  std::printf("  inference path: p50 %s us  p95 %s us\n",
              Fmt(is.p50, 1).c_str(), Fmt(is.p95, 1).c_str());
  if (gs.p95 > 0.0) {
    std::printf("  p95 improvement: %s%%\n",
                Fmt((1.0 - is.p95 / gs.p95) * 100.0, 1).c_str());
  }

  // --- (b) Cold serving: distinct tables, concurrent clients. -----------
  obs::Histogram& cold_us =
      obs::Registry::Get().histogram("tabrep.serve.bench.request.cold.us");
  obs::Histogram& warm_us =
      obs::Registry::Get().histogram("tabrep.serve.bench.request.warm.us");
  const int64_t num_clients = 4;

  serve::ClusterOptions copts;
  copts.encoder.max_batch = 8;
  copts.encoder.max_wait_us = 200;
  copts.encoder.cache_capacity = 1024;  // no eviction in this bench
  copts.encoder.need_cells = false;
  serve::Cluster cluster(&model, copts);

  auto run_clients = [&](int64_t rounds, obs::Histogram& hist) {
    std::vector<std::thread> clients;
    clients.reserve(static_cast<size_t>(num_clients));
    for (int64_t c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        // Client c serves the inputs congruent to c mod num_clients, so
        // the cold phase requests every table exactly once.
        for (int64_t round = 0; round < rounds; ++round) {
          for (int64_t i = c; i < num_inputs; i += num_clients) {
            obs::ScopedTimer timer(hist);
            StatusOr<serve::EncodedTablePtr> out =
                cluster.Encode(inputs[static_cast<size_t>(i)]);
            TABREP_CHECK(out.ok()) << out.status().ToString();
            TABREP_CHECK(*out != nullptr && (*out)->hidden.numel() > 0);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  };

  double t0 = NowSeconds();
  run_clients(/*rounds=*/1, cold_us);
  const double cold_sec = NowSeconds() - t0;

  // --- (c) Warm serving: the same keys again, served from the LRU. ------
  const int64_t warm_rounds = BenchSteps(20, 3);
  t0 = NowSeconds();
  run_clients(warm_rounds, warm_us);
  const double warm_sec = NowSeconds() - t0;

  const obs::HistogramStats cs = cold_us.Stats();
  const obs::HistogramStats ws = warm_us.Stats();
  obs::Registry& reg = obs::Registry::Get();
  std::printf("\nServing (%lld clients, max_batch %lld):\n",
              static_cast<long long>(num_clients),
              static_cast<long long>(copts.encoder.max_batch));
  std::printf("  cold: %lld tables in %s s  (%s tables/sec)  p95 %s us\n",
              static_cast<long long>(num_inputs), Fmt(cold_sec).c_str(),
              Fmt(cold_sec > 0.0 ? num_inputs / cold_sec : 0.0, 1).c_str(),
              Fmt(cs.p95, 1).c_str());
  std::printf("  warm: %lld requests in %s s  (%s tables/sec)  p95 %s us\n",
              static_cast<long long>(num_inputs * warm_rounds),
              Fmt(warm_sec).c_str(),
              Fmt(warm_sec > 0.0 ? num_inputs * warm_rounds / warm_sec : 0.0,
                  1)
                  .c_str(),
              Fmt(ws.p95, 1).c_str());
  std::printf("  cache: hit %llu  miss %llu  coalesced %llu  encoded %llu\n",
              static_cast<unsigned long long>(
                  reg.counter("tabrep.serve.cache.hit").value()),
              static_cast<unsigned long long>(
                  reg.counter("tabrep.serve.cache.miss").value()),
              static_cast<unsigned long long>(
                  reg.counter("tabrep.serve.coalesced").value()),
              static_cast<unsigned long long>(
                  reg.counter("tabrep.serve.encoded").value()));
  std::printf("  arena bytes %llu\n",
              static_cast<unsigned long long>(
                  reg.counter("tabrep.mem.arena.bytes").value()));

  std::printf("\nExpected shape: inference p95 beats the graph path; warm "
              "requests are cache hits and orders of magnitude faster than "
              "cold.\n");
  std::printf("\nbench_s1: OK\n");
  WriteBenchObsReport("s1");
  return 0;
}
