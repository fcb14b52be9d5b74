// S3 — the sharded-serving bench (serve::Cluster, ISSUE 10).
//
// Four phases over one TaBERT-family model:
//   (a) parity: a 4-shard cluster must produce bitwise-identical
//       encodings to a direct model Encode — sharding, routing, and
//       replica cloning are placement decisions, never approximations;
//   (b) scaling: warm throughput at 1 vs 4 shards on a working set
//       that fits the *combined* shard caches but thrashes a single
//       shard's LRU (48 tables vs 16 entries/shard), with a modeled
//       per-batch dispatch cost (dispatch_delay_us) standing in for
//       heavyweight inference so replica overlap is measurable even on
//       a 1-core CI box. Records tabrep.bench.s3.warm_scaling_4v1 and
//       asserts the >= 2.5x floor the ISSUE accepts;
//   (c) stealing: zipf-style skew concentrates load on one home shard
//       past the steal threshold — reports the observed steal rate;
//   (d) reload under load: a publisher thread republishes the (weight-
//       identical) checkpoint while a closed-loop client encodes.
//       Every response must be OK, carry a version from the published
//       range, arrive in non-decreasing version order, and be bitwise
//       equal to the reference encoding — zero drops, zero torn reads.
//
// Counter determinism: the scaling phase runs strict affinity
// (steal_threshold=0) and waits round-by-round, so hit/miss/routed
// counts are workload-determined. The steal phase also waits round by
// round, so no request coalesces and its encode count is fixed; its
// routed/steal *split* depends on instantaneous depths — which is
// exactly why "tabrep.cluster." sits on the bench-diff noisy-prefix
// list (the sum is invariant, the split wobbles).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "serve/cluster.h"
#include "serve/serve.h"
#include "tensor/io.h"

using namespace tabrep;
using namespace tabrep::bench;

namespace {

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Submits every input once and waits for the round to finish; returns
/// false on any non-OK response. Round-by-round keeps cache warmth
/// deterministic: round N+1 never races round N's fills.
bool RunRound(serve::Cluster& cluster,
              const std::vector<TokenizedTable>& inputs) {
  std::vector<std::future<StatusOr<serve::EncodedTablePtr>>> futures;
  futures.reserve(inputs.size());
  for (const TokenizedTable& in : inputs) futures.push_back(cluster.Submit(in));
  for (auto& f : futures) {
    StatusOr<serve::EncodedTablePtr> out = f.get();
    if (!out.ok() || *out == nullptr) return false;
  }
  return true;
}

}  // namespace

int main() {
  PrintHeader("S3", "Sharded serving: hash-affinity cluster + hot reload");
  EnableBenchObs();

  // 48 tables always (smoke shrinks rounds, never the working set —
  // the cache-capacity story below needs exactly this size).
  WorldOptions wopts;
  wopts.num_tables = 48;
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
  obs::Registry& reg = obs::Registry::Get();

  // Reference encodings: the direct graph-free path every cluster
  // response must match bitwise, in every later phase.
  models::EncodeOptions ref_opts;
  ref_opts.inference = true;
  std::vector<Tensor> reference;
  reference.reserve(inputs.size());
  for (const TokenizedTable& in : inputs) {
    Rng rng(7);
    reference.push_back(model.Encode(in, rng, ref_opts).hidden.value());
  }

  // --- (a) Parity: 4-shard cluster vs direct Encode. --------------------
  {
    serve::ClusterOptions copts;
    copts.shards = 4;
    copts.steal_threshold = 0;  // strict affinity
    copts.encoder.cache_capacity = 16;
    serve::Cluster cluster(&model, copts);
    for (int64_t i = 0; i < num_inputs; ++i) {
      StatusOr<serve::EncodedTablePtr> out =
          cluster.Encode(inputs[static_cast<size_t>(i)]);
      TABREP_CHECK(out.ok()) << out.status().ToString();
      TABREP_CHECK(BitwiseEqual((*out)->hidden,
                                reference[static_cast<size_t>(i)]))
          << "shard " << cluster.HomeShard(inputs[static_cast<size_t>(i)])
          << " diverged from the direct encode for table " << i;
      TABREP_CHECK((*out)->weights_version == 1);
    }
    std::printf("\nparity over %lld tables x 4 shards: bitwise identical\n",
                static_cast<long long>(num_inputs));
  }

  // --- (b) Scaling: warm throughput, 1 vs 4 shards. ---------------------
  // Per-shard cache capacity 16 against a 48-table working set: one
  // shard thrashes its LRU (every warm round misses and pays the
  // modeled dispatch cost), four shards hold the whole set (4x16 >= 48,
  // every warm round is pure cache hits). The dispatch delay models a
  // production-sized encode; replica dispatcher threads overlap their
  // sleeps, so the scaling is visible on any core count.
  const int64_t kDispatchDelayUs = 2000;
  const int64_t warm_rounds = BenchSteps(20, 3);
  double cold_sec[2] = {0.0, 0.0};
  double warm_sec[2] = {0.0, 0.0};
  const int64_t shard_counts[2] = {1, 4};
  for (int s = 0; s < 2; ++s) {
    serve::ClusterOptions copts;
    copts.shards = shard_counts[s];
    copts.steal_threshold = 0;  // stealing off: placement stays affine
    copts.encoder.cache_capacity = 16;
    copts.encoder.max_batch = 8;
    copts.encoder.dispatch_delay_us = kDispatchDelayUs;
    serve::Cluster cluster(&model, copts);

    double t0 = NowSeconds();
    TABREP_CHECK(RunRound(cluster, inputs)) << "cold round failed";
    cold_sec[s] = NowSeconds() - t0;

    t0 = NowSeconds();
    for (int64_t r = 0; r < warm_rounds; ++r) {
      TABREP_CHECK(RunRound(cluster, inputs)) << "warm round failed";
    }
    warm_sec[s] = NowSeconds() - t0;
  }
  const double warm_requests =
      static_cast<double>(num_inputs * warm_rounds);
  const double cold_tps_1 =
      cold_sec[0] > 0.0 ? static_cast<double>(num_inputs) / cold_sec[0] : 0.0;
  const double cold_tps_4 =
      cold_sec[1] > 0.0 ? static_cast<double>(num_inputs) / cold_sec[1] : 0.0;
  const double warm_tps_1 = warm_sec[0] > 0.0 ? warm_requests / warm_sec[0] : 0.0;
  const double warm_tps_4 = warm_sec[1] > 0.0 ? warm_requests / warm_sec[1] : 0.0;
  const double warm_scaling = warm_tps_1 > 0.0 ? warm_tps_4 / warm_tps_1 : 0.0;
  const double cold_scaling = cold_tps_1 > 0.0 ? cold_tps_4 / cold_tps_1 : 0.0;
  std::printf("\nScaling (cache 16/shard, working set %lld, dispatch delay "
              "%lld us):\n",
              static_cast<long long>(num_inputs),
              static_cast<long long>(kDispatchDelayUs));
  std::printf("  cold: 1 shard %s tables/sec, 4 shards %s tables/sec "
              "(%sx)\n",
              Fmt(cold_tps_1, 1).c_str(), Fmt(cold_tps_4, 1).c_str(),
              Fmt(cold_scaling, 2).c_str());
  std::printf("  warm: 1 shard %s tables/sec, 4 shards %s tables/sec "
              "(%sx)\n",
              Fmt(warm_tps_1, 1).c_str(), Fmt(warm_tps_4, 1).c_str(),
              Fmt(warm_scaling, 2).c_str());
  reg.gauge("tabrep.bench.s3.cold_tps_1").Set(cold_tps_1);
  reg.gauge("tabrep.bench.s3.cold_tps_4").Set(cold_tps_4);
  reg.gauge("tabrep.bench.s3.warm_tps_1").Set(warm_tps_1);
  reg.gauge("tabrep.bench.s3.warm_tps_4").Set(warm_tps_4);
  reg.gauge("tabrep.bench.s3.warm_scaling_4v1").Set(warm_scaling);
  reg.gauge("tabrep.bench.s3.cold_scaling_4v1").Set(cold_scaling);
  TABREP_CHECK(warm_scaling >= 2.5)
      << "warm 4-shard throughput only " << warm_scaling
      << "x the 1-shard number; the ISSUE floor is 2.5x";

  // --- (c) Stealing under skew. -----------------------------------------
  // Every request targets tables homed on shard 0 of a 4-shard cluster
  // with a low threshold: the home queue saturates and the router
  // redirects overflow to the shallowest shard (salted keys).
  {
    serve::ClusterOptions copts;
    copts.shards = 4;
    copts.steal_threshold = 2;
    copts.encoder.cache_capacity = 0;  // every request is real work
    copts.encoder.max_batch = 4;
    copts.encoder.dispatch_delay_us = kDispatchDelayUs;
    serve::Cluster cluster(&model, copts);
    std::vector<TokenizedTable> hot;
    for (const TokenizedTable& in : inputs) {
      if (cluster.HomeShard(in) == 0) hot.push_back(in);
    }
    TABREP_CHECK(!hot.empty());
    // Round by round: a table is never submitted while its previous
    // request is still in flight, so nothing coalesces and the encode
    // count does not depend on where the router sent each request.
    const int64_t skew_rounds = BenchSteps(12, 4);
    for (int64_t r = 0; r < skew_rounds; ++r) {
      TABREP_CHECK(RunRound(cluster, hot)) << "skew round failed";
    }
    // routed_count() counts home-routed requests only; a stolen request
    // is counted by steal_count() instead.
    const double stolen = static_cast<double>(cluster.steal_count());
    const double total =
        static_cast<double>(cluster.routed_count()) + stolen;
    const double steal_rate = total > 0.0 ? stolen / total : 0.0;
    std::printf("\nStealing (all keys homed on shard 0, threshold %lld): "
                "%s of %s requests stolen (%s%%)\n",
                static_cast<long long>(copts.steal_threshold),
                Fmt(stolen, 0).c_str(), Fmt(total, 0).c_str(),
                Fmt(steal_rate * 100.0, 1).c_str());
    reg.gauge("tabrep.bench.s3.steal_rate").Set(steal_rate);
    TABREP_CHECK(cluster.steal_count() > 0)
        << "skewed load never tripped the steal threshold";
  }

  // --- (d) Reload under load. -------------------------------------------
  // A publisher republishes the weight-identical checkpoint while a
  // closed-loop client encodes: every response must be OK, versions
  // must be non-decreasing (closed loop admits strictly after the
  // previous response), and every payload must stay bitwise equal to
  // the reference — the never-torn contract, measured from outside.
  {
    serve::ClusterOptions copts;
    copts.shards = 2;
    copts.steal_threshold = 0;
    copts.encoder.cache_capacity = 16;
    serve::Cluster cluster(&model, copts);
    const TensorMap checkpoint = model.ExportStateDict();
    const int64_t reload_requests = BenchSteps(400, 60);
    const int64_t publishes = BenchSteps(12, 4);

    std::atomic<bool> done{false};
    std::thread publisher([&] {
      for (int64_t p = 0; p < publishes && !done.load(); ++p) {
        StatusOr<uint64_t> v = cluster.PublishWeights(checkpoint);
        TABREP_CHECK(v.ok()) << v.status().ToString();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });

    obs::Histogram& reload_us =
        reg.histogram("tabrep.serve.bench.reload.request.us");
    uint64_t last_version = 0;
    for (int64_t r = 0; r < reload_requests; ++r) {
      const size_t i = static_cast<size_t>(r % num_inputs);
      obs::ScopedTimer timer(reload_us);
      StatusOr<serve::EncodedTablePtr> out = cluster.Encode(inputs[i]);
      TABREP_CHECK(out.ok()) << "request " << r << " dropped during reload: "
                             << out.status().ToString();
      const uint64_t version = (*out)->weights_version;
      TABREP_CHECK(version >= 1 &&
                   version <= 1 + static_cast<uint64_t>(publishes))
          << "response carried version " << version
          << " outside the published range";
      TABREP_CHECK(version >= last_version)
          << "closed-loop versions went backwards: " << last_version
          << " then " << version;
      last_version = version;
      TABREP_CHECK(BitwiseEqual((*out)->hidden, reference[i]))
          << "torn response: bytes diverged from the reference under "
             "version "
          << version;
    }
    done.store(true);
    publisher.join();

    const obs::HistogramStats rs = reload_us.Stats();
    std::printf("\nReload under load: %lld requests across %llu->%llu "
                "version rollovers, 0 drops, all bitwise stable\n",
                static_cast<long long>(reload_requests),
                1ull, static_cast<unsigned long long>(
                          cluster.weights_version()));
    std::printf("  request p50 %s us  p99 %s us during reloads\n",
                Fmt(rs.p50, 1).c_str(), Fmt(rs.p99, 1).c_str());
    reg.gauge("tabrep.bench.s3.reload_p99_us").Set(rs.p99);
    reg.gauge("tabrep.bench.s3.reload_final_version")
        .Set(static_cast<double>(cluster.weights_version()));
  }

  std::printf("\nExpected shape: warm 4-shard throughput clears 2.5x the "
              "1-shard number (combined caches hold the working set); "
              "skew trips stealing; reloads drop nothing.\n");
  std::printf("\nbench_s3: OK\n");
  WriteBenchObsReport("s3");
  return 0;
}
