#include "serve/cluster.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"

namespace tabrep::serve {

namespace {

/// Cache-key salt for stolen requests; any fixed non-zero constant
/// works — it only has to differ from 0 (home traffic) and from the
/// int8 salt's effect. Spells "lets" ("steal" backwards, truncated).
constexpr uint64_t kStealSalt = 0x7374656c73ull;

obs::Counter& RoutedCounter() {
  static obs::Counter& c =
      obs::Registry::Get().counter("tabrep.cluster.routed");
  return c;
}
obs::Counter& StealCounter() {
  static obs::Counter& c = obs::Registry::Get().counter("tabrep.cluster.steal");
  return c;
}
obs::Counter& PublishCounter() {
  static obs::Counter& c =
      obs::Registry::Get().counter("tabrep.cluster.publish");
  return c;
}
obs::Gauge& VersionGauge() {
  static obs::Gauge& g =
      obs::Registry::Get().gauge("tabrep.cluster.weights.version");
  return g;
}
obs::Histogram& ReloadUsHistogram() {
  static obs::Histogram& h =
      obs::Registry::Get().histogram("tabrep.cluster.reload.us");
  return h;
}

}  // namespace

ClusterOptions ClusterOptionsFromEnv() {
  ClusterOptions options;
  options.shards = EnvInt64("TABREP_SHARDS", options.shards);
  options.steal_threshold =
      EnvInt64("TABREP_STEAL_THRESHOLD", options.steal_threshold);
  options.encoder = OptionsFromEnv();
  return options;
}

Cluster::Cluster(models::TableEncoderModel* prototype, ClusterOptions options)
    : options_(options) {
  TABREP_CHECK(prototype != nullptr) << "Cluster needs a prototype model";
  config_ = prototype->config();
  const int64_t n = std::max<int64_t>(1, options_.shards);
  options_.shards = n;
  shards_.reserve(static_cast<size_t>(n));
  // Shard 0 borrows the prototype; clones replicate its full state
  // dict, which carries the weights AND the int8 calibration scales.
  shards_.push_back(
      std::make_unique<BatchedEncoder>(BorrowSnapshot(prototype),
                                       options_.encoder));
  TensorMap state;
  if (n > 1) state = prototype->ExportStateDict();
  for (int64_t i = 1; i < n; ++i) {
    auto model = models::CreateModel(config_);
    const Status imported = model->ImportStateDict(state);
    TABREP_CHECK(imported.ok())
        << "replica clone rejected the prototype's own state dict: "
        << imported.ToString();
    auto snapshot = std::make_shared<WeightsSnapshot>();
    snapshot->model = std::shared_ptr<models::TableEncoderModel>(
        std::move(model));
    snapshot->version = 1;
    shards_.push_back(std::make_unique<BatchedEncoder>(std::move(snapshot),
                                                       options_.encoder));
  }
  VersionGauge().Set(1.0);
}

int64_t Cluster::HomeShard(const TokenizedTable& input) const {
  return static_cast<int64_t>(HashTokenizedTable(input) %
                              static_cast<uint64_t>(shards_.size()));
}

void Cluster::Submit(const TokenizedTable& input, obs::RequestContext* trace,
                     kernels::Precision precision, EncodeCallback done) {
  std::shared_lock<std::shared_mutex> lock(route_mu_);
  const size_t n = shards_.size();
  const size_t home = static_cast<size_t>(HomeShard(input));
  if (n > 1 && options_.steal_threshold > 0 &&
      shards_[home]->queue_depth() >= options_.steal_threshold) {
    // Home is saturated: redirect to the shallowest shard. The depths
    // read here are racy, which is fine — stealing is a load-balance
    // heuristic; correctness (identical bytes, consistent versions)
    // is carried by the salted key, not by where the encode runs.
    size_t victim = home;
    int64_t best = shards_[home]->queue_depth();
    for (size_t i = 0; i < n; ++i) {
      const int64_t depth = shards_[i]->queue_depth();
      if (depth < best) {
        best = depth;
        victim = i;
      }
    }
    if (victim != home) {
      StealCounter().Increment();
      steals_.fetch_add(1, std::memory_order_relaxed);
      shards_[victim]->SubmitSalted(input, trace, precision, kStealSalt,
                                    std::move(done));
      return;
    }
  }
  RoutedCounter().Increment();
  routed_.fetch_add(1, std::memory_order_relaxed);
  shards_[home]->Submit(input, trace, precision, std::move(done));
}

StatusOr<uint64_t> Cluster::PublishWeights(const TensorMap& checkpoint) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t next = version_.load(std::memory_order_relaxed) + 1;

  // Build every replica's model before touching any shard: an import
  // error (shape mismatch, missing tensor) must leave the cluster
  // serving the old generation on all shards, not a mix.
  std::vector<WeightsSnapshotPtr> snapshots;
  snapshots.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    auto model = models::CreateModel(config_);
    TABREP_RETURN_IF_ERROR(model->ImportStateDict(checkpoint));
    model->SetTraining(false);
    auto snapshot = std::make_shared<WeightsSnapshot>();
    snapshot->model = std::shared_ptr<models::TableEncoderModel>(
        std::move(model));
    snapshot->version = next;
    snapshots.push_back(std::move(snapshot));
  }

  // Swap every replica under the exclusive routing lock: no Submit
  // can route between two SetSnapshot calls, so no client sees shard A
  // on V+1 and then shard B still on V. Requests in flight keep the
  // snapshot they captured.
  {
    std::unique_lock<std::shared_mutex> lock(route_mu_);
    for (size_t i = 0; i < shards_.size(); ++i) {
      shards_[i]->SetSnapshot(snapshots[i]);
    }
    version_.store(next, std::memory_order_release);
  }

  const double elapsed_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - t0)
          .count();
  PublishCounter().Increment();
  VersionGauge().Set(static_cast<double>(next));
  ReloadUsHistogram().Record(elapsed_us);
  return next;
}

int64_t Cluster::queue_depth() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->queue_depth();
  return total;
}

int64_t Cluster::shard_queue_depth(int64_t shard) const {
  return shards_[static_cast<size_t>(shard)]->queue_depth();
}

const obs::Heartbeat& Cluster::shard_heartbeat(int64_t shard) const {
  return shards_[static_cast<size_t>(shard)]->heartbeat();
}

std::string Cluster::TopologyJson() const {
  std::string out = "{\"shards\":";
  out += std::to_string(shards_.size());
  out += ",\"steal_threshold\":";
  out += std::to_string(options_.steal_threshold);
  out += ",\"weights_version\":";
  out += std::to_string(weights_version());
  out += ",\"routed\":";
  out += std::to_string(routed_count());
  out += ",\"steal\":";
  out += std::to_string(steal_count());
  out += ",\"shard_depth\":[";
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(shards_[i]->queue_depth());
  }
  out += "]}";
  return out;
}

}  // namespace tabrep::serve
