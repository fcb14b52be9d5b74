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
  prototype->SetTraining(false);  // serving is inference-only
  auto snapshot = std::make_shared<WeightsSnapshot>();
  // Non-owning: the caller manages the prototype's lifetime.
  snapshot->model =
      std::shared_ptr<models::TableEncoderModel>(prototype, [](auto*) {});
  snapshot_ = std::move(snapshot);
  const int64_t n = std::max<int64_t>(1, options_.shards);
  options_.shards = n;
  shards_.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<BatchedEncoder>(options_.encoder));
  }
  VersionGauge().Set(1.0);
}

int64_t Cluster::HomeShard(const TokenizedTable& input) const {
  return static_cast<int64_t>(HashTokenizedTable(input) %
                              static_cast<uint64_t>(shards_.size()));
}

void Cluster::Submit(const TokenizedTable& input, obs::RequestContext* trace,
                     kernels::Precision precision, EncodeCallback done) {
  const uint64_t hash = HashTokenizedTable(input);
  std::shared_lock<std::shared_mutex> lock(route_mu_);
  const size_t n = shards_.size();
  const size_t home = static_cast<size_t>(hash % n);
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
      shards_[victim]->Submit(input, hash, kStealSalt, snapshot_, trace,
                              precision, std::move(done));
      return;
    }
  }
  RoutedCounter().Increment();
  routed_.fetch_add(1, std::memory_order_relaxed);
  shards_[home]->Submit(input, hash, 0, snapshot_, trace, precision,
                        std::move(done));
}

std::future<StatusOr<EncodedTablePtr>> Cluster::Submit(
    const TokenizedTable& input, obs::RequestContext* trace,
    kernels::Precision precision) {
  // Shared because std::function needs a copyable callable.
  auto promise = std::make_shared<std::promise<StatusOr<EncodedTablePtr>>>();
  std::future<StatusOr<EncodedTablePtr>> future = promise->get_future();
  Submit(input, trace, precision, [promise](StatusOr<EncodedTablePtr> result) {
    promise->set_value(std::move(result));
  });
  return future;
}

StatusOr<uint64_t> Cluster::PublishWeights(const TensorMap& checkpoint) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t next = weights_version() + 1;

  // Build the new model before touching the snapshot: an import error
  // (shape mismatch, missing tensor) must leave the cluster serving the
  // old generation.
  auto model = models::CreateModel(config_);
  TABREP_RETURN_IF_ERROR(model->ImportStateDict(checkpoint));
  model->SetTraining(false);
  auto snapshot = std::make_shared<WeightsSnapshot>();
  snapshot->model = std::shared_ptr<models::TableEncoderModel>(std::move(model));
  snapshot->version = next;

  // Swap under the exclusive routing lock: every Submit after the swap
  // captures the new snapshot, so requests submitted one after another
  // see non-decreasing versions. Requests in flight keep the snapshot
  // they captured; the old model dies with the last of them.
  {
    std::unique_lock<std::shared_mutex> lock(route_mu_);
    snapshot_ = std::move(snapshot);
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

uint64_t Cluster::weights_version() const {
  std::shared_lock<std::shared_mutex> lock(route_mu_);
  return snapshot_->version;
}

int64_t Cluster::queue_depth() const {
  int64_t total = 0;
  for (const auto& shard : shards_) total += shard->queue_depth();
  return total;
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
