#ifndef TABREP_SERVE_CLUSTER_H_
#define TABREP_SERVE_CLUSTER_H_

// serve::Cluster — N BatchedEncoder replicas behind a hash-affinity
// router (ISSUE 10 tentpole). Each shard owns its own dispatcher
// thread, EncodeCache, and weights snapshot; the router sends every
// request to `HashTokenizedTable(input) % shards`, so repeats of a
// table always land where its cache entry lives (shard caches stay
// warm and disjoint instead of N copies of one working set).
//
// Work stealing: when the home shard's queue depth is at or above
// `steal_threshold`, the request is redirected to the shallowest
// shard instead, with a steal salt mixed into the cache key. The salt
// keeps the thief's cache/coalescing keyspace disjoint from the home
// shard's, so a steal changes only *where* the encode runs; what any
// shard's cache serves for the home key is untouched, and the encoded
// bytes are identical either way (see DESIGN.md §7).
//
// Hot weight reload: PublishWeights builds one freshly-imported model
// per shard from a checkpoint (fail-atomic — an import error leaves
// every shard untouched), then swaps them all in under the exclusive
// routing lock, so requests submitted one after another see
// non-decreasing versions. In-flight requests finish on the snapshot
// they captured at admission; nothing is dropped or reordered, and
// every response echoes the weights version it encoded under.
//
// Metrics (tabrep.cluster.*): routed / steal / publish counters,
// weights.version gauge, reload.us histogram. Live per-shard depths
// are in TopologyJson() (kStats "cluster" section) and the server's
// watchdog probes, not the registry — depths are moment-dependent and
// the bench baseline gate diffs registry values.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "serve/serve.h"
#include "tensor/io.h"

namespace tabrep::serve {

struct ClusterOptions {
  /// Replica count (dispatcher threads, caches, snapshots). Clamped to
  /// >= 1.
  int64_t shards = 1;
  /// Home-shard queue depth at which the router redirects to the
  /// shallowest shard. 0 disables stealing (strict affinity).
  int64_t steal_threshold = 8;
  /// Per-replica encoder options (each shard gets its own cache of
  /// `cache_capacity` entries).
  BatchedEncoderOptions encoder;
};

/// ClusterOptions resolved from the environment (same defaulting
/// contract as OptionsFromEnv, which fills the nested encoder options):
///   TABREP_SHARDS           -> shards
///   TABREP_STEAL_THRESHOLD  -> steal_threshold
ClusterOptions ClusterOptionsFromEnv();

class Cluster : public EncodeService {
 public:
  /// Builds `shards` replicas of `prototype`: shard 0 borrows the
  /// prototype itself (caller keeps ownership, as with BatchedEncoder),
  /// the rest are deep clones via ExportStateDict/ImportStateDict — so
  /// int8 calibration and any other state-dict content replicate too.
  /// All replicas start at weights version 1.
  explicit Cluster(models::TableEncoderModel* prototype,
                   ClusterOptions options = {});
  ~Cluster() override = default;

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  using EncodeService::Submit;

  /// Hash-affinity admission: routes to the home shard (or steals to
  /// the shallowest one past the threshold) and submits there. Same
  /// contract as BatchedEncoder::Submit.
  void Submit(const TokenizedTable& input, obs::RequestContext* trace,
              kernels::Precision precision, EncodeCallback done) override;

  /// Swaps `checkpoint` into every replica under the next monotonic
  /// version, without disturbing in-flight requests. Returns the new
  /// version, or the import error with no shard changed (fail-atomic).
  /// Serialized internally; safe to call concurrently with Submit.
  StatusOr<uint64_t> PublishWeights(const TensorMap& checkpoint);

  int64_t queue_depth() const override;
  int64_t shard_count() const override {
    return static_cast<int64_t>(shards_.size());
  }
  int64_t shard_queue_depth(int64_t shard) const override;
  const obs::Heartbeat& shard_heartbeat(int64_t shard) const override;
  uint64_t weights_version() const override {
    return version_.load(std::memory_order_acquire);
  }
  std::string TopologyJson() const override;

  /// Where strict affinity would send `input` (exposed for tests and
  /// the router's own decision).
  int64_t HomeShard(const TokenizedTable& input) const;

  /// Per-instance routing tallies (the tabrep.cluster.* counters are
  /// process-global; these isolate one cluster for tests/benches).
  uint64_t routed_count() const {
    return routed_.load(std::memory_order_relaxed);
  }
  uint64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }

  const ClusterOptions& options() const { return options_; }
  const BatchedEncoder& shard(int64_t i) const { return *shards_[i]; }

 private:
  ClusterOptions options_;
  ModelConfig config_;  // for building fresh replicas at publish time
  std::vector<std::unique_ptr<BatchedEncoder>> shards_;

  /// Serializes PublishWeights calls (model imports run under it).
  std::mutex publish_mu_;
  /// Held shared by Submit around route + shard submit, exclusive by
  /// PublishWeights around the snapshot swap: a Submit sees every
  /// shard on one weights version.
  std::shared_mutex route_mu_;
  std::atomic<uint64_t> version_{1};
  std::atomic<uint64_t> routed_{0};
  std::atomic<uint64_t> steals_{0};
};

}  // namespace tabrep::serve

#endif  // TABREP_SERVE_CLUSTER_H_
