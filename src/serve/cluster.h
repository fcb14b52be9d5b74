#ifndef TABREP_SERVE_CLUSTER_H_
#define TABREP_SERVE_CLUSTER_H_

// serve::Cluster — the encode service: N >= 1 BatchedEncoder shards
// behind a hash-affinity router. Each shard owns its own dispatcher
// thread and EncodeCache; the router sends every request to
// `HashTokenizedTable(input) % shards`, so repeats of a table always
// land where its cache entry lives (shard caches stay warm and
// disjoint instead of N copies of one working set). Every shard
// encodes with the one immutable weights snapshot the cluster holds:
// graph-free inference only reads the model, so the shards share it.
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
// from a checkpoint (fail-atomic — an import error leaves the cluster
// untouched), then swaps the one snapshot pointer under the exclusive
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
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "serve/serve.h"
#include "tensor/io.h"

namespace tabrep::serve {

struct ClusterOptions {
  /// Shard count (dispatcher threads and caches). Clamped to >= 1.
  int64_t shards = 1;
  /// Home-shard queue depth at which the router redirects to the
  /// shallowest shard. 0 disables stealing (strict affinity).
  int64_t steal_threshold = 8;
  /// Per-shard encoder options (each shard gets its own cache of
  /// `cache_capacity` entries).
  BatchedEncoderOptions encoder;
};

/// ClusterOptions resolved from the environment (same defaulting
/// contract as OptionsFromEnv, which fills the nested encoder options):
///   TABREP_SHARDS           -> shards
///   TABREP_STEAL_THRESHOLD  -> steal_threshold
ClusterOptions ClusterOptionsFromEnv();

class Cluster {
 public:
  /// Builds `shards` shards that all encode with `prototype` (borrowed:
  /// the caller keeps ownership and must keep it alive and unmodified
  /// while the cluster serves version 1). Puts the prototype in eval
  /// mode. Starts at weights version 1.
  explicit Cluster(models::TableEncoderModel* prototype,
                   ClusterOptions options = {});

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Non-blocking typed admission: hashes `input` once, captures the
  /// current weights snapshot, routes to the home shard (or steals to
  /// the shallowest one past the threshold) and submits there. See
  /// BatchedEncoder::Submit for the callback and trace contract.
  void Submit(const TokenizedTable& input, obs::RequestContext* trace,
              kernels::Precision precision, EncodeCallback done);

  /// Future form of Submit: the future resolves when `done` would run.
  std::future<StatusOr<EncodedTablePtr>> Submit(
      const TokenizedTable& input, obs::RequestContext* trace = nullptr,
      kernels::Precision precision = kernels::Precision::kFloat32);

  /// Blocking convenience wrapper: Submit + wait. The table is copied;
  /// safe to destroy `input` while the request is in flight.
  StatusOr<EncodedTablePtr> Encode(
      const TokenizedTable& input,
      kernels::Precision precision = kernels::Precision::kFloat32) {
    return Submit(input, nullptr, precision).get();
  }

  /// Swaps `checkpoint` in under the next monotonic version, without
  /// disturbing in-flight requests. Returns the new version, or the
  /// import error with nothing changed (fail-atomic). Serialized
  /// internally; safe to call concurrently with Submit.
  StatusOr<uint64_t> PublishWeights(const TensorMap& checkpoint);

  /// Distinct tables waiting for a dispatcher right now, summed over
  /// shards (racy by nature, like any depth).
  int64_t queue_depth() const;
  int64_t shard_count() const { return static_cast<int64_t>(shards_.size()); }
  /// Version of the newest published weights snapshot (monotonic,
  /// starts at 1). Individual responses echo the version they actually
  /// encoded under, which lags this during a rollover.
  uint64_t weights_version() const;
  /// One JSON object describing the topology for the kStats "cluster"
  /// section: shard count, steal threshold, weights version,
  /// routed/steal counts and per-shard live queue depths.
  std::string TopologyJson() const;

  /// Where strict affinity would send `input` (for tests and benches;
  /// Submit routes on the hash it already computed).
  int64_t HomeShard(const TokenizedTable& input) const;

  /// Per-instance routing tallies (the tabrep.cluster.* counters are
  /// process-global; these isolate one cluster for tests/benches).
  uint64_t routed_count() const {
    return routed_.load(std::memory_order_relaxed);
  }
  uint64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }

  const BatchedEncoder& shard(int64_t i) const { return *shards_[i]; }

 private:
  ClusterOptions options_;
  ModelConfig config_;  // for building a fresh model at publish time
  std::vector<std::unique_ptr<BatchedEncoder>> shards_;

  /// Serializes PublishWeights calls (model imports run under it).
  std::mutex publish_mu_;
  /// Held shared by Submit around snapshot capture + route + shard
  /// submit, exclusive by PublishWeights around the snapshot swap.
  mutable std::shared_mutex route_mu_;
  /// The weights every shard encodes with (guarded by route_mu_).
  WeightsSnapshotPtr snapshot_;
  std::atomic<uint64_t> routed_{0};
  std::atomic<uint64_t> steals_{0};
};

}  // namespace tabrep::serve

#endif  // TABREP_SERVE_CLUSTER_H_
