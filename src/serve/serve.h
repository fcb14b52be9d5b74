#ifndef TABREP_SERVE_SERVE_H_
#define TABREP_SERVE_SERVE_H_

// tabrep::serve — the encode-serving layer (ROADMAP north star:
// "serves heavy traffic"). A BatchedEncoder accepts requests from any
// number of client threads, micro-batches them onto the runtime thread
// pool, runs each table through the graph-free inference path
// (EncodeOptions::inference), and memoizes results in an LRU cache
// keyed by the serialized-table hash. Identical in-flight requests are
// coalesced: each distinct table is encoded exactly once no matter how
// many clients ask for it concurrently.
//
// The API is typed-status/async: the primitive Submit(input, trace,
// precision, done) copies the input and calls `done` exactly once with
// a StatusOr — Ok with the shared encoding, kOverloaded when admission
// control sheds the request, or kCancelled when the encoder shut down
// first — inline for a hit, shed or cancel, else on the dispatcher.
// The future Submit and blocking Encode() wrap it. Nothing here blocks
// without a typed way out, and nothing crashes on overload or shutdown.
//
// Counters (tabrep.serve.*): requests, cache.hit, cache.miss,
// coalesced, encoded, shed; histogram batch.size records how many
// tables each dispatcher wakeup carried.
//
// Weights are copy-on-write snapshots (ISSUE 10): the encoder holds a
// mutex-guarded shared_ptr to an immutable {model, version} pair, every
// Submit captures the snapshot it will encode under, and SetSnapshot
// swaps in new weights without dropping, blocking, or reordering
// in-flight requests — a request admitted under version V encodes
// under version V even if V+1 is published before its batch runs. The
// snapshot version is mixed into the cache key (entries from old
// weights become unreachable, never served stale) and echoed in
// EncodedTable::weights_version so clients can observe a rollover.
// serve::Cluster (serve/cluster.h) shards N BatchedEncoders behind a
// hash-affinity router on top of exactly these primitives.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "models/table_encoder.h"
#include "obs/reqtrace.h"
#include "obs/watchdog.h"

namespace tabrep::serve {

/// Stable FNV-1a 64-bit hash over everything Encode reads from the
/// input: token fields, cell spans, and the used-rows/columns counts.
/// Tables that hash equal are served the same cached encoding.
uint64_t HashTokenizedTable(const TokenizedTable& input);

/// A served encoding: plain tensors (the serving path is graph-free),
/// shared immutably between the cache and every requester.
struct EncodedTable {
  Tensor hidden;  // [T, dim]
  Tensor cells;   // [num_cells, dim]; meaningful when has_cells
  bool has_cells = false;
  /// Precision the encode actually ran at (int8 requests fall back to
  /// f32 per layer when uncalibrated, but the request-level label is
  /// what was asked for and cached under).
  kernels::Precision precision = kernels::Precision::kFloat32;
  /// Version of the weights snapshot this encoding was produced under
  /// (monotonic per encoder/cluster, starts at 1). 0 means "unknown" —
  /// only decoded legacy wire payloads carry that.
  uint64_t weights_version = 0;
};

using EncodedTablePtr = std::shared_ptr<const EncodedTable>;

/// One immutable generation of model weights. The serving layer never
/// mutates a model it encodes with after construction-time eval-mode
/// setup; swapping generations means swapping the pointer, so readers
/// holding the old snapshot finish on the old weights (copy-on-write).
struct WeightsSnapshot {
  std::shared_ptr<models::TableEncoderModel> model;
  uint64_t version = 1;
};

using WeightsSnapshotPtr = std::shared_ptr<const WeightsSnapshot>;

/// Wraps a caller-owned model (not freed) into a version-1 snapshot.
/// The model must outlive every encoder still holding the snapshot.
WeightsSnapshotPtr BorrowSnapshot(models::TableEncoderModel* model);

/// Mutex-guarded LRU map from table hash to encoding. Capacity 0
/// disables caching (every Get misses, Put is a no-op).
class EncodeCache {
 public:
  explicit EncodeCache(std::size_t capacity);

  /// The cached encoding, promoted to most-recently-used; null on miss.
  EncodedTablePtr Get(uint64_t key);
  /// Inserts (or refreshes) `value`, evicting the least-recently-used
  /// entry when over capacity.
  void Put(uint64_t key, EncodedTablePtr value);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    uint64_t key;
    EncodedTablePtr value;
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_;
};

struct BatchedEncoderOptions {
  /// Most tables one dispatcher wakeup encodes (fanned out over the
  /// runtime pool with ParallelFor).
  int64_t max_batch = 8;
  /// How long the dispatcher lingers for the batch to fill once the
  /// first request arrives. Affects batching/latency only, never the
  /// encoded values.
  int64_t max_wait_us = 200;
  /// LRU capacity; -1 reads TABREP_ENCODE_CACHE (default 256), 0
  /// disables caching.
  int64_t cache_capacity = -1;
  /// Admission bound: distinct tables allowed to wait in the dispatch
  /// queue before Submit sheds with kOverloaded. 0 = unbounded
  /// (in-process callers provide their own backpressure by blocking);
  /// the network front-end sets this so a traffic burst degrades into
  /// typed rejects instead of unbounded memory growth. Cache hits and
  /// coalesced requests are always admitted — they add no encode work.
  int64_t max_queue = 0;
  /// Artificial stall (microseconds) before each batch is encoded.
  /// Exists so tests and the overload phase of bench_s2_net can create
  /// deterministic backpressure; leave at 0 in production.
  int64_t dispatch_delay_us = 0;
  /// Ask Encode for pooled cell representations.
  bool need_cells = false;
};

/// One documented defaulting path for every serve-layer tunable: reads
/// `name` from the environment, returning `fallback` when unset, empty,
/// or unparsable. Shared by BatchedEncoderOptions resolution and
/// net::ServerOptions::FromEnv so no subsystem grows ad-hoc getenv
/// calls again.
int64_t EnvInt64(const char* name, int64_t fallback);

/// String-valued companion to EnvInt64 (same defaulting contract:
/// unset or empty falls back). Used by net::ServerOptions::FromEnv for
/// the access-log path.
std::string EnvString(const char* name, std::string fallback);

/// BatchedEncoderOptions with every field resolved from its
/// environment variable (falling back to the struct defaults):
///   TABREP_SERVE_MAX_BATCH    -> max_batch
///   TABREP_SERVE_MAX_WAIT_US  -> max_wait_us
///   TABREP_ENCODE_CACHE       -> cache_capacity
///   TABREP_SERVE_MAX_QUEUE    -> max_queue
BatchedEncoderOptions OptionsFromEnv();

/// Completion callback of EncodeService::Submit. Runs exactly once,
/// either inline in Submit (possibly under the cluster's routing lock)
/// or on a dispatcher thread, so it must be cheap, must not block and
/// must not call back into the service.
using EncodeCallback = std::function<void(StatusOr<EncodedTablePtr>)>;

/// What the network front-end needs from an encode backend — one
/// BatchedEncoder or a serve::Cluster of them, interchangeably. The
/// shard-indexed accessors let the server wire per-shard watchdog
/// heartbeats and depth probes without knowing the concrete topology.
class EncodeService {
 public:
  virtual ~EncodeService() = default;

  /// Non-blocking typed admission; see BatchedEncoder::Submit for the
  /// full callback/trace contract every implementation honors.
  virtual void Submit(const TokenizedTable& input, obs::RequestContext* trace,
                      kernels::Precision precision, EncodeCallback done) = 0;

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

  /// Distinct tables waiting for a dispatcher right now, summed over
  /// shards (racy by nature, like any depth).
  virtual int64_t queue_depth() const = 0;

  /// Replica topology: shard_count() is >= 1; the per-shard accessors
  /// take 0 <= shard < shard_count().
  virtual int64_t shard_count() const = 0;
  virtual int64_t shard_queue_depth(int64_t shard) const = 0;
  virtual const obs::Heartbeat& shard_heartbeat(int64_t shard) const = 0;

  /// Version of the newest published weights snapshot (monotonic,
  /// starts at 1). Individual responses echo the version they actually
  /// encoded under, which lags this during a rollover.
  virtual uint64_t weights_version() const = 0;

  /// One JSON object describing the topology for the kStats "cluster"
  /// section: shard count, per-shard live queue depths, steal/routed
  /// counts, weights version.
  virtual std::string TopologyJson() const = 0;
};

/// Thread-safe micro-batching facade over TableEncoderModel::Encode.
/// Puts the model in eval mode on construction; the destructor drains
/// every accepted request (running its callback) before joining the
/// dispatcher.
class BatchedEncoder : public EncodeService {
 public:
  explicit BatchedEncoder(models::TableEncoderModel* model,
                          BatchedEncoderOptions options = {});
  /// Snapshot-owning form (serve::Cluster replicas): the encoder keeps
  /// the snapshot's model alive through the shared_ptr.
  explicit BatchedEncoder(WeightsSnapshotPtr snapshot,
                          BatchedEncoderOptions options = {});
  ~BatchedEncoder() override;

  BatchedEncoder(const BatchedEncoder&) = delete;
  BatchedEncoder& operator=(const BatchedEncoder&) = delete;

  using EncodeService::Submit;

  /// Non-blocking admission: hashes `input`, serves cache hits
  /// immediately, coalesces onto an identical in-flight request, or
  /// enqueues a copy for the dispatcher. COPIES the table — the caller
  /// need not keep `input` alive after the call returns. `done` gets:
  ///   Ok(EncodedTablePtr)  — encoded (or served from cache)
  ///   kOverloaded          — the dispatch queue was at max_queue
  ///   kCancelled           — submitted after shutdown began
  /// A hit, a shed or a cancel calls `done` inline, after mu_ is
  /// released; an encode calls it from the dispatcher.
  ///
  /// `trace` (optional) is the request-scoped observability context
  /// (ISSUE 7): Submit marks it submitted and fills cache_hit; the
  /// dispatcher stamps dequeued/encode_start/encode_end and batch_size
  /// before it calls `done`, so the stamps are visible to whatever
  /// `done` synchronizes with (the caller must not read the trace
  /// before `done` runs, and must keep it alive until then). Fast
  /// paths that never reach the dispatcher (cache hit, shed, shutdown)
  /// stamp the dispatcher triple to the Submit call time so the
  /// queue/batch/inference stages read as ~zero.
  void Submit(const TokenizedTable& input, obs::RequestContext* trace,
              kernels::Precision precision, EncodeCallback done) override {
    SubmitSalted(input, trace, precision, 0, std::move(done));
  }

  /// Submit with an extra cache-key salt. The cluster router uses this
  /// for stolen requests: a non-zero salt keeps the thief shard's
  /// cache and coalescing keyspace disjoint from its home-routed
  /// traffic, so stealing perturbs only *where* a table is encoded —
  /// never what any cache serves for the home key. Encoded bytes are
  /// identical either way (the key pins the snapshot version too).
  void SubmitSalted(const TokenizedTable& input, obs::RequestContext* trace,
                    kernels::Precision precision, uint64_t key_salt,
                    EncodeCallback done);

  const EncodeCache& cache() const { return cache_; }
  const BatchedEncoderOptions& options() const { return options_; }

  /// Distinct tables waiting for the dispatcher right now (kHealth
  /// wire probes report this; it is racy by nature, like any depth).
  int64_t queue_depth() const override;

  /// A BatchedEncoder is the degenerate one-shard service.
  int64_t shard_count() const override { return 1; }
  int64_t shard_queue_depth(int64_t) const override { return queue_depth(); }
  const obs::Heartbeat& shard_heartbeat(int64_t) const override {
    return heartbeat_;
  }
  uint64_t weights_version() const override;
  std::string TopologyJson() const override;

  /// Atomically swaps in a new weights generation (copy-on-write hot
  /// reload). Requests already admitted keep encoding under the
  /// snapshot they captured at Submit time; requests admitted after
  /// the store encode under (and cache-key under) the new one. The
  /// caller is responsible for version monotonicity (serve::Cluster
  /// enforces it); the model is put in eval mode here.
  void SetSnapshot(WeightsSnapshotPtr snapshot);

  /// Dispatcher liveness beacon (ISSUE 8): beaten at the top of every
  /// dispatcher iteration and on every idle wakeup, so a wedged batch
  /// (runaway inference, injected dispatch_delay_us) shows up as lag.
  /// The watchdog polls this for its deadman check; inter-beat gaps
  /// land in the tabrep.serve.dispatcher.heartbeat.us histogram.
  const obs::Heartbeat& heartbeat() const { return heartbeat_; }

 private:
  /// One callback waiting on a Pending, plus the trace to stamp (null
  /// for untraced callers) before the callback runs.
  struct Waiter {
    EncodeCallback done;
    obs::RequestContext* trace = nullptr;
  };

  /// One distinct in-flight table; concurrent requests for the same
  /// key share a Pending (coalescing) and each holds a waiter. The
  /// dispatcher records its stage stamps here once per batch and
  /// copies them into every waiter's trace before its callback (late
  /// coalescers may attach after dequeue; the copy under mu_ catches
  /// them all).
  struct Pending {
    uint64_t key = 0;
    TokenizedTable table;  // owned copy of the leader's input
    kernels::Precision precision = kernels::Precision::kFloat32;
    /// The weights generation captured at Submit time: the dispatcher
    /// encodes with exactly this model even if a newer snapshot is
    /// published while the request waits (never-torn reloads).
    WeightsSnapshotPtr snapshot;
    std::vector<Waiter> waiters;
    obs::RequestContext::TimePoint dequeued{};
    obs::RequestContext::TimePoint encode_start{};
    obs::RequestContext::TimePoint encode_end{};
    int64_t batch_size = 0;
  };

  void DispatcherLoop();

  /// The current weights generation; Submit copies it once per request
  /// and SetSnapshot swaps it, both under snapshot_mu_ (a dedicated
  /// mutex, not std::atomic<shared_ptr>, whose libstdc++ lock-bit
  /// implementation ThreadSanitizer cannot model — the copy is one
  /// refcount bump, trivial next to an encode). Old generations die
  /// when the last Pending/cache-free reference drops.
  WeightsSnapshotPtr CurrentSnapshot() const {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    return snapshot_;
  }
  mutable std::mutex snapshot_mu_;
  WeightsSnapshotPtr snapshot_;
  BatchedEncoderOptions options_;
  EncodeCache cache_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // dispatcher: queue became non-empty
  std::deque<std::shared_ptr<Pending>> queue_;
  std::unordered_map<uint64_t, std::shared_ptr<Pending>> inflight_;
  bool stop_ = false;
  obs::Heartbeat heartbeat_{"tabrep.serve.dispatcher.heartbeat.us"};
  std::thread dispatcher_;
};

}  // namespace tabrep::serve

#endif  // TABREP_SERVE_SERVE_H_
