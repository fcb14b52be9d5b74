#ifndef TABREP_SERVE_SERVE_H_
#define TABREP_SERVE_SERVE_H_

// tabrep::serve — the encode-serving layer (ROADMAP north star:
// "serves heavy traffic"). serve::Cluster (serve/cluster.h) is the one
// encode service; this header holds what its shards are built from. A
// BatchedEncoder shard accepts requests from any number of client
// threads, micro-batches them onto the runtime thread pool, runs each
// table through the graph-free inference path (EncodeOptions::
// inference), and memoizes results in an LRU cache keyed by the
// serialized-table hash. Identical in-flight requests are coalesced:
// each distinct table is encoded exactly once no matter how many
// clients ask for it concurrently.
//
// The API is typed-status/async: Submit copies the input and calls
// `done` exactly once with a StatusOr — Ok with the shared encoding,
// kOverloaded when admission control sheds the request, or kCancelled
// when the shard shut down first — inline for a hit, shed or cancel,
// else on the dispatcher. Nothing here blocks without a typed way out,
// and nothing crashes on overload or shutdown.
//
// Counters (tabrep.serve.*): requests, cache.hit, cache.miss,
// coalesced, encoded, shed; histogram batch.size records how many
// tables each dispatcher wakeup carried.
//
// Weights are immutable {model, version} snapshots owned by the
// cluster. Each Submit carries the snapshot the request encodes
// under, so a request admitted under version V encodes under V even if
// V+1 is published before its batch runs. The snapshot version is mixed
// into the cache key (entries from old weights become unreachable,
// never served stale) and echoed in EncodedTable::weights_version so
// clients can observe a rollover.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
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

/// One immutable generation of model weights, shared by every shard.
/// The serving layer never mutates a model it encodes with after
/// eval-mode setup (graph-free inference only reads it, from any
/// number of threads); swapping generations means swapping the
/// pointer, so readers holding the old snapshot finish on the old
/// weights (copy-on-write).
struct WeightsSnapshot {
  std::shared_ptr<models::TableEncoderModel> model;
  uint64_t version = 1;
};

using WeightsSnapshotPtr = std::shared_ptr<const WeightsSnapshot>;

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
  /// LRU capacity in entries; 0 disables caching.
  int64_t cache_capacity = 256;
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
/// or unparsable. Shared by OptionsFromEnv, ClusterOptionsFromEnv and
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

/// Completion callback of an encode Submit. Runs exactly once,
/// either inline in Submit (possibly under the cluster's routing lock)
/// or on a dispatcher thread, so it must be cheap, must not block and
/// must not call back into the cluster.
using EncodeCallback = std::function<void(StatusOr<EncodedTablePtr>)>;

/// One shard of a serve::Cluster: queue, coalescing, cache, dispatcher
/// and heartbeat. The destructor drains every accepted request (running
/// its callback) before joining the dispatcher.
class BatchedEncoder {
 public:
  explicit BatchedEncoder(BatchedEncoderOptions options = {});
  ~BatchedEncoder();

  BatchedEncoder(const BatchedEncoder&) = delete;
  BatchedEncoder& operator=(const BatchedEncoder&) = delete;

  /// Non-blocking admission of one request the cluster routed here:
  /// serves cache hits immediately, coalesces onto an identical
  /// in-flight request, or enqueues a copy for the dispatcher. COPIES
  /// the table — the caller need not keep `input` alive after the call
  /// returns. `table_hash` is HashTokenizedTable(input) and `snapshot`
  /// the weights generation the request encodes under (copied only if
  /// the request is queued); both go into the cache key. A non-zero `key_salt` (the router's steal salt)
  /// keeps this shard's cache and coalescing keyspace for stolen
  /// requests disjoint from its home-routed traffic, so stealing
  /// changes only *where* a table is encoded, never what any cache
  /// serves for the home key. `done` gets:
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
  void Submit(const TokenizedTable& input, uint64_t table_hash,
              uint64_t key_salt, const WeightsSnapshotPtr& snapshot,
              obs::RequestContext* trace, kernels::Precision precision,
              EncodeCallback done);

  const EncodeCache& cache() const { return cache_; }

  /// Distinct tables waiting for the dispatcher right now (kHealth
  /// wire probes report this; it is racy by nature, like any depth).
  int64_t queue_depth() const;

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
    /// The weights generation the cluster captured at Submit time: the
    /// dispatcher encodes with exactly this model even if a newer
    /// snapshot is published while the request waits (never-torn
    /// reloads).
    WeightsSnapshotPtr snapshot;
    std::vector<Waiter> waiters;
    obs::RequestContext::TimePoint dequeued{};
    obs::RequestContext::TimePoint encode_start{};
    obs::RequestContext::TimePoint encode_end{};
    int64_t batch_size = 0;
  };

  void DispatcherLoop();

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
