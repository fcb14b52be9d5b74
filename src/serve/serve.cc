#include "serve/serve.h"

#include <chrono>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "tensor/autograd.h"

namespace tabrep::serve {

namespace {

inline void HashMix(uint64_t& h, uint64_t v) {
  // FNV-1a over the value's bytes, 8 at a time.
  h ^= v;
  h *= 0x100000001b3ull;
}

obs::Counter& RequestsCounter() {
  static obs::Counter& c =
      obs::Registry::Get().counter("tabrep.serve.requests");
  return c;
}
obs::Counter& CacheHitCounter() {
  static obs::Counter& c =
      obs::Registry::Get().counter("tabrep.serve.cache.hit");
  return c;
}
obs::Counter& CacheMissCounter() {
  static obs::Counter& c =
      obs::Registry::Get().counter("tabrep.serve.cache.miss");
  return c;
}
obs::Counter& CoalescedCounter() {
  static obs::Counter& c =
      obs::Registry::Get().counter("tabrep.serve.coalesced");
  return c;
}
obs::Counter& EncodedCounter() {
  static obs::Counter& c = obs::Registry::Get().counter("tabrep.serve.encoded");
  return c;
}
obs::Counter& ShedCounter() {
  static obs::Counter& c = obs::Registry::Get().counter("tabrep.serve.shed");
  return c;
}

}  // namespace

int64_t EnvInt64(const char* name, int64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(env, &end, 10);
  if (end == env) return fallback;
  return static_cast<int64_t>(v);
}

std::string EnvString(const char* name, std::string fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  return env;
}

BatchedEncoderOptions OptionsFromEnv() {
  BatchedEncoderOptions options;
  options.max_batch = EnvInt64("TABREP_SERVE_MAX_BATCH", options.max_batch);
  options.max_wait_us =
      EnvInt64("TABREP_SERVE_MAX_WAIT_US", options.max_wait_us);
  options.cache_capacity =
      EnvInt64("TABREP_ENCODE_CACHE", options.cache_capacity);
  options.max_queue = EnvInt64("TABREP_SERVE_MAX_QUEUE", options.max_queue);
  return options;
}

uint64_t HashTokenizedTable(const TokenizedTable& input) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  HashMix(h, static_cast<uint64_t>(input.tokens.size()));
  for (const TokenInfo& tok : input.tokens) {
    HashMix(h, (static_cast<uint64_t>(static_cast<uint32_t>(tok.id)) << 32) |
                   static_cast<uint32_t>(tok.row));
    HashMix(h,
            (static_cast<uint64_t>(static_cast<uint32_t>(tok.column)) << 32) |
                static_cast<uint32_t>(tok.segment));
    HashMix(h, (static_cast<uint64_t>(static_cast<uint32_t>(tok.kind)) << 32) |
                   static_cast<uint32_t>(tok.rank));
    HashMix(h, static_cast<uint64_t>(static_cast<uint32_t>(tok.entity_id)));
  }
  HashMix(h, static_cast<uint64_t>(input.cells.size()));
  for (const CellSpan& cell : input.cells) {
    HashMix(h, (static_cast<uint64_t>(static_cast<uint32_t>(cell.row)) << 32) |
                   static_cast<uint32_t>(cell.col));
    HashMix(h,
            (static_cast<uint64_t>(static_cast<uint32_t>(cell.begin)) << 32) |
                static_cast<uint32_t>(cell.end));
    HashMix(h, static_cast<uint64_t>(static_cast<uint32_t>(cell.entity_id)));
  }
  HashMix(h, static_cast<uint64_t>(input.used_rows));
  HashMix(h, static_cast<uint64_t>(input.used_columns));
  return h;
}

EncodeCache::EncodeCache(std::size_t capacity) : capacity_(capacity) {}

EncodedTablePtr EncodeCache::Get(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // promote, iterator stays valid
  return it->second->value;
}

void EncodeCache::Put(uint64_t key, EncodedTablePtr value) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(value)});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

std::size_t EncodeCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

BatchedEncoder::BatchedEncoder(BatchedEncoderOptions options)
    : options_(options),
      cache_(static_cast<std::size_t>(
          std::max<int64_t>(0, options.cache_capacity))) {
  TABREP_CHECK(options_.max_batch >= 1) << "max_batch must be >= 1";
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

BatchedEncoder::~BatchedEncoder() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  dispatcher_.join();
}

void BatchedEncoder::Submit(const TokenizedTable& input, uint64_t table_hash,
                            uint64_t key_salt,
                            const WeightsSnapshotPtr& snapshot,
                            obs::RequestContext* trace,
                            kernels::Precision precision,
                            EncodeCallback done) {
  RequestsCounter().Increment();
  if (trace != nullptr) trace->submitted = true;
  // Fast paths resolve here without ever touching the dispatcher;
  // stamp the dispatcher triple to "now" so every stage downstream of
  // the queue reads as ~zero rather than unstamped.
  const auto StampFastPath = [&trace] {
    if (trace == nullptr) return;
    const auto now = obs::RequestContext::Clock::now();
    trace->dequeued = now;
    trace->encode_start = now;
    trace->encode_end = now;
  };
  // Everything downstream — cache key, coalescing partner, the model
  // the dispatcher runs — derives from the one snapshot the cluster
  // captured for this request, so a publish racing it flips the whole
  // request to one side or the other, never a torn mix.
  //
  // f32 requests keep the bare table hash (the key committed baselines
  // and older callers observe); int8 salts it so the two precisions
  // cache and coalesce independently. The snapshot version is mixed in
  // only past the initial generation, keeping single-generation keys
  // (and any test pinning them) stable: after a reload the old
  // generation's cache entries become unreachable — stale weights are
  // never served, without an eager cache flush. A router steal salt
  // (see Submit's contract) partitions the keyspace further.
  uint64_t key = table_hash;
  if (precision == kernels::Precision::kInt8) {
    HashMix(key, 0x38746e69ull);  // "int8"
  }
  if (snapshot->version != 1) HashMix(key, snapshot->version);
  if (key_salt != 0) HashMix(key, key_salt);
  if (EncodedTablePtr cached = cache_.Get(key)) {
    CacheHitCounter().Increment();
    if (trace != nullptr) trace->cache_hit = true;
    StampFastPath();
    done(std::move(cached));
    return;
  }
  CacheMissCounter().Increment();

  Status rejected;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(key);
    if (stop_) {
      rejected = Status::Cancelled("Submit after BatchedEncoder shutdown");
    } else if (it != inflight_.end()) {
      // Same table already queued or being encoded: attach to it.
      // Coalescing adds no encode work, so it bypasses the admission
      // bound.
      CoalescedCounter().Increment();
      it->second->waiters.push_back(Waiter{std::move(done), trace});
      return;
    } else if (options_.max_queue > 0 &&
               static_cast<int64_t>(queue_.size()) >= options_.max_queue) {
      ShedCounter().Increment();
      rejected = Status::Overloaded("encode queue full");
    } else {
      auto pending = std::make_shared<Pending>();
      pending->key = key;
      pending->table = input;  // the documented copy
      pending->precision = precision;
      pending->snapshot = snapshot;
      pending->waiters.push_back(Waiter{std::move(done), trace});
      inflight_[key] = pending;
      queue_.push_back(std::move(pending));
    }
  }
  if (rejected.ok()) {
    work_cv_.notify_one();
    return;
  }
  // Shed or shutdown: answered inline, after mu_ is released.
  StampFastPath();
  done(std::move(rejected));
}

int64_t BatchedEncoder::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(queue_.size());
}

void BatchedEncoder::DispatcherLoop() {
  static obs::Histogram& batch_size =
      obs::Registry::Get().histogram("tabrep.serve.batch.size");
  while (true) {
    // Liveness beacon (ISSUE 8): one beat per iteration and per idle
    // wakeup. A batch that wedges (runaway inference, injected
    // dispatch_delay_us) stops the beats, and the watchdog's deadman
    // turns the growing lag into a dispatcher_stall health reason.
    heartbeat_.Beat();
    std::vector<std::shared_ptr<Pending>> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (!stop_ && queue_.empty()) {
        work_cv_.wait_for(lock, std::chrono::milliseconds(100),
                          [&] { return stop_ || !queue_.empty(); });
        heartbeat_.Beat();
      }
      if (queue_.empty()) return;  // stop requested and fully drained
      if (options_.max_wait_us > 0 &&
          static_cast<int64_t>(queue_.size()) < options_.max_batch) {
        // Linger briefly so concurrent clients can fill the batch.
        // Only the batch composition depends on this timing, never the
        // encoded values.
        work_cv_.wait_for(
            lock, std::chrono::microseconds(options_.max_wait_us), [&] {
              return stop_ ||
                     static_cast<int64_t>(queue_.size()) >= options_.max_batch;
            });
      }
      const int64_t n =
          std::min<int64_t>(options_.max_batch,
                            static_cast<int64_t>(queue_.size()));
      batch.assign(queue_.begin(), queue_.begin() + n);
      queue_.erase(queue_.begin(), queue_.begin() + n);
    }

    // Stage stamps (ISSUE 7): dequeued -> encode_start is the
    // batch-wait (linger already happened under the lock; the
    // dispatch_delay_us stall lands here, which is what the reqtrace
    // tests measure), encode_start -> encode_end is inference for the
    // whole batch. Only the dispatcher writes these; waiters read them
    // after their callback runs.
    {
      const auto now = obs::RequestContext::Clock::now();
      for (const auto& p : batch) p->dequeued = now;
    }

    if (options_.dispatch_delay_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.dispatch_delay_us));
    }

    const int64_t n = static_cast<int64_t>(batch.size());
    batch_size.Record(static_cast<double>(n));
    {
      const auto now = obs::RequestContext::Clock::now();
      for (const auto& p : batch) {
        p->encode_start = now;
        p->batch_size = n;
      }
    }
    std::vector<EncodedTablePtr> results(static_cast<size_t>(n));
    runtime::ParallelFor(0, n, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        Pending& p = *batch[static_cast<size_t>(i)];
        ag::NoGradScope no_grad;
        Rng rng(0);  // inference draws nothing from it (dropout is off)
        models::EncodeOptions opts;
        opts.need_cells = options_.need_cells;
        opts.inference = true;
        opts.precision = p.precision;
        // The snapshot captured at Submit time: a publish that landed
        // while this request was queued must not retroactively change
        // what it encodes with.
        models::Encoded enc = p.snapshot->model->Encode(p.table, rng, opts);
        auto result = std::make_shared<EncodedTable>();
        result->precision = p.precision;
        result->weights_version = p.snapshot->version;
        result->hidden = enc.hidden.value();
        if (enc.has_cells) {
          result->cells = enc.cells.value();
          result->has_cells = true;
        }
        results[static_cast<size_t>(i)] = std::move(result);
      }
    });
    EncodedCounter().Increment(static_cast<uint64_t>(n));
    {
      const auto now = obs::RequestContext::Clock::now();
      for (const auto& p : batch) p->encode_end = now;
    }

    for (int64_t i = 0; i < n; ++i) {
      cache_.Put(batch[static_cast<size_t>(i)]->key,
                 results[static_cast<size_t>(i)]);
    }
    // Detach each Pending from the coalescing map before fulfilling its
    // waiters: once inflight_ no longer holds the key, new Submits for
    // the same table hit the cache (already Put above) instead of
    // attaching to a Pending whose callbacks are being run.
    std::vector<std::vector<Waiter>> waiters(static_cast<size_t>(n));
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (int64_t i = 0; i < n; ++i) {
        Pending& p = *batch[static_cast<size_t>(i)];
        inflight_.erase(p.key);
        waiters[static_cast<size_t>(i)] = std::move(p.waiters);
      }
    }
    for (int64_t i = 0; i < n; ++i) {
      const Pending& p = *batch[static_cast<size_t>(i)];
      for (Waiter& waiter : waiters[static_cast<size_t>(i)]) {
        // Copy the batch stamps into the waiter's trace BEFORE the
        // callback: whatever hands the result on from there (a
        // promise, the server's completion mutex) is the
        // happens-before edge that publishes them.
        if (waiter.trace != nullptr) {
          waiter.trace->dequeued = p.dequeued;
          waiter.trace->encode_start = p.encode_start;
          waiter.trace->encode_end = p.encode_end;
          waiter.trace->batch_size = p.batch_size;
        }
        waiter.done(results[static_cast<size_t>(i)]);
      }
    }
  }
}

}  // namespace tabrep::serve
