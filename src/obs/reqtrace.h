#ifndef TABREP_OBS_REQTRACE_H_
#define TABREP_OBS_REQTRACE_H_

// Request-scoped tracing for the serving stack (ISSUE 7 tentpole). A
// RequestContext rides one request from the network front-end through
// serve::BatchedEncoder's dispatcher and back: each layer stamps the
// monotonic time of the stage boundary it owns, and when the response
// leaves the process the stamps collapse into per-stage latency
// histograms (tabrep.serve.stage.*.us) and, optionally, one JSONL
// access-log line.
//
// The stamp chain and who writes each stamp (see DESIGN.md "Request
// tracing: who stamps what"):
//
//   received      event loop   request frame fully reassembled
//   admitted      event loop   admission checks passed
//   decoded       event loop   payload parsed into a TokenizedTable
//   dequeued      dispatcher   the request's batch popped off the queue
//   encode_start  dispatcher   linger/delay over, inference begins
//   encode_end    dispatcher   inference done for the whole batch
//   serialized    event loop   response payload bytes ready
//   written       event loop   response bytes handed to the socket
//
// plus one side stamp inside the serialize stage, not a link of the
// chain:
//
//   drained       event loop   completion picked up by DrainCompletions
//
// Stage durations are consecutive stamp deltas, clamped to >= 0 (a
// coalesced request can attach to a Pending after its batch was
// dequeued, making its own queue-wait negative; zero is the honest
// reading). Fast paths that skip the dispatcher — cache hits, sheds,
// shutdown — stamp the dispatcher triple to the Submit call time so
// the queue/batch/inference stages read as ~zero instead of garbage.
//
// Layering: obs depends only on common. serve and net both write into
// RequestContext; neither is referenced here.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

#include "common/status.h"

namespace tabrep::obs {

/// Per-request trace state. Owned by whoever created the request (the
/// net::Server shares it with the completion callback and keeps it
/// alive until the response is written); written by the event loop and
/// the dispatcher at disjoint times, with whatever the Submit callback
/// hands the result through (the server's completion mutex, or a
/// future) as the synchronizing edge.
struct RequestContext {
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  uint64_t request_id = 0;  // process-unique, assigned by the server
  uint64_t conn_id = 0;
  uint32_t seq = 0;

  TimePoint received{};
  TimePoint admitted{};
  TimePoint decoded{};
  TimePoint dequeued{};
  TimePoint encode_start{};
  TimePoint encode_end{};
  TimePoint drained{};  // side stamp: splits serialize, see handoff_us
  TimePoint serialized{};
  TimePoint written{};

  /// Tables in the dispatcher batch this request rode in; 0 when the
  /// request never reached a batch (cache hit, shed, shutdown).
  int64_t batch_size = 0;
  bool cache_hit = false;
  /// True once the request entered BatchedEncoder::Submit (stage
  /// histograms are recorded only for submitted, successful requests).
  bool submitted = false;
  StatusCode status = StatusCode::kOk;
};

/// The collapsed per-stage durations, microseconds. Each value is the
/// delta between consecutive stamps in chain order, clamped to >= 0;
/// an unstamped stage (default-constructed TimePoint) contributes 0
/// and does not advance the chain. `serialize` deliberately includes
/// the completion handoff (dispatcher callback -> eventfd -> event
/// loop) so the stage sum accounts for the full request path;
/// `handoff_us` reports that part of it on its own and is not added
/// into `total_us`.
struct StageBreakdown {
  double admission_us = 0.0;  // received  -> admitted
  double decode_us = 0.0;     // admitted  -> decoded
  double queue_us = 0.0;      // decoded   -> dequeued
  double batch_us = 0.0;      // dequeued  -> encode_start
  double inference_us = 0.0;  // encode_start -> encode_end
  double serialize_us = 0.0;  // encode_end -> serialized (incl. handoff)
  double write_us = 0.0;      // serialized -> written
  double total_us = 0.0;      // received  -> last stamped boundary
  /// encode_end -> drained, clamped to >= 0; 0 unless both are
  /// stamped. A sub-stage of serialize_us: the rest of serialize_us
  /// is the wait behind earlier completions of the same drain and the
  /// payload encoding.
  double handoff_us = 0.0;
};

StageBreakdown ComputeStages(const RequestContext& ctx);

/// Records the breakdown into the tabrep.serve.stage.{admission,
/// decode,queue,batch,inference,serialize,write,handoff}.us histograms. The
/// caller decides policy; net::Server records only submitted requests
/// that were answered OK, so sheds cannot dilute the stage means.
void RecordStageMetrics(const RequestContext& ctx);

/// Append-only JSONL access log, one line per finished request (every
/// request, including sheds and protocol rejects — the log is the
/// forensic record, the histograms are the aggregate). Thread-safe;
/// an empty path (or the default constructor) disables it.
class AccessLog {
 public:
  AccessLog() = default;
  explicit AccessLog(const std::string& path);
  ~AccessLog();

  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  bool enabled() const { return file_ != nullptr; }
  void Append(const RequestContext& ctx);

  /// Flushes stdio buffers AND fsyncs the fd, so every line appended
  /// so far survives a process kill. Called by net::Server::Stop()
  /// (and the destructor) — Append's own fflush makes lines visible to
  /// other processes but does not force them to disk.
  void Flush();

  /// The line Append writes (no trailing newline): one JSON object
  /// with request_id/conn/seq/status/cache_hit/batch_size/total_us and
  /// a stages_us sub-object keyed by stage name. Exposed so tests can
  /// pin the schema without filesystem round-trips.
  static std::string FormatLine(const RequestContext& ctx);

 private:
  std::FILE* file_ = nullptr;
  std::mutex mu_;
};

}  // namespace tabrep::obs

#endif  // TABREP_OBS_REQTRACE_H_
