#include "obs/reqtrace.h"

#include <unistd.h>

#include <string>

#include "common/logging.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace tabrep::obs {

namespace {

/// Microseconds from `from` to `to`, clamped to >= 0. Advances *last
/// past `to` only when the stamp is set, so an unstamped stage reads 0
/// without corrupting the stages after it.
double StageUs(RequestContext::TimePoint* last, RequestContext::TimePoint to) {
  if (to == RequestContext::TimePoint{}) return 0.0;
  const double us =
      std::chrono::duration<double, std::micro>(to - *last).count();
  *last = to;
  return us < 0.0 ? 0.0 : us;
}

}  // namespace

StageBreakdown ComputeStages(const RequestContext& ctx) {
  StageBreakdown out;
  RequestContext::TimePoint last = ctx.received;
  out.admission_us = StageUs(&last, ctx.admitted);
  out.decode_us = StageUs(&last, ctx.decoded);
  out.queue_us = StageUs(&last, ctx.dequeued);
  out.batch_us = StageUs(&last, ctx.encode_start);
  out.inference_us = StageUs(&last, ctx.encode_end);
  out.serialize_us = StageUs(&last, ctx.serialized);
  out.write_us = StageUs(&last, ctx.written);
  if (last != RequestContext::TimePoint{} &&
      ctx.received != RequestContext::TimePoint{}) {
    const double total =
        std::chrono::duration<double, std::micro>(last - ctx.received).count();
    out.total_us = total < 0.0 ? 0.0 : total;
  }
  if (ctx.encode_end != RequestContext::TimePoint{}) {
    RequestContext::TimePoint from = ctx.encode_end;
    out.handoff_us = StageUs(&from, ctx.drained);
  }
  return out;
}

void RecordStageMetrics(const RequestContext& ctx) {
  // Lookup is mutex-guarded; cache the references once (same idiom as
  // every other hot-path instrument in the tree).
  static Histogram& admission =
      Registry::Get().histogram("tabrep.serve.stage.admission.us");
  static Histogram& decode =
      Registry::Get().histogram("tabrep.serve.stage.decode.us");
  static Histogram& queue =
      Registry::Get().histogram("tabrep.serve.stage.queue.us");
  static Histogram& batch =
      Registry::Get().histogram("tabrep.serve.stage.batch.us");
  static Histogram& inference =
      Registry::Get().histogram("tabrep.serve.stage.inference.us");
  static Histogram& serialize =
      Registry::Get().histogram("tabrep.serve.stage.serialize.us");
  static Histogram& write =
      Registry::Get().histogram("tabrep.serve.stage.write.us");
  static Histogram& handoff =
      Registry::Get().histogram("tabrep.serve.stage.handoff.us");

  const StageBreakdown stages = ComputeStages(ctx);
  admission.Record(stages.admission_us);
  decode.Record(stages.decode_us);
  queue.Record(stages.queue_us);
  batch.Record(stages.batch_us);
  inference.Record(stages.inference_us);
  serialize.Record(stages.serialize_us);
  write.Record(stages.write_us);
  handoff.Record(stages.handoff_us);
}

AccessLog::AccessLog(const std::string& path) {
  if (path.empty()) return;
  file_ = std::fopen(path.c_str(), "a");
  if (file_ == nullptr) {
    TABREP_LOG(Warning) << "access log disabled: cannot open " << path;
  }
}

AccessLog::~AccessLog() {
  if (file_ == nullptr) return;
  Flush();
  std::fclose(file_);
}

void AccessLog::Flush() {
  if (file_ == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  std::fflush(file_);
  // fsync so a kill -9 immediately after shutdown cannot lose the tail
  // of the log; the shutdown path is the only caller, so the cost is
  // off the request path.
  fsync(fileno(file_));
}

std::string AccessLog::FormatLine(const RequestContext& ctx) {
  const StageBreakdown stages = ComputeStages(ctx);
  std::string line = "{\"request_id\":";
  line += std::to_string(ctx.request_id);
  line += ",\"conn\":";
  line += std::to_string(ctx.conn_id);
  line += ",\"seq\":";
  line += std::to_string(ctx.seq);
  line += ",\"status\":\"";
  line += JsonEscape(StatusCodeName(ctx.status));
  line += "\",\"cache_hit\":";
  line += ctx.cache_hit ? "true" : "false";
  line += ",\"batch_size\":";
  line += std::to_string(ctx.batch_size);
  line += ",\"total_us\":";
  line += JsonNumber(stages.total_us);
  line += ",\"stages_us\":{\"admission\":";
  line += JsonNumber(stages.admission_us);
  line += ",\"decode\":";
  line += JsonNumber(stages.decode_us);
  line += ",\"queue\":";
  line += JsonNumber(stages.queue_us);
  line += ",\"batch\":";
  line += JsonNumber(stages.batch_us);
  line += ",\"inference\":";
  line += JsonNumber(stages.inference_us);
  line += ",\"serialize\":";
  line += JsonNumber(stages.serialize_us);
  line += ",\"write\":";
  line += JsonNumber(stages.write_us);
  line += ",\"handoff\":";
  line += JsonNumber(stages.handoff_us);
  line += "}}";
  return line;
}

void AccessLog::Append(const RequestContext& ctx) {
  if (file_ == nullptr) return;
  std::string line = FormatLine(ctx);
  line += '\n';
  std::lock_guard<std::mutex> lock(mu_);
  std::fwrite(line.data(), 1, line.size(), file_);
  // One flush per request keeps the log readable by external probes
  // (and tests) while the server is still running; the serialization
  // cost is noise next to an encode.
  std::fflush(file_);
}

}  // namespace tabrep::obs
