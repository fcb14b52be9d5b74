#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared plumbing of the end-to-end benchmark: clocks, order
// statistics, the benchmark's own span log, registry reads, the check
// log, and the per-run result every workload fills in.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Steady-clock time of process start (taken during static
/// initialization, before main), the origin of setup_s.
Clock::time_point ProcessStart();

inline double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
inline double Sec(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline int64_t Ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for empty.
double Quantile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);

/// Median over consecutive windows of `window` samples (in order) of
/// each window's q-quantile; the plain q-quantile when no window is
/// full. The benchmark's tails and throughputs are such medians, so
/// one stalled stretch of a shared machine moves one window, not the
/// run's figure.
double WindowedQuantile(const std::vector<double>& v, size_t window, double q);

/// Counter-based generator: a well-mixed 64-bit value for (seed, i),
/// so any thread can derive request i's inputs without shared state.
uint64_t Mix64(uint64_t seed, uint64_t i);
/// Mix64 mapped to [0, 1).
double UnitDouble(uint64_t seed, uint64_t i);

/// 64-bit FNV-1a over 8-byte words (plus a byte tail); used to compare
/// encodings bitwise without keeping them.
uint64_t HashBytes(const void* data, size_t bytes);

/// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();

// ---------------------------------------------------------------------------
// Benchmark-side spans. Each span has a name, start, end, parent (the
// span open on the same thread when it began, or an explicit parent)
// and a request id shared by the spans of one request. Spans are kept
// in per-thread memory while enabled and written out when the run
// ends; disabled, a span costs one relaxed load.
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name = nullptr;  // static string
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // 0 = not request-scoped
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

namespace spans {

void SetEnabled(bool enabled);
bool Enabled();
/// The innermost ScopedSpan open on this thread (0 if none).
uint64_t Current();
/// Records an already-finished span (send/receive pairs measured
/// around blocking calls).
void Record(const char* name, Clock::time_point start, Clock::time_point end,
            uint64_t request = 0, uint64_t parent = 0);
std::vector<SpanRecord> Collect();

/// Per-name totals with self time = duration minus the union of the
/// intervals its child spans cover.
struct SpanStats {
  uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};
std::map<std::string, SpanStats> Aggregate(const std::vector<SpanRecord>& all);

}  // namespace spans

/// RAII span; parents itself to the innermost open span on the thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t request_ = 0;
  Clock::time_point start_{};
};

// ---------------------------------------------------------------------------
// Program registry reads (tabrep::obs::Registry).
// ---------------------------------------------------------------------------

uint64_t CounterValue(const char* name);
struct HistSummary {
  double mean = 0.0;
  double p99 = 0.0;
};
HistSummary HistogramValue(const char* name);

/// Per-op self time and calls of the library's compiled-in spans
/// (tabrep::obs trace buffers), keyed by span name.
struct ProgramSpan {
  uint64_t calls = 0;
  double self_us = 0.0;
};
std::map<std::string, ProgramSpan> ProgramSpanTotals();

// ---------------------------------------------------------------------------
// Output checks. Every check is run on the real outputs (must pass) and
// again on a copy with one output corrupted (must fail), which shows
// the check can fail at all.
// ---------------------------------------------------------------------------

class CheckLog {
 public:
  /// `error` empty means the check passed.
  void Real(const std::string& name, const std::string& error);
  /// `error` is the same check's verdict on a corrupted copy; it must
  /// be non-empty.
  void Corrupted(const std::string& name, const std::string& error);
  bool all_ok() const;
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    bool corrupted = false;
    std::string error;
  };
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Run plumbing.
// ---------------------------------------------------------------------------

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> layers;
  CheckLog checks;
  /// Free-form per-run notes for the report (model sizes, counts).
  std::map<std::string, double> notes;
  /// The library's spans over the traced phase (traced runs only).
  std::map<std::string, ProgramSpan> program_spans;
};

/// Stage timer feeding setup.* layer metrics.
class SetupClock {
 public:
  SetupClock() : last_(Clock::now()) {}
  /// Seconds since the previous Lap (or construction).
  double Lap() {
    const Clock::time_point now = Clock::now();
    const double s = Sec(now - last_);
    last_ = now;
    return s;
  }

 private:
  Clock::time_point last_;
};

/// JSON number with every significant digit.
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
