#ifndef TABREP_OBS_DIFF_H_
#define TABREP_OBS_DIFF_H_

// Bench-trajectory regression gate: compares two BENCH_<id>.json
// reports (the obs::WriteReport schema — metrics registry + per-op
// tracing profile) and flags regressions beyond configurable
// thresholds. The tools/bench_diff CLI and the ctest gate are thin
// wrappers over DiffBenchReports.

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace tabrep::obs {

struct BenchDiffOptions {
  /// Maximum allowed relative increase of a histogram's p95 before it
  /// counts as a violation (0.20 = +20%).
  double max_p95_regress = 0.20;
  /// Maximum allowed relative increase of a profile op's total time.
  double max_total_regress = 0.20;
  /// Maximum allowed relative increase of a counter. Counters measure
  /// deterministic work (calls, elements), so run-to-run growth means
  /// the workload itself regressed — keep this tight.
  double max_counter_regress = 0.01;
  /// Timing entries with an old value below this many microseconds
  /// (histograms) / milliseconds (profile totals) are reported but
  /// never gate: they sit inside scheduler noise.
  double min_gate_value = 50.0;
  /// Counters whose name starts with one of these prefixes also get an
  /// absolute slack: growth within `noisy_counter_slack` units never
  /// gates, whatever the relative change. The serving counters need
  /// this — whether a request coalesces vs hits the cache moves a few
  /// hundred counts between runs (the hit/miss *sum* is
  /// workload-invariant; only the split shifts) — while a real
  /// regression moves thousands and still fails. The net counters are
  /// on the list because the overload phase's ok/shed split (and with
  /// it bytes.out) shifts by a couple of requests depending on
  /// completion timing. The scratch-arena counters (tabrep.mem.) are
  /// not: the bytes a workload asks of the arena do not depend on which
  /// thread asks, so they repeat exactly and gate at the plain +1%.
  /// "tabrep.serve.stage." is already inside "tabrep.serve." but is
  /// listed on its own so the stage-histogram instrumentation keeps
  /// its slack even if the serve-wide entry is ever tightened.
  /// "tabrep.bench." covers the directly measured throughput gauges a
  /// bench records into its own report (m1's matmul GOPS/speedup):
  /// they are machine-speed numbers, not workload counts, so they get
  /// the noisy-gauge treatment — the floor they must clear is enforced
  /// by a dedicated committed-artifact gate instead.
  /// "tabrep.cluster." covers the router's routed/steal split: whether
  /// a given request steals depends on instantaneous queue depths, so
  /// the split (never the sum) wobbles run-to-run exactly like the
  /// serve cache hit/miss split does.
  std::vector<std::string> noisy_counter_prefixes = {
      "tabrep.serve.", "tabrep.serve.stage.", "tabrep.net.", "tabrep.bench.",
      "tabrep.cluster."};
  double noisy_counter_slack = 512.0;
  /// Gauges compare with the counter threshold, but a noisy-prefix
  /// gauge gets this absolute slack instead of noisy_counter_slack:
  /// gauges are rates/levels, not cumulative counts, so a count-sized
  /// allowance would never gate anything. 0.2 lets a shed *rate*
  /// (fraction of sent — the reason bench_s2 reports a fraction, not a
  /// raw count) wobble with completion timing at any workload size
  /// while still failing on gross regressions.
  double noisy_gauge_slack = 0.2;
};

/// One compared entry. `change` is (new - old) / old; +inf when old
/// was 0 and new is not.
struct BenchDiffLine {
  std::string kind;  // "counter" | "hist.p95" | "profile.total_ms" | ...
  std::string name;
  double old_value = 0.0;
  double new_value = 0.0;
  double change = 0.0;
  bool violation = false;
};

struct BenchDiffReport {
  std::string old_label;
  std::string new_label;
  std::vector<BenchDiffLine> lines;
  /// Entries present in only one report (new instrumentation or
  /// removed ops) — informational, never violations.
  std::vector<std::string> unmatched;

  bool ok() const {
    for (const BenchDiffLine& line : lines) {
      if (line.violation) return false;
    }
    return true;
  }
  int64_t violations() const {
    int64_t n = 0;
    for (const BenchDiffLine& line : lines) n += line.violation ? 1 : 0;
    return n;
  }
};

/// Parses and compares two reports. Corruption when either input is
/// not a WriteReport-shaped JSON document.
Result<BenchDiffReport> DiffBenchReports(std::string_view old_json,
                                         std::string_view new_json,
                                         const BenchDiffOptions& options = {});

/// Aligned text rendering: violations first, then the largest moves;
/// `max_lines` caps the non-violation tail (0 = everything).
std::string RenderBenchDiff(const BenchDiffReport& report,
                            int64_t max_lines = 20);

}  // namespace tabrep::obs

#endif  // TABREP_OBS_DIFF_H_
