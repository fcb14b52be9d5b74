// bench_diff — the bench-trajectory regression gate.
//
// Compares two BENCH_<id>.json reports (written by obs::WriteReport)
// and exits non-zero when the new report regresses past the
// thresholds: counter growth means the workload itself changed
// (gated tightly), timing growth is gated loosely with a noise floor.
//
// Usage:
//   bench_diff [flags] OLD.json NEW.json
//     --max-p95-regress=0.20      histogram p95 threshold (fraction)
//     --max-total-regress=0.20    profile total_ms threshold
//     --max-counter-regress=0.01  counter threshold
//     --min-gate=50               noise floor (us hist / ms*1e-3 profile)
//     --noisy-counter-slack=512   absolute growth allowed on tabrep.serve.* /
//                                 tabrep.net.* / tabrep.cluster.* counters
//                                 before gating
//     --noisy-gauge-slack=0.2     absolute growth allowed on noisy-prefix
//                                 gauges (rates/levels, e.g. the bench_s2
//                                 shed-rate fraction) before gating
//     --max-lines=20              rendered non-violation rows (0 = all)
//
// Exit codes: 0 = no regressions, 1 = regressions found,
//             2 = usage / unreadable / malformed input.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/diff.h"

namespace {

bool ReadWholeFile(const char* path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

bool ParseDoubleFlag(const char* arg, const char* name, double* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  char* end = nullptr;
  const double v = std::strtod(arg + len + 1, &end);
  if (end == arg + len + 1 || *end != '\0') {
    std::fprintf(stderr, "bench_diff: bad value in '%s'\n", arg);
    std::exit(2);
  }
  *out = v;
  return true;
}

void Usage() {
  std::fprintf(stderr,
               "usage: bench_diff [--max-p95-regress=F] [--max-total-regress=F]"
               " [--max-counter-regress=F] [--min-gate=F]"
               " [--noisy-counter-slack=F] [--noisy-gauge-slack=F]"
               " [--max-lines=N]"
               " OLD.json NEW.json\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  tabrep::obs::BenchDiffOptions options;
  double max_lines = 20;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) {
      positional.push_back(arg);
      continue;
    }
    if (ParseDoubleFlag(arg, "--max-p95-regress",
                        &options.max_p95_regress) ||
        ParseDoubleFlag(arg, "--max-total-regress",
                        &options.max_total_regress) ||
        ParseDoubleFlag(arg, "--max-counter-regress",
                        &options.max_counter_regress) ||
        ParseDoubleFlag(arg, "--min-gate", &options.min_gate_value) ||
        ParseDoubleFlag(arg, "--noisy-counter-slack",
                        &options.noisy_counter_slack) ||
        ParseDoubleFlag(arg, "--noisy-gauge-slack",
                        &options.noisy_gauge_slack) ||
        ParseDoubleFlag(arg, "--max-lines", &max_lines)) {
      continue;
    }
    std::fprintf(stderr, "bench_diff: unknown flag '%s'\n", arg);
    Usage();
  }
  if (positional.size() != 2) Usage();

  std::string old_json, new_json;
  if (!ReadWholeFile(positional[0], &old_json)) {
    std::fprintf(stderr, "bench_diff: cannot read %s\n", positional[0]);
    return 2;
  }
  if (!ReadWholeFile(positional[1], &new_json)) {
    std::fprintf(stderr, "bench_diff: cannot read %s\n", positional[1]);
    return 2;
  }

  tabrep::Result<tabrep::obs::BenchDiffReport> diff =
      tabrep::obs::DiffBenchReports(old_json, new_json, options);
  if (!diff.ok()) {
    std::fprintf(stderr, "bench_diff: %s\n", diff.status().ToString().c_str());
    return 2;
  }
  std::printf("%s", tabrep::obs::RenderBenchDiff(
                        *diff, static_cast<int64_t>(max_lines))
                        .c_str());
  return diff->ok() ? 0 : 1;
}
