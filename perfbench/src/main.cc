// perfbench — the repository's end-to-end benchmark program.
//
//   perfbench --workload serve_cold|serve_hot|pretrain|search
//             --seed N --seconds S --trace 0|1 [--out DIR]
//
// Runs one workload against the library's public API for S seconds,
// checks the outputs against independently computed results, writes a
// report (metrics, checks, span self times) and the benchmark's spans
// under DIR, and prints one JSON line last:
//   {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1). perfbench/run.py builds this binary and
// pins the environment; see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.h"
#include "obs/trace.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

void SetEndToEnd(RunResult* result, double setup_s, double p50_us,
                 double tail_us, double throughput, double peak_rss_mb) {
  result->end_to_end[kSetup] = {setup_s, "s"};
  result->end_to_end[kLatencyP50] = {p50_us, "us"};
  // Reported, not bounded: no tail held a 25% bound between sets of
  // runs on the shared machine the benchmark was set on (README).
  result->notes["latency_tail_us"] = tail_us;
  result->end_to_end[kThroughput] = {throughput, "1/s"};
  result->end_to_end[kPeakRss] = {peak_rss_mb, "MB"};
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_cold|serve_hot|pretrain|"
               "search --seed N --seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

/// `{"name": value(v), ...}` over a name-keyed map.
template <typename Map, typename Fn>
std::string JsonObject(const Map& map, Fn value) {
  std::string out = "{";
  for (const auto& [name, v] : map) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": " + value(v);
  }
  return out + "}";
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  return JsonObject(metrics, [](const Metric& m) {
    return "{\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  });
}

void WriteFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

void WriteReports(const RunConfig& config, const RunResult& result,
                  bool correct, const std::filesystem::path& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", dir.c_str());
    return;
  }
  const std::vector<SpanRecord> all = spans::Collect();
  std::string report =
      "{\"workload\": " + JsonString(config.workload) +
      ", \"seed\": " + std::to_string(config.seed) +
      ", \"seconds\": " + JsonNumber(config.seconds) +
      ", \"trace\": " + (config.trace ? "1" : "0") +
      ", \"correct\": " + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(result.attempted) +
      ", \"failed\": " + std::to_string(result.failed) +
      ",\n \"end_to_end\": " + MetricsJson(result.end_to_end) +
      ",\n \"layers\": " + MetricsJson(result.layers) +
      ",\n \"notes\": " + JsonObject(result.notes, JsonNumber) +
      ",\n \"checks\": " + result.checks.ToJson() +
      ",\n \"benchmark_spans\": " +
      JsonObject(spans::Aggregate(all), [](const spans::SpanStats& s) {
        return "{\"count\": " + std::to_string(s.count) +
               ", \"total_us\": " + JsonNumber(s.total_us) +
               ", \"self_us\": " + JsonNumber(s.self_us) + "}";
      });
  if (config.trace) {
    report += ",\n \"program_spans\": " +
              JsonObject(result.program_spans, [](const ProgramSpan& s) {
                return "{\"calls\": " + std::to_string(s.calls) +
                       ", \"self_us\": " + JsonNumber(s.self_us) + "}";
              });
  }
  report += "}\n";
  WriteFile(dir / "report.json", report);

  if (config.trace) {
    std::string trace = "[";
    for (size_t i = 0; i < all.size(); ++i) {
      const SpanRecord& r = all[i];
      if (i > 0) trace += ",\n";
      trace += "{\"name\": " + JsonString(r.name) +
               ", \"id\": " + std::to_string(r.id) +
               ", \"parent\": " + std::to_string(r.parent) +
               ", \"request\": " + std::to_string(r.request) +
               ", \"start_ns\": " + std::to_string(r.start_ns) +
               ", \"end_ns\": " + std::to_string(r.end_ns) + "}";
    }
    trace += "]\n";
    WriteFile(dir / "spans.json", trace);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string out_dir;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
      have_seconds = config.seconds > 0;
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = config.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }
  // Library spans stay off until a traced phase turns them on.
  tabrep::obs::SetTracingEnabled(false);

  RunResult result;
  if (config.workload == "serve_cold") {
    result = RunServe(config, /*hot=*/false);
  } else if (config.workload == "serve_hot") {
    result = RunServe(config, /*hot=*/true);
  } else if (config.workload == "pretrain") {
    result = RunPretrain(config);
  } else if (config.workload == "search") {
    result = RunSearch(config);
  } else {
    return Usage();
  }

  std::map<std::string, Metric> printed;
  if (config.trace) {
    for (const auto& [name, unit] : LayerMetricUnits()) {
      auto it = result.layers.find(name);
      printed[name] = it != result.layers.end() ? it->second : Metric{0.0, unit};
    }
  } else {
    printed = result.end_to_end;
  }
  const bool correct = result.checks.all_ok();
  if (out_dir.empty()) {
    out_dir = ".bench_out/" + config.workload + "-seed" +
              std::to_string(config.seed) + "-trace" +
              (config.trace ? "1" : "0");
  }
  WriteReports(config, result, correct, out_dir);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              MetricsJson(printed).c_str());
  std::fflush(stdout);
  return 0;
}
