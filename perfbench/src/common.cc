#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

namespace {
const Clock::time_point g_process_start = Clock::now();
}  // namespace

Clock::time_point ProcessStart() { return g_process_start; }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double WindowedQuantile(const std::vector<double>& v, size_t window,
                        double q) {
  std::vector<double> per_window;
  for (size_t lo = 0; window > 0 && lo + window <= v.size(); lo += window) {
    per_window.push_back(
        Quantile(std::vector<double>(v.begin() + lo, v.begin() + lo + window), q));
  }
  return per_window.empty() ? Quantile(v, q) : Quantile(per_window, 0.5);
}

uint64_t Mix64(uint64_t seed, uint64_t i) {
  // splitmix64 finalizer over a seed/index combination.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + i * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double UnitDouble(uint64_t seed, uint64_t i) {
  return static_cast<double>(Mix64(seed, i) >> 11) * 0x1.0p-53;
}

uint64_t HashBytes(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, sizeof(w));
    h = (h ^ w) * 0x100000001b3ULL;
  }
  for (; i < bytes; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

namespace spans {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
thread_local uint64_t t_current = 0;

struct Buffer {
  std::mutex mu;
  std::vector<SpanRecord> records;
};

std::mutex g_buffers_mu;
std::vector<std::shared_ptr<Buffer>>& Buffers() {
  static auto* buffers = new std::vector<std::shared_ptr<Buffer>>();
  return *buffers;
}

Buffer& ThreadBuffer() {
  thread_local std::shared_ptr<Buffer> buffer = [] {
    auto b = std::make_shared<Buffer>();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(b);
    return b;
  }();
  return *buffer;
}

uint64_t NewId() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

void Push(const SpanRecord& r) {
  Buffer& b = ThreadBuffer();
  std::lock_guard<std::mutex> lock(b.mu);
  b.records.push_back(r);
}

}  // namespace

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
uint64_t Current() { return t_current; }

void Record(const char* name, Clock::time_point start, Clock::time_point end,
            uint64_t request, uint64_t parent) {
  if (!Enabled()) return;
  SpanRecord r;
  r.name = name;
  r.id = NewId();
  r.parent = parent != 0 ? parent : t_current;
  r.request = request;
  r.start_ns = Ns(start);
  r.end_ns = Ns(end);
  Push(r);
}

std::vector<SpanRecord> Collect() {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& b : Buffers()) {
    std::lock_guard<std::mutex> block(b->mu);
    all.insert(all.end(), b->records.begin(), b->records.end());
  }
  std::sort(all.begin(), all.end(), [](const SpanRecord& a,
                                       const SpanRecord& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

std::map<std::string, SpanStats> Aggregate(
    const std::vector<SpanRecord>& all) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const SpanRecord& r : all) {
    if (r.parent != 0) children[r.parent].emplace_back(r.start_ns, r.end_ns);
  }
  std::map<std::string, SpanStats> out;
  for (const SpanRecord& r : all) {
    const int64_t dur = r.end_ns - r.start_ns;
    int64_t covered = 0;
    auto it = children.find(r.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0, cur_hi = -1;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, r.start_ns);
        hi = std::min(hi, r.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    SpanStats& s = out[r.name];
    ++s.count;
    s.total_us += static_cast<double>(dur) / 1e3;
    s.self_us += static_cast<double>(dur - covered) / 1e3;
  }
  return out;
}

}  // namespace spans

ScopedSpan::ScopedSpan(const char* name, uint64_t request) {
  if (!spans::Enabled()) return;
  name_ = name;
  id_ = spans::NewId();
  parent_ = spans::t_current;
  request_ = request;
  spans::t_current = id_;
  start_ = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (name_ == nullptr) return;
  SpanRecord r;
  r.name = name_;
  r.id = id_;
  r.parent = parent_;
  r.request = request_;
  r.start_ns = Ns(start_);
  r.end_ns = Ns(Clock::now());
  spans::t_current = parent_;
  spans::Push(r);
}

// ---------------------------------------------------------------------------
// Registry reads.
// ---------------------------------------------------------------------------

uint64_t CounterValue(const char* name) {
  return tabrep::obs::Registry::Get().counter(name).value();
}

HistSummary HistogramValue(const char* name) {
  const tabrep::obs::HistogramStats s =
      tabrep::obs::Registry::Get().histogram(name).Stats();
  return {s.mean, s.p99};
}

std::map<std::string, ProgramSpan> ProgramSpanTotals() {
  std::map<std::string, ProgramSpan> out;
  for (const tabrep::obs::TraceEvent& e : tabrep::obs::CollectTrace()) {
    ProgramSpan& s = out[e.name];
    ++s.calls;
    s.self_us += static_cast<double>(e.duration_ns - e.child_ns) / 1e3;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Checks and JSON.
// ---------------------------------------------------------------------------

void CheckLog::Real(const std::string& name, const std::string& error) {
  entries_.push_back({name, false, error});
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: CHECK FAILED %s: %s\n", name.c_str(),
                 error.c_str());
  }
}

void CheckLog::Corrupted(const std::string& name, const std::string& error) {
  entries_.push_back({name, true, error});
  if (error.empty()) {
    std::fprintf(stderr,
                 "perfbench: CHECK BLIND %s: passed a corrupted output\n",
                 name.c_str());
  }
}

bool CheckLog::all_ok() const {
  if (entries_.empty()) return false;
  for (const Entry& e : entries_) {
    if (e.corrupted == e.error.empty()) return false;
  }
  return true;
}

std::string CheckLog::ToJson() const {
  std::string out = "[";
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (i > 0) out += ",";
    out += "{\"check\":" + JsonString(e.name) +
           ",\"input\":" + JsonString(e.corrupted ? "corrupted" : "real") +
           ",\"ok\":" +
           ((e.corrupted != e.error.empty()) ? "true" : "false") +
           ",\"error\":" + JsonString(e.error) + "}";
  }
  return out + "]";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
