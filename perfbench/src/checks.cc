#include "checks.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

namespace perfbench {

namespace {

std::string Num(double v) { return std::to_string(v); }

}  // namespace

std::string CheckServedBitwise(const std::vector<ServedRecord>& served,
                               const ReferenceLookup& reference) {
  if (served.empty()) return "no OK responses to check";
  for (const ServedRecord& r : served) {
    const ReferenceEncoding* ref = reference(r.table, r.int8, r.version);
    const std::string what = "request " + std::to_string(r.request) +
                             " (table " + std::to_string(r.table) +
                             (r.int8 ? ", int8" : ", f32") + ", version " +
                             std::to_string(r.version) + ")";
    if (ref == nullptr) return what + ": no reference for the echoed version";
    if (r.rows != ref->rows || r.cols != ref->cols) {
      return what + ": shape " + std::to_string(r.rows) + "x" +
             std::to_string(r.cols) + " != direct encode " +
             std::to_string(ref->rows) + "x" + std::to_string(ref->cols);
    }
    if (r.hash != ref->hash) {
      return what + ": hidden states differ from the direct encode";
    }
  }
  return "";
}

std::string CheckVersionsMonotonic(
    const std::vector<ConnectionResponses>& connections,
    const std::map<uint64_t, int64_t>& publish_end_ns,
    int64_t* allowed_regressions) {
  int64_t allowed = 0;
  for (size_t c = 0; c < connections.size(); ++c) {
    uint64_t newest = 0;
    for (const ServedRecord& r : connections[c]) {
      if (r.version >= newest) {
        newest = r.version;
        continue;
      }
      const auto end = publish_end_ns.find(newest);
      const bool in_flight = r.version + 1 == newest &&
                             end != publish_end_ns.end() &&
                             r.sent_ns < end->second;
      if (!in_flight) {
        return "connection " + std::to_string(c) + ": request " +
               std::to_string(r.request) + " echoed version " +
               std::to_string(r.version) + " after version " +
               std::to_string(newest) +
               " had been seen and its publish had returned";
      }
      ++allowed;
    }
  }
  if (allowed_regressions != nullptr) *allowed_regressions = allowed;
  return "";
}

std::string CheckOkCount(int64_t client_ok, int64_t server_requests) {
  if (client_ok != server_requests) {
    return "client saw " + std::to_string(client_ok) +
           " OK responses, server counted " + std::to_string(server_requests) +
           " requests";
  }
  return "";
}

std::string CheckTopK(const std::vector<int64_t>& got,
                      const std::vector<double>& scores, int64_t k) {
  const int64_t n = static_cast<int64_t>(scores.size());
  const int64_t want = std::min(k, n);
  if (static_cast<int64_t>(got.size()) != want) {
    return "returned " + std::to_string(got.size()) + " ids, expected " +
           std::to_string(want);
  }
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return scores[static_cast<size_t>(a)] > scores[static_cast<size_t>(b)];
  });
  std::set<int64_t> seen;
  for (int64_t i = 0; i < want; ++i) {
    const int64_t id = got[static_cast<size_t>(i)];
    if (id < 0 || id >= n) return "id " + std::to_string(id) + " out of range";
    if (!seen.insert(id).second) return "id " + std::to_string(id) + " twice";
    const double s = scores[static_cast<size_t>(id)];
    const double expect = scores[static_cast<size_t>(order[static_cast<size_t>(i)])];
    if (std::fabs(s - expect) > 1e-5 * std::max(1.0, std::fabs(expect))) {
      return "rank " + std::to_string(i) + ": table " + std::to_string(id) +
             " scores " + Num(s) + ", the independent ranking has " +
             Num(expect) + " (table " +
             std::to_string(order[static_cast<size_t>(i)]) + ")";
    }
  }
  return "";
}

std::string CheckStep0Loss(double loss, int64_t vocab_size) {
  const double uniform = std::log(static_cast<double>(vocab_size));
  if (!(std::fabs(loss - uniform) <= kStep0LossMargin)) {
    return "step-0 MLM loss " + Num(loss) + " is not within " +
           Num(kStep0LossMargin) + " of ln(" + std::to_string(vocab_size) +
           ") = " + Num(uniform);
  }
  return "";
}

std::string CheckLossesFinite(const std::vector<double>& losses) {
  if (losses.empty()) return "no losses recorded";
  for (size_t i = 0; i < losses.size(); ++i) {
    if (!std::isfinite(losses[i])) {
      return "loss " + std::to_string(i) + " is " + Num(losses[i]);
    }
  }
  return "";
}

std::string CheckHeldoutImproved(double trained_loss, double fresh_loss) {
  if (!(trained_loss < fresh_loss)) {
    return "held-out MLM loss " + Num(trained_loss) +
           " is not below the fresh model's " + Num(fresh_loss);
  }
  return "";
}

}  // namespace perfbench
