#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Output checks, computed apart from the program under test. Each
// returns an empty string when the outputs pass and a description of
// the first violation otherwise, so the same function can be run on
// the real outputs and on a deliberately corrupted copy.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One OK encode response as the client saw it.
struct ServedRecord {
  uint64_t request = 0;  // benchmark-global request index (= wire seq)
  int32_t table = 0;     // working-set index of the encoded table
  bool int8 = false;
  uint64_t version = 0;  // weights version the response echoed
  int64_t sent_ns = 0;   // steady-clock time the request was sent
  uint64_t hash = 0;     // HashBytes over the hidden states
  int64_t rows = 0;
  int64_t cols = 0;
};

/// What a direct TableEncoderModel::Encode of the same table, precision
/// and weight set produced.
struct ReferenceEncoding {
  uint64_t hash = 0;
  int64_t rows = 0;
  int64_t cols = 0;
};

/// Looks up the reference for (table, int8, echoed version); null when
/// the version names no weight set the benchmark published.
using ReferenceLookup = std::function<const ReferenceEncoding*(
    int32_t table, bool int8, uint64_t version)>;

/// Every response is bitwise equal to its reference.
std::string CheckServedBitwise(const std::vector<ServedRecord>& served,
                               const ReferenceLookup& reference);

/// One connection's responses in receive order.
using ConnectionResponses = std::vector<ServedRecord>;

/// On each connection, echoed versions never decrease, except that a
/// response may trail the connection's newest version by exactly one
/// when its request was sent before the publish of that newest version
/// returned (PublishWeights swaps the shards one after another, so for
/// the length of a publish the shards disagree). `publish_end_ns` maps a
/// published version to the time its PublishWeights call returned.
/// `allowed_regressions` (optional) counts the tolerated decreases.
std::string CheckVersionsMonotonic(
    const std::vector<ConnectionResponses>& connections,
    const std::map<uint64_t, int64_t>& publish_end_ns,
    int64_t* allowed_regressions = nullptr);

/// Client-counted OK responses equal the server's tabrep.net.requests
/// delta over the same phases.
std::string CheckOkCount(int64_t client_ok, int64_t server_requests);

/// `got` (TopK output) is a valid top-k under `scores`, the benchmark's
/// own dot products: k distinct in-range ids whose scores match the
/// benchmark's own descending sort position by position, up to a
/// float-reassociation tolerance (ties may come in either order).
std::string CheckTopK(const std::vector<int64_t>& got,
                      const std::vector<double>& scores, int64_t k);

/// Margin (nats) allowed between the step-0 MLM loss and ln(vocab): a
/// randomly initialized model predicts nearly uniformly.
inline constexpr double kStep0LossMargin = 0.5;
std::string CheckStep0Loss(double loss, int64_t vocab_size);

/// Every recorded loss is finite.
std::string CheckLossesFinite(const std::vector<double>& losses);

/// Held-out MLM loss after training is below a fresh model's.
std::string CheckHeldoutImproved(double trained_loss, double fresh_loss);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
