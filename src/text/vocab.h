#ifndef TABREP_TEXT_VOCAB_H_
#define TABREP_TEXT_VOCAB_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace tabrep {

/// Canonical special tokens. Every Vocab created by NewWithSpecials()
/// places them at these fixed ids so model code can rely on them.
struct SpecialTokens {
  static constexpr int32_t kPadId = 0;
  static constexpr int32_t kUnkId = 1;
  static constexpr int32_t kClsId = 2;
  static constexpr int32_t kSepId = 3;
  static constexpr int32_t kMaskId = 4;
  static constexpr int32_t kEmptyId = 5;  // empty/NULL cell marker

  static constexpr std::string_view kPad = "[PAD]";
  static constexpr std::string_view kUnk = "[UNK]";
  static constexpr std::string_view kCls = "[CLS]";
  static constexpr std::string_view kSep = "[SEP]";
  static constexpr std::string_view kMask = "[MASK]";
  static constexpr std::string_view kEmpty = "[EMPTY]";

  /// All six, in id order.
  static const std::vector<std::string>& All();
};

/// A bidirectional token<->id map with stable insertion-order ids.
class Vocab {
 public:
  Vocab() = default;

  /// A vocab pre-seeded with the six special tokens at ids 0..5.
  static Vocab NewWithSpecials();

  /// Adds `token` if absent; returns its id either way.
  int32_t AddToken(std::string_view token);

  /// Id of `token`, or -1 if absent. Allocation-free.
  int32_t Find(std::string_view token) const;

  /// Id of `token`, or kUnkId if absent (or -1 when the vocab has no
  /// [UNK], i.e. was default-constructed without specials).
  int32_t Id(std::string_view token) const;

  /// True if `token` is present.
  bool Contains(std::string_view token) const;

  /// Token text for `id`; "[UNK]" style lookup is the caller's job —
  /// out-of-range ids abort.
  const std::string& Token(int32_t id) const;

  int32_t size() const { return static_cast<int32_t>(tokens_.size()); }

  /// Byte length of the longest token (0 when empty).
  size_t max_token_size() const { return max_token_size_; }

  /// True for ids 0..5 in a specials-seeded vocab.
  bool IsSpecial(int32_t id) const {
    return has_specials_ && id >= 0 && id <= SpecialTokens::kEmptyId;
  }

  /// Persistence: one token per line, id = line number.
  Status Save(const std::string& path) const;
  static Result<Vocab> Load(const std::string& path);

 private:
  /// Hashes any string-like key, so string_view probes of index_
  /// build no std::string.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> tokens_;
  std::unordered_map<std::string, int32_t, Hash, std::equal_to<>> index_;
  size_t max_token_size_ = 0;
  bool has_specials_ = false;
};

}  // namespace tabrep

#endif  // TABREP_TEXT_VOCAB_H_
