#include "text/wordpiece.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>

#include "common/logging.h"

namespace tabrep {

namespace {

/// A word as a sequence of current subword symbols. A symbol is the
/// Vocab id of its text ("p", "##r", "pr", ...), so equal texts are one
/// symbol however they were merged.
struct SymbolWord {
  std::vector<int32_t> symbols;
  int64_t count = 0;
};

/// Merged text of two adjacent symbols: "p"+"##r" -> "pr",
/// "##i"+"##x" -> "##ix".
std::string MergeSymbols(const std::string& a, const std::string& b) {
  std::string_view tail(b);
  if (tail.size() >= 2 && tail.substr(0, 2) == "##") tail.remove_prefix(2);
  return a + std::string(tail);
}

uint64_t PairKey(int32_t a, int32_t b) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}
int32_t PairFirst(uint64_t key) { return static_cast<int32_t>(key >> 32); }
int32_t PairSecond(uint64_t key) {
  return static_cast<int32_t>(key & 0xffffffffu);
}

/// Pair and symbol counts over the current words, kept up to date one
/// word at a time. A pair whose count reaches 0 is erased, so the live
/// pairs are exactly those a full recount would find.
class MergeCounts {
 public:
  /// Adds (sign = +1) or removes (sign = -1) one word's contribution.
  void Apply(const SymbolWord& sw, int64_t sign) {
    const int64_t c = sign * sw.count;
    const std::vector<int32_t>& s = sw.symbols;
    for (size_t i = 0; i < s.size(); ++i) {
      if (static_cast<size_t>(s[i]) >= symbol_.size()) {
        symbol_.resize(static_cast<size_t>(s[i]) + 1, 0);
      }
      symbol_[static_cast<size_t>(s[i])] += c;
      if (i + 1 < s.size()) {
        auto it = pair_.try_emplace(PairKey(s[i], s[i + 1]), 0).first;
        it->second += c;
        if (it->second == 0) pair_.erase(it);
      }
    }
  }

  int64_t symbol(int32_t id) const { return symbol_[static_cast<size_t>(id)]; }
  const std::unordered_map<uint64_t, int64_t>& pairs() const { return pair_; }

 private:
  std::vector<int64_t> symbol_;
  std::unordered_map<uint64_t, int64_t> pair_;
};

}  // namespace

void WordPieceTrainer::AddDocument(std::string_view text) {
  for (const std::string& word : tokenizer_.Tokenize(text)) AddWord(word);
}

void WordPieceTrainer::AddWord(const std::string& word, int64_t count) {
  if (word.empty()) return;
  word_counts_[word] += count;
  total_words_ += count;
}

Vocab WordPieceTrainer::Train() const {
  Vocab vocab = Vocab::NewWithSpecials();

  // Initialize symbol sequences and the character alphabet.
  std::vector<SymbolWord> words;
  words.reserve(word_counts_.size());
  for (const auto& [word, count] : word_counts_) {
    if (count < options_.min_word_count) continue;
    SymbolWord sw;
    sw.count = count;
    for (size_t i = 0; i < word.size(); ++i) {
      // Register both forms of the character so greedy segmentation of
      // unseen words never fails on an in-alphabet character.
      const int32_t head = vocab.AddToken(std::string(1, word[i]));
      const int32_t tail = vocab.AddToken("##" + std::string(1, word[i]));
      sw.symbols.push_back(i == 0 ? head : tail);
    }
    words.push_back(std::move(sw));
  }

  // Counts, plus for each pair the words it was ever seen in (a word
  // may since have lost the pair, so each listed word is re-checked).
  MergeCounts counts;
  std::unordered_map<uint64_t, std::vector<int32_t>> pair_words;
  for (size_t w = 0; w < words.size(); ++w) {
    counts.Apply(words[w], +1);
    const std::vector<int32_t>& s = words[w].symbols;
    for (size_t i = 0; i + 1 < s.size(); ++i) {
      pair_words[PairKey(s[i], s[i + 1])].push_back(static_cast<int32_t>(w));
    }
  }
  std::vector<int64_t> visited(words.size(), -1);
  auto texts = [&vocab](uint64_t key) {
    return std::tie(vocab.Token(PairFirst(key)), vocab.Token(PairSecond(key)));
  };

  // Iteratively merge the best-scoring adjacent pair until the budget
  // is reached or no pair repeats. Only the words holding the merged
  // pair are rewritten and recounted.
  for (int64_t merge = 0; vocab.size() < options_.vocab_size; ++merge) {
    // The best score wins; ties go to the pair whose texts sort first,
    // as if the pairs were visited in (text, text) order.
    uint64_t best = 0;
    double best_score = -1.0;
    for (const auto& [key, count] : counts.pairs()) {
      if (count < 2) continue;  // merging singletons only memorizes words
      const int32_t a = PairFirst(key), b = PairSecond(key);
      double score;
      if (options_.scoring == MergeScoring::kFrequency) {
        score = static_cast<double>(count);
      } else {
        const double denom = static_cast<double>(counts.symbol(a)) *
                             static_cast<double>(counts.symbol(b));
        score = denom > 0 ? static_cast<double>(count) / denom : 0.0;
      }
      if (score > best_score ||
          (score == best_score && texts(key) < texts(best))) {
        best_score = score;
        best = key;
      }
    }
    if (best_score < 0.0) break;

    const int32_t first = PairFirst(best), second = PairSecond(best);
    const int32_t merged =
        vocab.AddToken(MergeSymbols(vocab.Token(first), vocab.Token(second)));
    // Apply the merge, left to right without overlap, in every word
    // that holds the pair.
    std::vector<int32_t> candidates;
    candidates.swap(pair_words[best]);
    for (int32_t w : candidates) {
      if (visited[static_cast<size_t>(w)] == merge) continue;
      visited[static_cast<size_t>(w)] = merge;
      SymbolWord& sw = words[static_cast<size_t>(w)];
      std::vector<int32_t>& s = sw.symbols;
      auto holds = [&](size_t i) {
        return i + 1 < s.size() && s[i] == first && s[i + 1] == second;
      };
      size_t i = 0;
      while (i < s.size() && !holds(i)) ++i;
      if (i == s.size()) continue;  // lost the pair to an earlier merge
      counts.Apply(sw, -1);
      size_t out = i;
      while (i < s.size()) {
        if (holds(i)) {
          s[out++] = merged;
          i += 2;
        } else {
          s[out++] = s[i++];
        }
      }
      s.resize(out);
      counts.Apply(sw, +1);
      // Index the pairs this rewrite may have created. A left-to-right
      // pass leaves no (first, second); if one were left, the word must
      // stay findable or choosing that pair again would never end.
      for (size_t j = 0; j + 1 < s.size(); ++j) {
        if (s[j] == merged || s[j + 1] == merged ||
            (s[j] == first && s[j + 1] == second)) {
          pair_words[PairKey(s[j], s[j + 1])].push_back(w);
        }
      }
    }
  }
  return vocab;
}

std::vector<int32_t> WordPieceTokenizer::Encode(std::string_view text) const {
  std::vector<int32_t> out;
  for (const std::string& word : tokenizer_.Tokenize(text)) {
    std::vector<int32_t> piece = EncodeWord(word);
    out.insert(out.end(), piece.begin(), piece.end());
  }
  return out;
}

std::vector<int32_t> WordPieceTokenizer::EncodeWord(
    std::string_view word) const {
  if (word.empty()) return {};
  if (static_cast<int32_t>(word.size()) > options_.max_chars_per_word) {
    return {SpecialTokens::kUnkId};
  }
  std::vector<int32_t> pieces;
  std::string candidate;  // "##" + the piece, for continuation pieces
  size_t start = 0;
  while (start < word.size()) {
    // Longest match first, from the longest length any token has.
    const size_t prefix = start == 0 ? 0 : 2;
    const size_t longest = vocab_.max_token_size();
    if (longest <= prefix) return {SpecialTokens::kUnkId};
    size_t end = std::min(word.size(), start + (longest - prefix));
    candidate.assign(prefix, '#');
    candidate.append(word.substr(start, end - start));
    int32_t found = -1;
    while (end > start) {
      found = vocab_.Find(candidate);
      if (found >= 0) break;
      candidate.pop_back();
      --end;
    }
    if (found < 0) {
      // Out-of-alphabet character: the whole word becomes [UNK],
      // matching BERT behaviour.
      return {SpecialTokens::kUnkId};
    }
    pieces.push_back(found);
    start = end;
  }
  return pieces;
}

std::vector<std::string> WordPieceTokenizer::TokenizeToStrings(
    std::string_view text) const {
  std::vector<std::string> out;
  for (int32_t id : Encode(text)) out.push_back(vocab_.Token(id));
  return out;
}

std::string WordPieceTokenizer::Decode(const std::vector<int32_t>& ids) const {
  std::string out;
  for (int32_t id : ids) {
    if (vocab_.IsSpecial(id)) continue;
    const std::string& tok = vocab_.Token(id);
    if (tok.size() >= 2 && tok[0] == '#' && tok[1] == '#') {
      out += tok.substr(2);
    } else {
      if (!out.empty()) out += ' ';
      out += tok;
    }
  }
  return out;
}

}  // namespace tabrep
