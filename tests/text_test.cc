#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "table/synth.h"
#include "text/basic_tokenizer.h"
#include "text/vocab.h"
#include "text/wordpiece.h"

namespace tabrep {
namespace {

TEST(VocabTest, SpecialsAtFixedIds) {
  Vocab v = Vocab::NewWithSpecials();
  EXPECT_EQ(v.Id("[PAD]"), SpecialTokens::kPadId);
  EXPECT_EQ(v.Id("[UNK]"), SpecialTokens::kUnkId);
  EXPECT_EQ(v.Id("[CLS]"), SpecialTokens::kClsId);
  EXPECT_EQ(v.Id("[SEP]"), SpecialTokens::kSepId);
  EXPECT_EQ(v.Id("[MASK]"), SpecialTokens::kMaskId);
  EXPECT_EQ(v.Id("[EMPTY]"), SpecialTokens::kEmptyId);
  EXPECT_EQ(v.size(), 6);
}

TEST(VocabTest, AddIsIdempotent) {
  Vocab v = Vocab::NewWithSpecials();
  int32_t a = v.AddToken("hello");
  int32_t b = v.AddToken("hello");
  EXPECT_EQ(a, b);
  EXPECT_EQ(v.size(), 7);
}

TEST(VocabTest, UnknownMapsToUnk) {
  Vocab v = Vocab::NewWithSpecials();
  EXPECT_EQ(v.Id("zzz"), SpecialTokens::kUnkId);
  EXPECT_FALSE(v.Contains("zzz"));
}

TEST(VocabTest, IsSpecial) {
  Vocab v = Vocab::NewWithSpecials();
  v.AddToken("word");
  EXPECT_TRUE(v.IsSpecial(SpecialTokens::kMaskId));
  EXPECT_FALSE(v.IsSpecial(6));
}

TEST(VocabTest, SaveLoadRoundTrip) {
  Vocab v = Vocab::NewWithSpecials();
  v.AddToken("alpha");
  v.AddToken("##beta");
  const std::string path = ::testing::TempDir() + "/vocab.txt";
  ASSERT_TRUE(v.Save(path).ok());
  auto loaded = Vocab::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), v.size());
  EXPECT_EQ(loaded->Id("##beta"), v.Id("##beta"));
  EXPECT_TRUE(loaded->IsSpecial(SpecialTokens::kPadId));
}

TEST(BasicTokenizerTest, LowercasesAndSplits) {
  BasicTokenizer t;
  auto toks = t.Tokenize("Hello World");
  ASSERT_EQ(toks.size(), 2u);
  EXPECT_EQ(toks[0], "hello");
  EXPECT_EQ(toks[1], "world");
}

TEST(BasicTokenizerTest, SplitsPunctuation) {
  BasicTokenizer t;
  auto toks = t.Tokenize("a,b.c");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[1], ",");
  EXPECT_EQ(toks[3], ".");
}

TEST(BasicTokenizerTest, CasePreservingOption) {
  BasicTokenizerOptions opts;
  opts.lowercase = false;
  BasicTokenizer t(opts);
  EXPECT_EQ(t.Tokenize("Paris")[0], "Paris");
}

TEST(BasicTokenizerTest, DigitSplittingOption) {
  BasicTokenizerOptions opts;
  opts.split_digits = true;
  BasicTokenizer t(opts);
  auto toks = t.Tokenize("1967");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0], "1");
}

TEST(BasicTokenizerTest, EmptyAndWhitespaceOnly) {
  BasicTokenizer t;
  EXPECT_TRUE(t.Tokenize("").empty());
  EXPECT_TRUE(t.Tokenize("   \t\n").empty());
}

class WordPieceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    WordPieceTrainerOptions opts;
    opts.vocab_size = 200;
    WordPieceTrainer trainer(opts);
    // A tiny corpus with repeated morphology so merges happen.
    for (int i = 0; i < 10; ++i) {
      trainer.AddDocument("playing played player plays play");
      trainer.AddDocument("walking walked walker walks walk");
      trainer.AddDocument("the cat sat on the mat");
      trainer.AddDocument("paris france berlin germany");
    }
    vocab_ = trainer.Train();
    tokenizer_ = std::make_unique<WordPieceTokenizer>(vocab_);
  }

  Vocab vocab_;
  std::unique_ptr<WordPieceTokenizer> tokenizer_;
};

TEST_F(WordPieceFixture, KnownWordSegmentsWithoutUnk) {
  auto ids = tokenizer_->Encode("playing");
  ASSERT_FALSE(ids.empty());
  for (int32_t id : ids) EXPECT_NE(id, SpecialTokens::kUnkId);
}

TEST_F(WordPieceFixture, LearnsWholeFrequentWords) {
  // "play" occurs 50 times across forms; it should be one token or few.
  auto ids = tokenizer_->Encode("play");
  EXPECT_LE(ids.size(), 2u);
}

TEST_F(WordPieceFixture, ContinuationPiecesHaveHashes) {
  auto pieces = tokenizer_->TokenizeToStrings("played");
  ASSERT_GE(pieces.size(), 1u);
  for (size_t i = 1; i < pieces.size(); ++i) {
    EXPECT_EQ(pieces[i].substr(0, 2), "##") << pieces[i];
  }
  EXPECT_NE(pieces[0].substr(0, 2), "##");
}

TEST_F(WordPieceFixture, UnknownAlphabetMapsToUnk) {
  auto ids = tokenizer_->EncodeWord("\xc3\xa9t\xc3\xa9");  // été, non-ASCII
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], SpecialTokens::kUnkId);
}

TEST_F(WordPieceFixture, NovelCombinationOfKnownCharsSegments) {
  // "catwalk" never seen, but chars are in-alphabet.
  auto ids = tokenizer_->Encode("catwalk");
  ASSERT_FALSE(ids.empty());
  for (int32_t id : ids) EXPECT_NE(id, SpecialTokens::kUnkId);
}

TEST_F(WordPieceFixture, DecodeInvertsSingleWords) {
  EXPECT_EQ(tokenizer_->Decode(tokenizer_->Encode("walking")), "walking");
  EXPECT_EQ(tokenizer_->Decode(tokenizer_->Encode("the cat")), "the cat");
}

TEST_F(WordPieceFixture, TooLongWordIsUnk) {
  std::string longword(200, 'a');
  auto ids = tokenizer_->EncodeWord(longword);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], SpecialTokens::kUnkId);
}

TEST(WordPieceTrainerTest, VocabBudgetLimitsMerges) {
  // The full alphabet (both char forms) plus specials is a floor; the
  // budget limits merges above it. With a budget below the floor, no
  // merged (multi-char) token may appear.
  WordPieceTrainerOptions opts;
  opts.vocab_size = 40;
  WordPieceTrainer trainer(opts);
  for (int i = 0; i < 5; ++i) {
    trainer.AddDocument("abcdef ghijkl mnopqr stuvwx");
  }
  Vocab v = trainer.Train();
  // 24 chars * 2 forms + 6 specials = 54.
  EXPECT_EQ(v.size(), 54);
  for (int32_t id = 6; id < v.size(); ++id) {
    const std::string& tok = v.Token(id);
    const size_t chars = tok.substr(0, 2) == "##" ? tok.size() - 2 : tok.size();
    EXPECT_EQ(chars, 1u) << tok;
  }
}

TEST(WordPieceTrainerTest, GenerousBudgetLearnsWholeWords) {
  WordPieceTrainerOptions opts;
  opts.vocab_size = 500;
  WordPieceTrainer trainer(opts);
  for (int i = 0; i < 20; ++i) trainer.AddDocument("population country");
  Vocab v = trainer.Train();
  EXPECT_TRUE(v.Contains("population"));
  EXPECT_TRUE(v.Contains("country"));
}

TEST(WordPieceTrainerTest, FrequencyVsLikelihoodScoringDiffer) {
  auto build = [](MergeScoring scoring) {
    WordPieceTrainerOptions opts;
    opts.vocab_size = 80;
    opts.scoring = scoring;
    WordPieceTrainer trainer(opts);
    for (int i = 0; i < 20; ++i) {
      trainer.AddDocument("aaaa aaab aabb abbb bbbb xyzzy xyzzy");
    }
    return trainer.Train();
  };
  Vocab freq = build(MergeScoring::kFrequency);
  Vocab lik = build(MergeScoring::kLikelihood);
  // Both produce working vocabs; exact contents may differ. The key
  // invariant: every single char is present in both.
  for (const char* c : {"a", "b", "x", "y", "z"}) {
    EXPECT_TRUE(freq.Contains(c));
    EXPECT_TRUE(lik.Contains(c));
  }
}

TEST(WordPieceTrainerTest, MinWordCountFilters) {
  WordPieceTrainerOptions opts;
  opts.vocab_size = 1000;
  opts.min_word_count = 5;
  WordPieceTrainer trainer(opts);
  trainer.AddWord("rare", 1);
  trainer.AddWord("common", 10);
  Vocab v = trainer.Train();
  // 'r' only occurs in "rare" which was filtered; 'c' from "common"
  // must be present.
  EXPECT_FALSE(v.Contains("r"));
  EXPECT_TRUE(v.Contains("c"));
}

TEST(WordPieceTokenizerTest, EmptyInput) {
  Vocab v = Vocab::NewWithSpecials();
  WordPieceTokenizer t(v);
  EXPECT_TRUE(t.Encode("").empty());
  EXPECT_TRUE(t.EncodeWord("").empty());
}


// --- Reference: the trainer and segmenter as first written. ------------
//
// ReferenceTrain recounts every pair of every word on every merge;
// ReferenceEncodeWord builds one string per candidate and looks it up
// twice. Both are kept verbatim (members became parameters of the same
// names) so the incremental trainer and the allocation-free segmenter
// can be checked against them token for token.
namespace reference {

/// A word as a sequence of current subword symbols ("p", "##r", ...).
struct SymbolWord {
  std::vector<std::string> symbols;
  int64_t count = 0;
};

/// Merged text of two adjacent symbols: "p"+"##r" -> "pr",
/// "##i"+"##x" -> "##ix".
std::string MergeSymbols(const std::string& a, const std::string& b) {
  std::string_view tail(b);
  if (tail.size() >= 2 && tail.substr(0, 2) == "##") tail.remove_prefix(2);
  return a + std::string(tail);
}

Vocab ReferenceTrain(
    const std::unordered_map<std::string, int64_t>& word_counts_,
    const WordPieceTrainerOptions& options_) {
  Vocab vocab = Vocab::NewWithSpecials();

  // Initialize symbol sequences and the character alphabet.
  std::vector<SymbolWord> words;
  words.reserve(word_counts_.size());
  for (const auto& [word, count] : word_counts_) {
    if (count < options_.min_word_count) continue;
    SymbolWord sw;
    sw.count = count;
    for (size_t i = 0; i < word.size(); ++i) {
      std::string sym = i == 0 ? std::string(1, word[i])
                               : "##" + std::string(1, word[i]);
      sw.symbols.push_back(sym);
      // Register both forms of the character so greedy segmentation of
      // unseen words never fails on an in-alphabet character.
      vocab.AddToken(std::string(1, word[i]));
      vocab.AddToken("##" + std::string(1, word[i]));
    }
    words.push_back(std::move(sw));
  }

  // Iteratively merge the best-scoring adjacent pair until the budget
  // is reached or no pair repeats.
  while (vocab.size() < options_.vocab_size) {
    std::map<std::pair<std::string, std::string>, int64_t> pair_counts;
    std::unordered_map<std::string, int64_t> symbol_counts;
    for (const SymbolWord& sw : words) {
      for (size_t i = 0; i < sw.symbols.size(); ++i) {
        symbol_counts[sw.symbols[i]] += sw.count;
        if (i + 1 < sw.symbols.size()) {
          pair_counts[{sw.symbols[i], sw.symbols[i + 1]}] += sw.count;
        }
      }
    }
    if (pair_counts.empty()) break;

    const std::pair<std::string, std::string>* best = nullptr;
    double best_score = -1.0;
    for (const auto& [pair, count] : pair_counts) {
      if (count < 2) continue;  // merging singletons only memorizes words
      double score;
      if (options_.scoring == MergeScoring::kFrequency) {
        score = static_cast<double>(count);
      } else {
        const double denom =
            static_cast<double>(symbol_counts[pair.first]) *
            static_cast<double>(symbol_counts[pair.second]);
        score = denom > 0 ? static_cast<double>(count) / denom : 0.0;
      }
      if (score > best_score) {
        best_score = score;
        best = &pair;
      }
    }
    if (!best) break;

    const std::string merged = MergeSymbols(best->first, best->second);
    vocab.AddToken(merged);
    // Apply the merge in place.
    for (SymbolWord& sw : words) {
      std::vector<std::string> next;
      next.reserve(sw.symbols.size());
      for (size_t i = 0; i < sw.symbols.size(); ++i) {
        if (i + 1 < sw.symbols.size() && sw.symbols[i] == best->first &&
            sw.symbols[i + 1] == best->second) {
          next.push_back(merged);
          ++i;
        } else {
          next.push_back(sw.symbols[i]);
        }
      }
      sw.symbols = std::move(next);
    }
  }
  return vocab;
}

std::vector<int32_t> ReferenceEncodeWord(
    const Vocab& vocab_, const WordPieceTokenizerOptions& options_,
    std::string_view word) {
  if (word.empty()) return {};
  if (static_cast<int32_t>(word.size()) > options_.max_chars_per_word) {
    return {SpecialTokens::kUnkId};
  }
  std::vector<int32_t> pieces;
  size_t start = 0;
  while (start < word.size()) {
    size_t end = word.size();
    int32_t found = -1;
    // Longest match first.
    while (end > start) {
      std::string candidate =
          (start == 0 ? std::string() : std::string("##")) +
          std::string(word.substr(start, end - start));
      if (vocab_.Contains(candidate)) {
        found = vocab_.Id(candidate);
        break;
      }
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

}  // namespace reference

// --- Differential tests against the reference. --------------------------

/// Words in the order they are added, with their counts.
using WordAdds = std::vector<std::pair<std::string, int64_t>>;

/// What BuildCorpusVocab feeds its trainer: every pre-tokenized word of
/// the corpus text, then the serializer glue.
WordAdds CorpusWords(const TableCorpus& corpus) {
  WordAdds adds;
  BasicTokenizer tokenizer;
  for (const std::string& text : corpus.AllText()) {
    for (std::string& word : tokenizer.Tokenize(text)) {
      adds.emplace_back(std::move(word), 1);
    }
  }
  for (const char* g : {"row", "column", "is", "|", ":", ";", ".", ","}) {
    adds.emplace_back(g, 1000);
  }
  for (int d = 0; d <= 9; ++d) adds.emplace_back(std::to_string(d), 100);
  for (int n = 1; n <= 64; ++n) adds.emplace_back(std::to_string(n), 50);
  return adds;
}

/// Trains the incremental trainer and the reference on the same words
/// (added in the same order, so both see the same map iteration order
/// and insert the alphabet alike) and expects equal vocabularies.
Vocab TrainBoth(const WordAdds& adds, const WordPieceTrainerOptions& options) {
  WordPieceTrainer trainer(options);
  std::unordered_map<std::string, int64_t> word_counts;
  for (const auto& [word, count] : adds) {
    trainer.AddWord(word, count);
    if (!word.empty()) word_counts[word] += count;
  }
  const Vocab vocab = trainer.Train();
  const Vocab expected = reference::ReferenceTrain(word_counts, options);
  EXPECT_EQ(vocab.size(), expected.size());
  for (int32_t id = 0; id < std::min(vocab.size(), expected.size()); ++id) {
    EXPECT_EQ(vocab.Token(id), expected.Token(id)) << "id " << id;
    if (vocab.Token(id) != expected.Token(id)) break;
  }
  return vocab;
}

/// Expects EncodeWord to give the reference's ids on every added word
/// and on words over the length limit or outside the alphabet.
void ExpectEncodeMatches(const Vocab& vocab, const WordAdds& adds) {
  std::vector<std::string> words;
  for (const auto& [word, count] : adds) words.push_back(word);
  words.push_back(std::string(64, 'a'));    // at the length limit
  words.push_back(std::string(65, 'a'));    // over it
  words.push_back("populationcountryrow");  // in-alphabet, unseen
  words.push_back("zq\x01x");               // out-of-alphabet byte
  words.push_back("caf\xc3\xa9");           // non-ASCII bytes
  words.push_back("##");
  for (int32_t max_chars : {64, 8}) {
    WordPieceTokenizerOptions options;
    options.max_chars_per_word = max_chars;
    const WordPieceTokenizer tokenizer(vocab, options);
    for (const std::string& word : words) {
      ASSERT_EQ(tokenizer.EncodeWord(word),
                reference::ReferenceEncodeWord(vocab, options, word))
          << "word '" << word << "', max_chars " << max_chars;
    }
  }
}

/// One perfbench corpus shape: table count (capped at the 256 tables a
/// tokenizer is trained on) and row range.
struct CorpusShape {
  const char* workload;
  int64_t tables;
  int64_t min_rows;
  int64_t max_rows;
};

constexpr CorpusShape kShapes[] = {
    {"serve_cold", 256, 1, 16},  // 512 tables, the first 256 train
    {"serve_hot", 48, 1, 16},
    {"pretrain", 128, 3, 10},
    {"search", 256, 2, 12},  // 300 tables, the first 256 train
};

TableCorpus ShapeCorpus(const CorpusShape& shape, uint64_t seed) {
  SyntheticCorpusOptions options;
  options.num_tables = shape.tables;
  options.min_rows = shape.min_rows;
  options.max_rows = shape.max_rows;
  options.seed = seed;
  return GenerateSyntheticCorpus(options);
}

class WordPieceDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t, MergeScoring>> {
};

TEST_P(WordPieceDifferentialTest, SameVocabAndIdsAsReference) {
  const auto [shape, seed, scoring] = GetParam();
  const WordAdds adds = CorpusWords(ShapeCorpus(kShapes[shape], seed));
  WordPieceTrainerOptions options;
  options.vocab_size = 1500;
  options.scoring = scoring;
  const Vocab vocab = TrainBoth(adds, options);
  EXPECT_GT(vocab.size(), 1000);
  ExpectEncodeMatches(vocab, adds);
  // Dropping rare words changes the alphabet and every count; one seed
  // per shape keeps the reference's cost down.
  if (seed == 1) {
    options.min_word_count = 2;
    ExpectEncodeMatches(TrainBoth(adds, options), adds);
  }
}

/// "<workload>_seed<N>_<scoring>", for readable test names.
std::string DifferentialName(
    const ::testing::TestParamInfo<WordPieceDifferentialTest::ParamType>&
        info) {
  const auto& [shape, seed, scoring] = info.param;
  return std::string(kShapes[shape].workload) + "_seed" +
         std::to_string(seed) +
         (scoring == MergeScoring::kFrequency ? "_frequency" : "_likelihood");
}

INSTANTIATE_TEST_SUITE_P(
    PerfbenchShapes, WordPieceDifferentialTest,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values<uint64_t>(1, 2, 3),
                       ::testing::Values(MergeScoring::kLikelihood,
                                         MergeScoring::kFrequency)),
    DifferentialName);

TEST(WordPieceDifferentialEdgeTest, BudgetBelowAlphabet) {
  const WordAdds adds = CorpusWords(ShapeCorpus(kShapes[1], 4));
  for (MergeScoring scoring :
       {MergeScoring::kLikelihood, MergeScoring::kFrequency}) {
    WordPieceTrainerOptions options;
    options.vocab_size = 20;
    options.scoring = scoring;
    const Vocab vocab = TrainBoth(adds, options);
    EXPECT_GT(vocab.size(), 20);  // the alphabet is never cut
    ExpectEncodeMatches(vocab, adds);
  }
}

TEST(WordPieceDifferentialEdgeTest, MergeSpellingAnExistingTokenDoesNotGrow) {
  // With plain letters two different pairs never spell the same string
  // ("a"+"##bc" and "ab"+"##c" cannot both occur: every merge is applied
  // to every word). A word that starts with "#" can: "#"+"###" merges to
  // a leading "##", and "##"+"##b" then spells "##b", the continuation
  // form of "b" that is already in the alphabet. That merge adds no
  // token, yet is applied, so the leading "##b" of "##bc" and the
  // continuation "##b" of "abc" merge with "##c" as one symbol.
  const WordAdds adds = {{"##b", 10}, {"##bc", 6}, {"abc", 6}};
  for (MergeScoring scoring :
       {MergeScoring::kLikelihood, MergeScoring::kFrequency}) {
    WordPieceTrainerOptions options;
    options.vocab_size = 100;
    options.scoring = scoring;
    const Vocab vocab = TrainBoth(adds, options);
    // 6 specials + 8 alphabet forms + "##", "##bc", "abc": the "##b"
    // merge in between added nothing.
    ASSERT_EQ(vocab.size(), 17);
    EXPECT_EQ(vocab.Token(14), "##");
    EXPECT_EQ(vocab.Token(15), "##bc");
    EXPECT_EQ(vocab.Token(16), "abc");
    ExpectEncodeMatches(vocab, adds);
  }
}

TEST(WordPieceDifferentialEdgeTest, OverlappingRepeats) {
  // "aaaa" merges left to right without overlap: "aa"+"##aa", never
  // three overlapping "##a"+"##a" pairs.
  const WordAdds adds = {
      {"aaaa", 5}, {"aaa", 3}, {"aaaaa", 2}, {"baaab", 4}, {"aa", 1}};
  for (MergeScoring scoring :
       {MergeScoring::kLikelihood, MergeScoring::kFrequency}) {
    for (int32_t budget : {12, 14, 16, 100}) {
      WordPieceTrainerOptions options;
      options.vocab_size = budget;
      options.scoring = scoring;
      ExpectEncodeMatches(TrainBoth(adds, options), adds);
    }
  }
}

TEST(WordPieceDifferentialEdgeTest, ExactScoreTiesBreakByText) {
  // Every pair has the same count and the same part counts, so every
  // merge is a tie under both scorings, broken by the pair's texts.
  const WordAdds adds = {{"zy", 4}, {"ab", 4}, {"mn", 4}, {"ba", 4},
                         {"yz", 4}, {"nm", 4}};
  for (MergeScoring scoring :
       {MergeScoring::kLikelihood, MergeScoring::kFrequency}) {
    for (int32_t budget : {19, 20, 100}) {
      WordPieceTrainerOptions options;
      options.vocab_size = budget;
      options.scoring = scoring;
      const Vocab vocab = TrainBoth(adds, options);
      ExpectEncodeMatches(vocab, adds);
      // 6 specials + 12 alphabet forms, then the merges in text order.
      ASSERT_EQ(vocab.size(), std::min(budget, 24));
      EXPECT_EQ(vocab.Token(18), "ab");
      if (budget > 19) {
        EXPECT_EQ(vocab.Token(19), "ba");
      }
    }
  }
}

TEST(WordPieceDifferentialEdgeTest, SingleCharacterWords) {
  const WordAdds adds = {{"a", 10}, {"b", 5}, {"ab", 2}, {"c", 1},
                         {"ba", 3}, {"x", 7}};
  for (MergeScoring scoring :
       {MergeScoring::kLikelihood, MergeScoring::kFrequency}) {
    for (int32_t min_count : {1, 2}) {
      WordPieceTrainerOptions options;
      options.vocab_size = 100;
      options.scoring = scoring;
      options.min_word_count = min_count;
      ExpectEncodeMatches(TrainBoth(adds, options), adds);
    }
  }
}

}  // namespace
}  // namespace tabrep
