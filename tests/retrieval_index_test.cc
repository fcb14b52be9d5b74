// The persistent corpus index behind RetrievalTask::TopK / Evaluate:
// every answer must equal a ranking computed independently from
// EmbedQuery / EmbedTable and double-precision dot products, whatever
// changed since the previous call (weights, cells, corpus size, corpus
// object), and a warm query must not re-encode the corpus.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <set>

#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "serialize/vocab_builder.h"
#include "table/synth.h"
#include "tasks/retrieval.h"
#include "tensor/ops.h"

namespace tabrep {

struct RetrievalIndexPeer {
  /// Row i is corpus table i's table-side embedding, as of the last
  /// TopK / Evaluate call.
  static const Tensor& Rows(const RetrievalTask& task) {
    return task.index_.rows;
  }
  /// The query embedding TopK ranks with: encoded in the index check's
  /// fork-join.
  static Tensor QueryBesideTheCheck(RetrievalTask& task,
                                    const std::string& query,
                                    const TableCorpus& corpus) {
    std::vector<Tensor> embedded;
    task.SyncIndex(corpus, {&query}, &embedded);
    return embedded.at(0);
  }
};

namespace {

class RetrievalIndexTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticCorpusOptions opts;
    opts.num_tables = 24;
    opts.max_rows = 6;
    corpus_ = new TableCorpus(GenerateSyntheticCorpus(opts));
    WordPieceTrainerOptions topts;
    topts.vocab_size = 800;
    tokenizer_ = new WordPieceTokenizer(BuildCorpusTokenizer(*corpus_, topts));
    SerializerOptions sopts;
    sopts.max_tokens = 64;
    serializer_ = new TableSerializer(tokenizer_, sopts);
  }
  static void TearDownTestSuite() {
    delete serializer_;
    delete tokenizer_;
    delete corpus_;
  }

  static ModelConfig Config(uint64_t seed) {
    ModelConfig config;
    config.family = ModelFamily::kVanilla;
    config.vocab_size = tokenizer_->vocab().size();
    config.entity_vocab_size = corpus_->entities.size();
    config.transformer.dim = 32;
    config.transformer.num_layers = 1;
    config.transformer.num_heads = 2;
    config.transformer.ffn_dim = 64;
    config.transformer.dropout = 0.0f;
    config.max_position = 128;
    config.seed = seed;
    return config;
  }

  static FineTuneConfig TaskConfig() {
    FineTuneConfig config;
    config.steps = 6;
    config.batch_size = 2;
    config.lr = 2e-3f;
    return config;
  }

  static std::string Query(int i) {
    Rng rng(7);
    std::vector<RetrievalExample> examples =
        GenerateRetrievalExamples(*corpus_, rng);
    return examples[static_cast<size_t>(i) % examples.size()].query;
  }

  static uint64_t Encodes() {
    return obs::Registry::Get().counter("tabrep.models.encode.infer").value();
  }

  /// Checks a TopK answer against the ranking the test computes itself:
  /// the right length, distinct in-range ids, and at each rank a score
  /// equal (to float rounding) to the independent ranking's score
  /// there. Also checks that every index row is bitwise the
  /// EmbedTable row of its table.
  static void ExpectMatchesReference(RetrievalTask& task,
                                     const std::string& query,
                                     const TableCorpus& corpus, int64_t k,
                                     const std::vector<int64_t>& got) {
    const int64_t n = corpus.size();
    const Tensor q = task.EmbedQuery(query);
    std::vector<double> scores;
    for (int64_t i = 0; i < n; ++i) {
      const Tensor t = task.EmbedTable(corpus.tables[static_cast<size_t>(i)]);
      ASSERT_EQ(t.numel(), q.numel());
      const Tensor& index = RetrievalIndexPeer::Rows(task);
      ASSERT_EQ(index.numel(), n * t.numel());
      EXPECT_EQ(0, std::memcmp(index.data() + i * t.numel(), t.data(),
                               static_cast<size_t>(t.numel()) * sizeof(float)))
          << "index row " << i << " is not EmbedTable's row";
      double dot = 0.0;
      for (int64_t j = 0; j < q.numel(); ++j) {
        dot += static_cast<double>(q.data()[j]) *
               static_cast<double>(t.data()[j]);
      }
      scores.push_back(dot);
    }
    const int64_t want = std::clamp<int64_t>(k, 0, n);
    ASSERT_EQ(static_cast<int64_t>(got.size()), want);
    std::vector<int64_t> order(static_cast<size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
      return scores[static_cast<size_t>(a)] > scores[static_cast<size_t>(b)];
    });
    std::set<int64_t> seen;
    for (int64_t r = 0; r < want; ++r) {
      const int64_t id = got[static_cast<size_t>(r)];
      ASSERT_GE(id, 0);
      ASSERT_LT(id, n);
      EXPECT_TRUE(seen.insert(id).second) << "table " << id << " twice";
      const int64_t ref = order[static_cast<size_t>(r)];
      const double expect = scores[static_cast<size_t>(ref)];
      EXPECT_NEAR(scores[static_cast<size_t>(id)], expect, 1e-5)
          << "rank " << r << ": table " << id << ", reference has table "
          << ref;
    }
  }

  /// TopK, checked against the reference; returns the encode count of
  /// the TopK call alone.
  static uint64_t CheckedTopK(RetrievalTask& task, const std::string& query,
                              const TableCorpus& corpus, int64_t k) {
    const uint64_t before = Encodes();
    const std::vector<int64_t> got = task.TopK(query, corpus, k);
    const uint64_t encodes = Encodes() - before;
    ExpectMatchesReference(task, query, corpus, k, got);
    return encodes;
  }

  static TableCorpus* corpus_;
  static WordPieceTokenizer* tokenizer_;
  static TableSerializer* serializer_;
};

TableCorpus* RetrievalIndexTest::corpus_ = nullptr;
WordPieceTokenizer* RetrievalIndexTest::tokenizer_ = nullptr;
TableSerializer* RetrievalIndexTest::serializer_ = nullptr;

TEST_F(RetrievalIndexTest, WarmQueryEncodesOnlyTheQuery) {
  TableEncoderModel model(Config(1));
  RetrievalTask task(&model, serializer_, TaskConfig());
  const int64_t n = corpus_->size();
  EXPECT_EQ(CheckedTopK(task, Query(0), *corpus_, 5),
            static_cast<uint64_t>(1 + n));
  EXPECT_EQ(CheckedTopK(task, Query(1), *corpus_, 5), 1u);
  EXPECT_EQ(CheckedTopK(task, Query(0), *corpus_, 5), 1u);
}

TEST_F(RetrievalIndexTest, FollowsTraining) {
  TableEncoderModel model(Config(1));
  RetrievalTask task(&model, serializer_, TaskConfig());
  CheckedTopK(task, Query(0), *corpus_, 5);
  const Tensor before = RetrievalIndexPeer::Rows(task).Clone();
  Rng rng(3);
  task.Train(*corpus_, GenerateRetrievalExamples(*corpus_, rng));
  EXPECT_EQ(CheckedTopK(task, Query(0), *corpus_, 5),
            static_cast<uint64_t>(1 + corpus_->size()));
  EXPECT_NE(0,
            std::memcmp(before.data(), RetrievalIndexPeer::Rows(task).data(),
                        static_cast<size_t>(before.numel()) * sizeof(float)));
}

TEST_F(RetrievalIndexTest, FollowsImportedWeights) {
  TableEncoderModel model(Config(1));
  TableEncoderModel other(Config(2));
  RetrievalTask task(&model, serializer_, TaskConfig());
  CheckedTopK(task, Query(2), *corpus_, 5);
  ASSERT_TRUE(model.ImportStateDict(other.ExportStateDict()).ok());
  EXPECT_EQ(CheckedTopK(task, Query(2), *corpus_, 5),
            static_cast<uint64_t>(1 + corpus_->size()));
}

TEST_F(RetrievalIndexTest, FollowsDirectParameterWrite) {
  TableEncoderModel model(Config(1));
  RetrievalTask task(&model, serializer_, TaskConfig());
  CheckedTopK(task, Query(3), *corpus_, 5);
  Tensor& w = model.Parameters()[0]->mutable_value();
  for (int64_t i = 0; i < w.numel(); i += 3) w.data()[i] *= -1.5f;
  EXPECT_EQ(CheckedTopK(task, Query(3), *corpus_, 5),
            static_cast<uint64_t>(1 + corpus_->size()));
  // Two sign flips, each the top bit of its 8-byte word, must not
  // cancel in the weights fingerprint.
  ASSERT_GE(w.numel(), 4);
  w.data()[1] = -w.data()[1];
  w.data()[3] = -w.data()[3];
  EXPECT_EQ(CheckedTopK(task, Query(3), *corpus_, 5),
            static_cast<uint64_t>(1 + corpus_->size()));
}

TEST_F(RetrievalIndexTest, FollowsTableEdits) {
  TableEncoderModel model(Config(1));
  RetrievalTask task(&model, serializer_, TaskConfig());
  TableCorpus corpus = *corpus_;
  const uint64_t full = static_cast<uint64_t>(1 + corpus.size());
  CheckedTopK(task, Query(4), corpus, 5);
  // One cell of one table.
  Table& edited = corpus.tables[3];
  ASSERT_GT(edited.num_rows(), 0);
  edited.set_cell(0, 0, Value::String("zanzibar quokka"));
  EXPECT_EQ(CheckedTopK(task, Query(4), corpus, 5), full);
  edited.mutable_cell(0, 0) = Value::Int(1234567);
  EXPECT_EQ(CheckedTopK(task, Query(4), corpus, 5), full);
  // Append a table, then drop it again.
  Table extra = corpus.tables[0];
  extra.set_caption("a table appended after the first query");
  extra.set_cell(0, 0, Value::String("appended"));
  corpus.tables.push_back(extra);
  EXPECT_EQ(CheckedTopK(task, Query(4), corpus, 5), full + 1);
  corpus.tables.pop_back();
  EXPECT_EQ(CheckedTopK(task, Query(4), corpus, 5), full);
  EXPECT_EQ(CheckedTopK(task, Query(4), corpus, 5), 1u);
}

TEST_F(RetrievalIndexTest, FollowsAnotherCorpusOfTheSameSize) {
  TableEncoderModel model(Config(1));
  RetrievalTask task(&model, serializer_, TaskConfig());
  CheckedTopK(task, Query(5), *corpus_, 5);
  SyntheticCorpusOptions opts;
  opts.num_tables = corpus_->size();
  opts.max_rows = 6;
  opts.seed = 1234;
  const TableCorpus other = GenerateSyntheticCorpus(opts);
  ASSERT_EQ(other.size(), corpus_->size());
  CheckedTopK(task, Query(5), other, 5);
  CheckedTopK(task, Query(5), *corpus_, 5);
}

TEST_F(RetrievalIndexTest, EvaluateSharesTheIndex) {
  TableEncoderModel model(Config(1));
  RetrievalTask task(&model, serializer_, TaskConfig());
  Rng rng(9);
  const std::vector<RetrievalExample> examples =
      GenerateRetrievalExamples(*corpus_, rng);
  const uint64_t before = Encodes();
  const RankingReport first = task.Evaluate(*corpus_, examples);
  const uint64_t cold = Encodes() - before;
  EXPECT_EQ(cold, static_cast<uint64_t>(corpus_->size()) + examples.size());
  const RankingReport again = task.Evaluate(*corpus_, examples);
  EXPECT_EQ(Encodes() - before - cold, examples.size());
  EXPECT_EQ(first.mrr, again.mrr);
  // The index Evaluate built serves TopK without another table encode.
  EXPECT_EQ(CheckedTopK(task, Query(0), *corpus_, 3), 1u);
}

TEST_F(RetrievalIndexTest, IndexRowsDoNotDependOnThreadCount) {
  TableEncoderModel model(Config(1));
  std::vector<Tensor> rows;
  for (int threads : {1, 4}) {
    runtime::Configure(runtime::RuntimeConfig{threads});
    RetrievalTask task(&model, serializer_, TaskConfig());
    task.TopK(Query(0), *corpus_, 3);
    rows.push_back(RetrievalIndexPeer::Rows(task).Clone());
  }
  runtime::Configure(runtime::RuntimeConfig{});
  ASSERT_EQ(rows[0].shape(), rows[1].shape());
  EXPECT_EQ(0,
            std::memcmp(rows[0].data(), rows[1].data(),
                        static_cast<size_t>(rows[0].numel()) * sizeof(float)));
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// TopK encodes its query as a job of the index check's fork-join, with
// the encode's own ParallelFor calls inline. The embedding is bitwise
// EmbedQuery's at every thread count, and the answer is exactly the
// ranking of EmbedQuery's scores against the index rows.
TEST_F(RetrievalIndexTest, QueryEncodedBesideTheCheckIsEmbedQuerys) {
  TableEncoderModel model(Config(1));
  const int64_t n = corpus_->size();
  std::vector<Tensor> first_thread_count;
  for (int threads : {1, 2, 4}) {
    runtime::Configure(runtime::RuntimeConfig{threads});
    RetrievalTask task(&model, serializer_, TaskConfig());
    for (int qi = 0; qi < 4; ++qi) {
      const std::string query = Query(qi);
      for (int64_t k : {int64_t{5}, n}) {
        const std::vector<int64_t> got = task.TopK(query, *corpus_, k);
        const Tensor q = task.EmbedQuery(query);
        const Tensor scores =
            ops::MatMulTransposedB(q, RetrievalIndexPeer::Rows(task));
        std::vector<int64_t> want(static_cast<size_t>(n));
        std::iota(want.begin(), want.end(), 0);
        std::stable_sort(want.begin(), want.end(), [&](int64_t a, int64_t b) {
          return scores.data()[a] > scores.data()[b];
        });
        want.resize(static_cast<size_t>(k));
        EXPECT_EQ(got, want) << threads << " threads, query " << qi;
      }
      const Tensor beside =
          RetrievalIndexPeer::QueryBesideTheCheck(task, query, *corpus_);
      const Tensor alone = task.EmbedQuery(query);
      EXPECT_TRUE(BitwiseEqual(beside, alone))
          << threads << " threads, query " << qi;
      if (threads == 1) {
        first_thread_count.push_back(alone);
      } else {
        EXPECT_TRUE(BitwiseEqual(alone,
                                 first_thread_count[static_cast<size_t>(qi)]))
            << threads << " threads, query " << qi;
      }
    }
  }
  runtime::Configure(runtime::RuntimeConfig{});
}

// Evaluate encodes every query beside the index check and ranks after
// the join. Its report equals a ranking the test computes from
// EmbedQuery and the index rows, at every thread count, cold and warm,
// and equals the report recorded when each query was encoded and
// ranked inside its own ParallelFor chunk after the check.
TEST_F(RetrievalIndexTest, EvaluateRanksDoNotDependOnThreadCount) {
  Rng rng(9);
  const std::vector<RetrievalExample> examples =
      GenerateRetrievalExamples(*corpus_, rng);
  const int64_t n = corpus_->size();
  for (int threads : {1, 2, 4}) {
    runtime::Configure(runtime::RuntimeConfig{threads});
    TableEncoderModel model(Config(1));
    RetrievalTask task(&model, serializer_, TaskConfig());
    task.Train(*corpus_, examples);
    const RankingReport cold = task.Evaluate(*corpus_, examples);
    const RankingReport warm = task.Evaluate(*corpus_, examples);
    std::vector<int64_t> ranks;
    for (const RetrievalExample& ex : examples) {
      const Tensor scores = ops::MatMulTransposedB(
          task.EmbedQuery(ex.query), RetrievalIndexPeer::Rows(task));
      const float target = scores.data()[ex.relevant_table];
      int64_t rank = 1;
      for (int64_t i = 0; i < n; ++i) {
        rank += scores.data()[i] > target ||
                (scores.data()[i] == target && i < ex.relevant_table);
      }
      ranks.push_back(rank);
    }
    const RankingReport want = ComputeRanking(ranks);
    for (const RankingReport* got : {&cold, &warm}) {
      EXPECT_EQ(got->num_queries, want.num_queries) << threads << " threads";
      EXPECT_EQ(got->mrr, want.mrr) << threads << " threads";
      EXPECT_EQ(got->hit_at_1, want.hit_at_1) << threads << " threads";
      EXPECT_EQ(got->hit_at_5, want.hit_at_5) << threads << " threads";
      EXPECT_EQ(got->hit_at_10, want.hit_at_10) << threads << " threads";
      EXPECT_EQ(got->ndcg_at_10, want.ndcg_at_10) << threads << " threads";
    }
    EXPECT_EQ(cold.num_queries, 24);
    EXPECT_EQ(cold.mrr, 0x1.643b3b5e3584p-3) << threads << " threads";
    EXPECT_EQ(cold.hit_at_1, 0x1.5555555555555p-5) << threads << " threads";
    EXPECT_EQ(cold.hit_at_5, 0x1p-2) << threads << " threads";
    EXPECT_EQ(cold.hit_at_10, 0x1p-1) << threads << " threads";
    EXPECT_EQ(cold.ndcg_at_10, 0x1.ce7bcfe455d6fp-3) << threads << " threads";
  }
  runtime::Configure(runtime::RuntimeConfig{});
}

TEST_F(RetrievalIndexTest, EdgeCases) {
  TableEncoderModel model(Config(1));
  RetrievalTask task(&model, serializer_, TaskConfig());
  EXPECT_TRUE(task.TopK(Query(0), *corpus_, 0).empty());
  EXPECT_TRUE(task.TopK(Query(0), *corpus_, -2).empty());
  // k beyond the corpus returns the whole corpus, fully ranked.
  CheckedTopK(task, Query(0), *corpus_, corpus_->size() + 5);
  const TableCorpus empty;
  EXPECT_TRUE(task.TopK(Query(0), empty, 5).empty());
  EXPECT_EQ(RetrievalIndexPeer::Rows(task).numel(), 0);
  EXPECT_EQ(task.Evaluate(empty, {{Query(0), 0}}).mrr, 0.0);
  CheckedTopK(task, Query(0), *corpus_, 5);
}

}  // namespace
}  // namespace tabrep
