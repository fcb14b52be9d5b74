#include "tasks/retrieval.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <numeric>

#include "common/logging.h"
#include "common/string_util.h"
#include "nn/data_parallel.h"
#include "runtime/runtime.h"
#include "tensor/ops.h"
#include "text/vocab.h"

namespace tabrep {

namespace {

SerializerOptions TableSideOptions(const TableSerializer* serializer) {
  SerializerOptions opts = serializer->options();
  opts.context = ContextPlacement::kNone;
  return opts;
}

// -- Corpus index fingerprints ---------------------------------------------
//
// Change detection, not cryptography. Each step is a bijection of the
// state for a fixed input word, so changing one word of a chain always
// changes the chain's result. The rotate matters: with a bare FNV step
// over 64-bit words (`HashMix` in src/serve/serve.cc), a change confined
// to the top bit stays in the top bit, and a second such change (two
// odd-indexed floats negated) cancels it.

constexpr uint64_t kHashSeed = 0xcbf29ce484222325ull;  // FNV offset basis
/// Parameter floats per weight-fingerprint block. The blocks are fixed
/// by the parameter sizes alone, so the fingerprint does not depend on
/// the thread count.
constexpr int64_t kWeightBlockFloats = 16384;
/// Tables per fingerprinting job.
constexpr int64_t kTableGrain = 16;

inline uint64_t MixWord(uint64_t h, uint64_t word) {
  return std::rotl((h ^ word) * 0x9e3779b97f4a7c15ull, 31);
}

/// Folds `n` bytes, prefixed by their length, into `h` 8 bytes at a
/// time.
uint64_t MixBytes(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  h = MixWord(h, n);
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    h = MixWord(h, word);
  }
  if (n > 0) {
    uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = MixWord(h, word);
  }
  return h;
}

uint64_t MixString(uint64_t h, const std::string& s) {
  return MixBytes(h, s.data(), s.size());
}

/// A cell's type and value.
uint64_t CellHash(const Value& v) {
  const uint64_t type = static_cast<uint64_t>(v.type());
  switch (v.type()) {
    case ValueType::kNull:
      return type;
    case ValueType::kString:
      return MixString(type, v.AsString());
    case ValueType::kEntity:
      return MixString(MixWord(type, static_cast<uint64_t>(v.entity_id())),
                       v.AsString());
    case ValueType::kInt:
      return MixWord(type, static_cast<uint64_t>(v.AsInt()));
    case ValueType::kDouble:
      return MixWord(type, std::bit_cast<uint64_t>(v.AsDouble()));
    case ValueType::kBool:
      return MixWord(type, v.AsBool() ? 1 : 0);
  }
  return type;
}

/// Everything a table contributes to its table-side encoding, and its
/// identity: id, title, caption, column names and types, and every
/// cell's type and value.
uint64_t TableFingerprint(const Table& table) {
  uint64_t h = kHashSeed;
  h = MixString(h, table.id());
  h = MixString(h, table.title());
  h = MixString(h, table.caption());
  h = MixWord(h, static_cast<uint64_t>(table.num_columns()));
  for (const ColumnSpec& col : table.columns()) {
    h = MixString(MixWord(h, static_cast<uint64_t>(col.type)), col.name);
  }
  h = MixWord(h, static_cast<uint64_t>(table.num_rows()));
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (const Value& v : table.row(r)) h = MixWord(h, CellHash(v));
  }
  return h;
}

/// Rank of `relevant` among `n` scores (1 = best), counting the tables
/// scored above it and the equal-scored ones before it; 0 when it is
/// not a corpus index.
int64_t RankOf(const float* scores, int64_t n, int64_t relevant) {
  if (relevant < 0 || relevant >= n) return 0;
  const float target = scores[relevant];
  int64_t rank = 1;
  for (int64_t i = 0; i < n; ++i) {
    rank += scores[i] > target || (scores[i] == target && i < relevant);
  }
  return rank;
}

}  // namespace

std::vector<RetrievalExample> GenerateRetrievalExamples(
    const TableCorpus& corpus, Rng& rng) {
  std::vector<RetrievalExample> out;
  for (size_t ti = 0; ti < corpus.tables.size(); ++ti) {
    const Table& t = corpus.tables[ti];
    if (t.num_rows() == 0) continue;
    std::string query = ToLowerAscii(t.caption());
    // Add up to three cell mentions so relevance depends on content.
    for (int i = 0; i < 3 && t.num_columns() > 0; ++i) {
      const int64_t r = static_cast<int64_t>(
          rng.NextBelow(static_cast<uint64_t>(t.num_rows())));
      const int64_t c = static_cast<int64_t>(
          rng.NextBelow(static_cast<uint64_t>(t.num_columns())));
      const std::string text = t.cell(r, c).ToText();
      if (!text.empty()) query += " " + ToLowerAscii(text);
    }
    if (Trim(query).empty()) continue;
    RetrievalExample ex;
    ex.query = query;
    ex.relevant_table = static_cast<int64_t>(ti);
    out.push_back(std::move(ex));
  }
  return out;
}

RetrievalTask::RetrievalTask(TableEncoderModel* model,
                             const TableSerializer* serializer,
                             FineTuneConfig config, int64_t embed_dim)
    : model_(model),
      serializer_(serializer),
      table_serializer_(serializer->tokenizer(), TableSideOptions(serializer)),
      config_(config),
      embed_dim_(embed_dim),
      rng_(config.seed),
      query_proj_(model->dim(), embed_dim, rng_),
      table_proj_(model->dim(), embed_dim, rng_) {
  std::vector<ag::Variable*> params;
  if (!config_.freeze_encoder) params = model_->Parameters();
  for (ag::Variable* p : query_proj_.Parameters()) params.push_back(p);
  for (ag::Variable* p : table_proj_.Parameters()) params.push_back(p);
  optimizer_ = std::make_unique<nn::Adam>(std::move(params), config_.lr);
}

TokenizedTable RetrievalTask::SerializeQuery(const std::string& query) const {
  TokenizedTable out;
  TokenInfo cls;
  cls.id = SpecialTokens::kClsId;
  out.tokens.push_back(cls);
  for (int32_t id : serializer_->tokenizer()->Encode(query)) {
    TokenInfo tok;
    tok.id = id;
    tok.kind = static_cast<int32_t>(TokenKind::kContext);
    out.tokens.push_back(tok);
  }
  TokenInfo sep;
  sep.id = SpecialTokens::kSepId;
  out.tokens.push_back(sep);
  const int64_t limit = serializer_->options().max_tokens;
  if (out.size() > limit) out.tokens.resize(static_cast<size_t>(limit));
  return out;
}

ag::Variable RetrievalTask::ForwardQuery(const std::string& query, Rng& rng) {
  TokenizedTable serialized = SerializeQuery(query);
  models::Encoded enc = model_->Encode(serialized, rng, {.need_cells = false});
  // Unit-norm embeddings make the in-batch softmax an InfoNCE loss and
  // the ranking score a cosine.
  return ag::L2NormalizeRows(query_proj_.Forward(model_->Pooled(enc)));
}

ag::Variable RetrievalTask::ForwardTable(const Table& table, Rng& rng) {
  TokenizedTable serialized = table_serializer_.Serialize(table);
  models::Encoded enc = model_->Encode(serialized, rng, {.need_cells = false});
  return ag::L2NormalizeRows(table_proj_.Forward(model_->Pooled(enc)));
}

FineTuneReport RetrievalTask::Train(
    const TableCorpus& corpus,
    const std::vector<RetrievalExample>& examples) {
  TABREP_CHECK(!examples.empty());
  SetTraining(true);
  std::vector<ag::Variable*> params;
  if (!config_.freeze_encoder) params = model_->Parameters();
  for (ag::Variable* p : query_proj_.Parameters()) params.push_back(p);
  for (ag::Variable* p : table_proj_.Parameters()) params.push_back(p);

  // In-batch contrastive training: batch_size queries, their positive
  // tables as shared negatives.
  tasks::ReportBuilder report(config_.steps, config_.sink,
                              "finetune.retrieval", config_.example_log);
  const int64_t k = std::max<int64_t>(2, config_.batch_size);
  const size_t bs = static_cast<size_t>(k);
  std::vector<const RetrievalExample*> batch(bs);
  std::vector<ag::Variable> table_embs(bs);
  std::vector<float> losses(bs);
  std::vector<int64_t> correct(bs), counted(bs);
  std::vector<eval::ExampleRecord> records(report.logging_examples() ? bs : 0);
  for (int64_t step = 0; step < config_.steps; ++step) {
    optimizer_->ZeroGrad();
    for (size_t i = 0; i < bs; ++i) {
      batch[i] = &examples[rng_.NextBelow(examples.size())];
    }
    // Phase 1: embed the batch tables in parallel (graph building
    // only; gradients flow later through each query's backward pass).
    nn::ParallelExamples(k, rng_, [&](int64_t i, Rng& rng) {
      table_embs[static_cast<size_t>(i)] = ForwardTable(
          corpus.tables[static_cast<size_t>(
              batch[static_cast<size_t>(i)]->relevant_table)],
          rng);
    });
    ag::Variable table_matrix = ag::ConcatRows(table_embs);  // [k, e]
    // Phase 2: one InfoNCE loss per query, gradients captured per
    // example and folded in query order.
    nn::ParallelBatch(k, params, rng_, [&](int64_t i, Rng& rng) {
      const size_t s = static_cast<size_t>(i);
      ag::Variable q = ForwardQuery(batch[s]->query, rng);  // [1, e]
      // Cosine scores sharpened by the InfoNCE temperature.
      ag::Variable logits = ag::MulScalar(
          ag::MatMulTransposedB(q, table_matrix), 1.0f / 0.1f);  // [1, k]
      ag::Variable loss =
          ag::CrossEntropy(logits, {static_cast<int32_t>(i)}, -100,
                           &correct[s], &counted[s]);
      losses[s] = loss.value()[0];
      if (report.logging_examples()) {
        const int32_t pred = ops::ArgmaxRows(logits.value())[0];
        eval::ExampleRecord rec;
        rec.example_id = batch[s]->query;
        rec.gold = "table:" + std::to_string(batch[s]->relevant_table);
        rec.prediction =
            "table:" +
            std::to_string(batch[static_cast<size_t>(pred)]->relevant_table);
        rec.loss = losses[s];
        rec.correct = pred == static_cast<int32_t>(i);
        rec.tags = eval::TableTags(
            corpus.tables[static_cast<size_t>(batch[s]->relevant_table)]);
        records[s] = std::move(rec);
      }
      ag::Backward(loss);
    });
    nn::ClipGradNorm(params, config_.grad_clip);
    optimizer_->Step();
    for (size_t i = 0; i < bs; ++i) {
      report.Record(step, losses[i], correct[i], counted[i]);
      if (report.logging_examples() && counted[i] > 0) {
        report.Example(step, std::move(records[i]));
      }
    }
  }
  return report.Build();
}

Tensor RetrievalTask::EncodeQuery(const std::string& query) {
  Rng rng(config_.seed + 800);
  ag::NoGradScope no_grad;  // inference: graph-free encode
  return ForwardQuery(query, rng).value().Clone();
}

Tensor RetrievalTask::EmbedQuery(const std::string& query) {
  SetTraining(false);
  Tensor out = EncodeQuery(query);
  SetTraining(true);
  return out;
}

Tensor RetrievalTask::EmbedTable(const Table& table) {
  SetTraining(false);
  Rng rng(config_.seed + 801);
  Tensor out;
  {
    ag::NoGradScope no_grad;  // inference: graph-free encode
    out = ForwardTable(table, rng).value().Clone();
  }
  SetTraining(true);
  return out;
}

void RetrievalTask::SetTraining(bool training) {
  model_->SetTraining(training);
  query_proj_.SetTraining(training);
  table_proj_.SetTraining(training);
}

Tensor RetrievalTask::EmbedCorpus(const TableCorpus& corpus) {
  Tensor rows({corpus.size(), embed_dim_});
  runtime::ParallelFor(0, corpus.size(), 1, [&](int64_t lo, int64_t hi) {
    ag::NoGradScope no_grad;  // eval: graph-free encode
    for (int64_t i = lo; i < hi; ++i) {
      Rng rng(config_.seed + 801);
      const ag::Variable emb =
          ForwardTable(corpus.tables[static_cast<size_t>(i)], rng);
      std::memcpy(rows.data() + i * embed_dim_, emb.value().data(),
                  static_cast<size_t>(embed_dim_) * sizeof(float));
    }
  });
  return rows;
}

void RetrievalTask::Fingerprint(const TableCorpus& corpus,
                                const std::vector<const std::string*>& queries,
                                std::vector<Tensor>* embedded,
                                uint64_t* weights,
                                std::vector<uint64_t>* tables) {
  // Every parameter cut into blocks of at most kWeightBlockFloats.
  struct Block {
    const float* data;
    int64_t floats;
  };
  std::vector<Block> blocks;
  std::vector<ag::Variable*> params = model_->Parameters();
  for (ag::Variable* p : table_proj_.Parameters()) params.push_back(p);
  for (const ag::Variable* p : params) {
    const Tensor& t = p->value();
    for (int64_t at = 0; at < t.numel(); at += kWeightBlockFloats) {
      blocks.push_back(
          {t.data() + at, std::min(kWeightBlockFloats, t.numel() - at)});
    }
  }
  const int64_t num_blocks = static_cast<int64_t>(blocks.size());
  const int64_t n = corpus.size();
  std::vector<uint64_t> block_hash(blocks.size());
  tables->assign(static_cast<size_t>(n), 0);
  const int64_t num_queries = static_cast<int64_t>(queries.size());
  embedded->assign(queries.size(), Tensor());
  // One fork-join for all three: the query encodes first (the longest
  // jobs, so they start first), then the weight blocks, then
  // kTableGrain tables per job. An encode runs inside its job, so its
  // own ParallelFor calls replay their chunks inline and the result is
  // bitwise EmbedQuery's at any thread count.
  const int64_t first_table_job = num_queries + num_blocks;
  const int64_t jobs = first_table_job + (n + kTableGrain - 1) / kTableGrain;
  runtime::ParallelFor(0, jobs, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t job = lo; job < hi; ++job) {
      if (job < num_queries) {
        (*embedded)[static_cast<size_t>(job)] =
            EncodeQuery(*queries[static_cast<size_t>(job)]);
        continue;
      }
      if (job < first_table_job) {
        const Block& b = blocks[static_cast<size_t>(job - num_queries)];
        block_hash[static_cast<size_t>(job - num_queries)] = MixBytes(
            kHashSeed, b.data, static_cast<size_t>(b.floats) * sizeof(float));
        continue;
      }
      const int64_t begin = (job - first_table_job) * kTableGrain;
      for (int64_t t = begin; t < std::min(n, begin + kTableGrain); ++t) {
        (*tables)[static_cast<size_t>(t)] =
            TableFingerprint(corpus.tables[static_cast<size_t>(t)]);
      }
    }
  });
  uint64_t h = kHashSeed;
  for (uint64_t v : block_hash) h = MixWord(h, v);
  *weights = h;
}

const Tensor& RetrievalTask::SyncIndex(
    const TableCorpus& corpus, const std::vector<const std::string*>& queries,
    std::vector<Tensor>* embedded) {
  // Eval mode for the whole call: the query encodes read the modules
  // while other lanes hash their parameters, so no job may toggle it.
  SetTraining(false);
  uint64_t weights = 0;
  std::vector<uint64_t> tables;
  Fingerprint(corpus, queries, embedded, &weights, &tables);
  if (weights != index_.weights || tables != index_.tables) {
    index_.rows = EmbedCorpus(corpus);
    index_.weights = weights;
    index_.tables = std::move(tables);
  }
  SetTraining(true);
  return index_.rows;
}

RankingReport RetrievalTask::Evaluate(
    const TableCorpus& corpus, const std::vector<RetrievalExample>& examples) {
  const int64_t n = corpus.size();
  // Every query is encoded beside the index check, then ranked against
  // the index after the join (no query encode on an empty corpus).
  std::vector<const std::string*> queries;
  if (n > 0) {
    for (const RetrievalExample& ex : examples) queries.push_back(&ex.query);
  }
  std::vector<Tensor> embedded;
  const Tensor& index = SyncIndex(corpus, queries, &embedded);
  std::vector<int64_t> ranks(examples.size(), 0);
  for (size_t i = 0; i < embedded.size(); ++i) {
    const Tensor scores = ops::MatMulTransposedB(embedded[i], index);
    ranks[i] = RankOf(scores.data(), n, examples[i].relevant_table);
  }
  return ComputeRanking(ranks);
}

std::vector<int64_t> RetrievalTask::TopK(const std::string& query,
                                         const TableCorpus& corpus,
                                         int64_t k) {
  std::vector<Tensor> embedded;
  const Tensor& index = SyncIndex(corpus, {&query}, &embedded);
  const int64_t n = std::clamp<int64_t>(k, 0, corpus.size());
  if (n == 0) return {};
  const Tensor scores =
      ops::MatMulTransposedB(embedded[0], index);  // [1, N]
  const float* s = scores.data();
  std::vector<int64_t> order(static_cast<size_t>(corpus.size()));
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(), order.begin() + n, order.end(),
                    [s](int64_t a, int64_t b) {
                      return s[a] > s[b] || (s[a] == s[b] && a < b);
                    });
  // A fresh vector, so the caller does not keep order's N-entry capacity.
  return std::vector<int64_t>(order.begin(), order.begin() + n);
}

}  // namespace tabrep
