#include "tasks/retrieval.h"

#include <algorithm>

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
  model_->SetTraining(true);
  query_proj_.SetTraining(true);
  table_proj_.SetTraining(true);
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

Tensor RetrievalTask::EmbedQuery(const std::string& query) {
  model_->SetTraining(false);
  query_proj_.SetTraining(false);
  Rng rng(config_.seed + 800);
  Tensor out;
  {
    ag::NoGradScope no_grad;  // inference: graph-free encode
    out = ForwardQuery(query, rng).value().Clone();
  }
  model_->SetTraining(true);
  query_proj_.SetTraining(true);
  return out;
}

Tensor RetrievalTask::EmbedTable(const Table& table) {
  model_->SetTraining(false);
  table_proj_.SetTraining(false);
  Rng rng(config_.seed + 801);
  Tensor out;
  {
    ag::NoGradScope no_grad;  // inference: graph-free encode
    out = ForwardTable(table, rng).value().Clone();
  }
  model_->SetTraining(true);
  table_proj_.SetTraining(true);
  return out;
}

std::vector<Tensor> RetrievalTask::EmbedCorpus(const TableCorpus& corpus) {
  std::vector<Tensor> table_embs(corpus.tables.size());
  runtime::ParallelFor(
      0, static_cast<int64_t>(corpus.tables.size()), 1,
      [&](int64_t lo, int64_t hi) {
        ag::NoGradScope no_grad;  // eval: graph-free encode
        for (int64_t i = lo; i < hi; ++i) {
          Rng rng(config_.seed + 801);
          table_embs[static_cast<size_t>(i)] =
              ForwardTable(corpus.tables[static_cast<size_t>(i)], rng)
                  .value()
                  .Clone();
        }
      });
  return table_embs;
}

RankingReport RetrievalTask::Evaluate(
    const TableCorpus& corpus, const std::vector<RetrievalExample>& examples) {
  // Corpus embedding is the hot loop of evaluation: every table runs a
  // full encoder forward. Embed in parallel with the same per-call rng
  // EmbedTable uses (eval mode never draws from it).
  model_->SetTraining(false);
  query_proj_.SetTraining(false);
  table_proj_.SetTraining(false);
  std::vector<Tensor> table_embs = EmbedCorpus(corpus);
  std::vector<Tensor> query_embs(examples.size());
  runtime::ParallelFor(
      0, static_cast<int64_t>(examples.size()), 1,
      [&](int64_t lo, int64_t hi) {
        ag::NoGradScope no_grad;  // eval: graph-free encode
        for (int64_t i = lo; i < hi; ++i) {
          Rng rng(config_.seed + 800);
          query_embs[static_cast<size_t>(i)] =
              ForwardQuery(examples[static_cast<size_t>(i)].query, rng)
                  .value()
                  .Clone();
        }
      });
  model_->SetTraining(true);
  query_proj_.SetTraining(true);
  table_proj_.SetTraining(true);

  std::vector<int64_t> ranks;
  ranks.reserve(examples.size());
  for (size_t qi = 0; qi < examples.size(); ++qi) {
    const RetrievalExample& ex = examples[qi];
    const Tensor& q = query_embs[qi];
    std::vector<std::pair<float, int64_t>> scored;
    scored.reserve(table_embs.size());
    for (size_t i = 0; i < table_embs.size(); ++i) {
      scored.emplace_back(ops::Dot(q, table_embs[i]),
                          static_cast<int64_t>(i));
    }
    std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
      return a.first > b.first;
    });
    int64_t rank = 0;
    for (size_t i = 0; i < scored.size(); ++i) {
      if (scored[i].second == ex.relevant_table) {
        rank = static_cast<int64_t>(i) + 1;
        break;
      }
    }
    ranks.push_back(rank);
  }
  return ComputeRanking(ranks);
}

std::vector<int64_t> RetrievalTask::TopK(const std::string& query,
                                         const TableCorpus& corpus,
                                         int64_t k) {
  Tensor q = EmbedQuery(query);
  model_->SetTraining(false);
  table_proj_.SetTraining(false);
  std::vector<Tensor> table_embs = EmbedCorpus(corpus);
  model_->SetTraining(true);
  table_proj_.SetTraining(true);
  std::vector<std::pair<float, int64_t>> scored;
  scored.reserve(table_embs.size());
  for (size_t i = 0; i < table_embs.size(); ++i) {
    scored.emplace_back(ops::Dot(q, table_embs[i]), static_cast<int64_t>(i));
  }
  const int64_t n =
      std::clamp<int64_t>(k, 0, static_cast<int64_t>(scored.size()));
  std::partial_sort(
      scored.begin(), scored.begin() + n, scored.end(),
      [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    out.push_back(scored[static_cast<size_t>(i)].second);
  }
  return out;
}

}  // namespace tabrep
