#ifndef TABREP_TASKS_RETRIEVAL_H_
#define TABREP_TASKS_RETRIEVAL_H_

#include <memory>
#include <string>
#include <vector>

#include "eval/metrics.h"
#include "models/heads.h"
#include "models/table_encoder.h"
#include "nn/optimizer.h"
#include "serialize/serializer.h"
#include "table/corpus.h"
#include "tasks/finetune.h"

namespace tabrep {

/// One retrieval query with its single relevant table.
struct RetrievalExample {
  std::string query;
  int64_t relevant_table = 0;
};

/// Builds queries describing each table (caption words plus a few cell
/// mentions) so that relevance is learnable but not a string match on
/// an id.
std::vector<RetrievalExample> GenerateRetrievalExamples(
    const TableCorpus& corpus, Rng& rng);

/// Bi-encoder table retrieval: tables and natural-language queries are
/// embedded with the same TableEncoderModel (queries as context-only
/// sequences); ranking is by dot product of projection-head outputs.
/// Training uses in-batch softmax contrastive loss.
class RetrievalTask {
 public:
  RetrievalTask(TableEncoderModel* model, const TableSerializer* serializer,
                FineTuneConfig config, int64_t embed_dim = 32);

  FineTuneReport Train(const TableCorpus& corpus,
                       const std::vector<RetrievalExample>& examples);

  /// MRR / Hit@k ranking every example's query against all corpus
  /// tables.
  RankingReport Evaluate(const TableCorpus& corpus,
                         const std::vector<RetrievalExample>& examples);

  /// Embeds a query string (inference).
  Tensor EmbedQuery(const std::string& query);
  /// Embeds a table (inference).
  Tensor EmbedTable(const Table& table);

  /// Top-k table indices for a query against a corpus.
  std::vector<int64_t> TopK(const std::string& query,
                            const TableCorpus& corpus, int64_t k);

 private:
  /// Tokenizes a bare text query into a context-only TokenizedTable.
  TokenizedTable SerializeQuery(const std::string& query) const;

  ag::Variable ForwardQuery(const std::string& query, Rng& rng);
  ag::Variable ForwardTable(const Table& table, Rng& rng);
  /// Embeds every corpus table in parallel and graph-free, with the
  /// rng EmbedTable uses. The caller puts the model and the table head
  /// in eval mode.
  std::vector<Tensor> EmbedCorpus(const TableCorpus& corpus);

  TableEncoderModel* model_;
  const TableSerializer* serializer_;
  /// Table-side serializer variant without context (otherwise the
  /// caption string would leak the answer).
  TableSerializer table_serializer_;
  FineTuneConfig config_;
  Rng rng_;
  models::ProjectionHead query_proj_;
  models::ProjectionHead table_proj_;
  std::unique_ptr<nn::Adam> optimizer_;
};

}  // namespace tabrep

#endif  // TABREP_TASKS_RETRIEVAL_H_
