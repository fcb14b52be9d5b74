#ifndef TABREP_TASKS_RETRIEVAL_H_
#define TABREP_TASKS_RETRIEVAL_H_

#include <cstdint>
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
///
/// TopK and Evaluate rank against a persistent corpus index: one
/// table-side embedding row per corpus table, kept with a fingerprint
/// of the encoder and table-head weights and one content fingerprint
/// per table. Every call re-checks both and re-embeds the corpus when
/// either differs, so the index follows training, imported or directly
/// written weights, edited cells and a different corpus without any
/// call to invalidate it. The check and the call's query encodes are
/// jobs of one runtime::ParallelFor. Like the rest of the task, not
/// safe for concurrent callers.
class RetrievalTask {
 public:
  RetrievalTask(TableEncoderModel* model, const TableSerializer* serializer,
                FineTuneConfig config, int64_t embed_dim = 32);

  FineTuneReport Train(const TableCorpus& corpus,
                       const std::vector<RetrievalExample>& examples);

  /// MRR / Hit@k ranking every example's query against all corpus
  /// tables. A tie with the relevant table ranks the lower table index
  /// first.
  RankingReport Evaluate(const TableCorpus& corpus,
                         const std::vector<RetrievalExample>& examples);

  /// Embeds a query string (inference).
  Tensor EmbedQuery(const std::string& query);
  /// Embeds a table (inference).
  Tensor EmbedTable(const Table& table);

  /// Top-k table indices for a query against a corpus, best first;
  /// equal scores rank the lower table index first.
  std::vector<int64_t> TopK(const std::string& query,
                            const TableCorpus& corpus, int64_t k);

 private:
  /// Tokenizes a bare text query into a context-only TokenizedTable.
  TokenizedTable SerializeQuery(const std::string& query) const;

  ag::Variable ForwardQuery(const std::string& query, Rng& rng);
  ag::Variable ForwardTable(const Table& table, Rng& rng);
  /// EmbedQuery's graph-free encode, without its mode switches: the
  /// caller puts the model and the query head in eval mode.
  Tensor EncodeQuery(const std::string& query);
  /// Training mode of the encoder and both projection heads.
  void SetTraining(bool training);
  /// Embeds corpus table i into row i of an [N, embed_dim] matrix,
  /// in parallel and graph-free, with the rng EmbedTable uses. The
  /// caller puts the model and the table head in eval mode.
  Tensor EmbedCorpus(const TableCorpus& corpus);
  /// Fingerprints of the encoder and table-head parameter bytes and of
  /// each corpus table's content, independent of the thread count. In
  /// the same fork-join, (*embedded)[i] = EncodeQuery(*queries[i]).
  void Fingerprint(const TableCorpus& corpus,
                   const std::vector<const std::string*>& queries,
                   std::vector<Tensor>* embedded, uint64_t* weights,
                   std::vector<uint64_t>* tables);
  /// Brings index_ up to date with `corpus` and the current weights,
  /// re-embedding the corpus when a fingerprint does not match, and
  /// embeds `queries` into `embedded` beside the check. Eval mode holds
  /// for the whole call.
  const Tensor& SyncIndex(const TableCorpus& corpus,
                          const std::vector<const std::string*>& queries,
                          std::vector<Tensor>* embedded);

  /// What the corpus index rows embed: the weights and, per row, the
  /// table content.
  struct CorpusIndex {
    uint64_t weights = 0;
    std::vector<uint64_t> tables;
    Tensor rows;  // [tables.size(), embed_dim], L2-normalized
  };

  TableEncoderModel* model_;
  const TableSerializer* serializer_;
  /// Table-side serializer variant without context (otherwise the
  /// caption string would leak the answer).
  TableSerializer table_serializer_;
  FineTuneConfig config_;
  int64_t embed_dim_;
  Rng rng_;
  models::ProjectionHead query_proj_;
  models::ProjectionHead table_proj_;
  std::unique_ptr<nn::Adam> optimizer_;
  CorpusIndex index_;

  /// Reads index_ in tests/retrieval_index_test.cc.
  friend struct RetrievalIndexPeer;
};

}  // namespace tabrep

#endif  // TABREP_TASKS_RETRIEVAL_H_
