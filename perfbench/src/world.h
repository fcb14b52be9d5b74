#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

// Input generation and model sizes shared by the workloads, plus the
// direct per-layer probes of the traced run.

#include <cstdint>
#include <vector>

#include "common.h"
#include "models/table_encoder.h"
#include "serialize/serializer.h"
#include "table/corpus.h"
#include "text/wordpiece.h"

namespace perfbench {

/// Synthetic corpus for one workload: `tables` tables of
/// [min_rows, max_rows] rows, generated from the run seed (salted per
/// purpose so train and held-out corpora differ).
tabrep::TableCorpus MakeCorpus(uint64_t seed, uint64_t salt, int64_t tables,
                               int64_t min_rows, int64_t max_rows);

/// Trains the workload's tokenizer on (up to the first 256 tables of)
/// `corpus`.
tabrep::WordPieceTokenizer MakeTokenizer(const tabrep::TableCorpus& corpus);

/// A copy of `t` keeping a seed-chosen leading row range and a
/// seed-chosen non-empty column subset (in original order), so the
/// serialized lengths spread from a few tokens up to max_tokens.
tabrep::Table VaryShape(const tabrep::Table& t, uint64_t seed, uint64_t i);

/// The workloads' encoder: 2 layers, 4 heads, no dropout, 160
/// positions, of width `dim` and FFN width `ffn`.
tabrep::ModelConfig EncoderConfig(tabrep::ModelFamily family,
                                  int64_t vocab_size, int64_t entity_vocab,
                                  int64_t dim, int64_t ffn, uint64_t seed);

/// Inputs of the direct layer probes.
struct ProbeInputs {
  const std::vector<tabrep::Table>* tables = nullptr;  // sampled from
  const tabrep::TableSerializer* serializer = nullptr;
  tabrep::TableEncoderModel* model = nullptr;  // put in eval mode
  bool int8_calibrated = false;
};

/// Times WordPieceTokenizer::Encode, TableSerializer::Serialize and
/// inference-path TableEncoderModel::Encode (f32 and, when calibrated,
/// int8) on up to 32 sampled tables, and derives matmul GFLOP/s from
/// the ops.matmul span self time over the f32 encodes. Fills text.*,
/// serialize.us_per_table / tokens_per_table, models.encode_*,
/// tensor.matmul_gflops.
void RunLayerProbes(const ProbeInputs& in, RunResult* result);

/// Fills the per-layer metrics every workload reports from the
/// program's registry and spans over a traced phase of `ops`
/// operations: tensor / mem / runtime / serialize.calls_per_op /
/// models.encodes_per_op / nn.attention / nn.optimizer_step_us. Call
/// right after the phase, which must have begun with
/// ResetProgramCounters.
void FillProgramLayerMetrics(double ops, RunResult* result);

/// Zeroes the program registry and span buffers and switches the
/// library's spans on or off (start of a traced phase).
void ResetProgramCounters(bool trace_library);

/// Every per-layer metric name with its unit, in report order. A traced
/// run prints all of them; the ones its workload does not exercise read
/// 0.
const std::vector<std::pair<const char*, const char*>>& LayerMetricUnits();

/// Sets a per-layer metric (name must be in LayerMetricUnits()).
void SetLayer(RunResult* result, const char* name, double value);

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
