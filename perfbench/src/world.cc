#include "world.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serialize/vocab_builder.h"
#include "table/synth.h"

namespace perfbench {

using namespace tabrep;

namespace {

/// WordPiece vocabulary size every workload trains its tokenizer to.
constexpr int64_t kVocabSize = 1500;

/// FLOPs of the Linear projections (Q, K, V, out, two FFN matrices per
/// layer) for one encode of `tokens` tokens: computed from the model
/// shape, not measured.
double EncoderLinearFlops(const ModelConfig& config, int64_t tokens) {
  const double d = static_cast<double>(config.transformer.dim);
  const double f = static_cast<double>(config.transformer.ffn_dim);
  const double per_layer = 4.0 * d * d + 2.0 * d * f;  // MACs per token
  return 2.0 * static_cast<double>(tokens) * per_layer *
         static_cast<double>(config.transformer.num_layers);
}

}  // namespace

TableCorpus MakeCorpus(uint64_t seed, uint64_t salt, int64_t tables,
                       int64_t min_rows, int64_t max_rows) {
  SyntheticCorpusOptions options;
  options.num_tables = tables;
  options.min_rows = min_rows;
  options.max_rows = max_rows;
  options.seed = Mix64(seed, salt);
  return GenerateSyntheticCorpus(options);
}

WordPieceTokenizer MakeTokenizer(const TableCorpus& corpus) {
  TableCorpus head;
  head.entities = corpus.entities;
  const size_t n = std::min<size_t>(corpus.tables.size(), 256);
  head.tables.assign(corpus.tables.begin(),
                     corpus.tables.begin() + static_cast<std::ptrdiff_t>(n));
  WordPieceTrainerOptions options;
  options.vocab_size = kVocabSize;
  return BuildCorpusTokenizer(head, options);
}

Table VaryShape(const Table& t, uint64_t seed, uint64_t i) {
  const int64_t rows = t.num_rows();
  const int64_t cols = t.num_columns();
  const int64_t keep_rows =
      rows == 0 ? 0
                : 1 + static_cast<int64_t>(Mix64(seed, 2 * i) %
                                           static_cast<uint64_t>(rows));
  std::vector<int64_t> keep_cols;
  const uint64_t mask = Mix64(seed, 2 * i + 1);
  for (int64_t c = 0; c < cols; ++c) {
    if ((mask >> (c % 64)) & 1) keep_cols.push_back(c);
  }
  if (keep_cols.empty() && cols > 0) {
    keep_cols.push_back(static_cast<int64_t>(mask % static_cast<uint64_t>(cols)));
  }
  return t.SliceRows(0, keep_rows).ProjectColumns(keep_cols);
}

ModelConfig EncoderConfig(ModelFamily family, int64_t vocab_size,
                          int64_t entity_vocab, int64_t dim, int64_t ffn,
                          uint64_t seed) {
  ModelConfig config;
  config.family = family;
  config.vocab_size = vocab_size;
  config.entity_vocab_size = entity_vocab;
  config.transformer.dim = dim;
  config.transformer.num_layers = 2;
  config.transformer.num_heads = 4;
  config.transformer.ffn_dim = ffn;
  config.transformer.dropout = 0.0f;
  config.max_position = 160;
  config.seed = seed;
  return config;
}

const std::vector<std::pair<const char*, const char*>>& LayerMetricUnits() {
  static const std::vector<std::pair<const char*, const char*>> kUnits = {
      {"setup.corpus_s", "s"},
      {"setup.tokenizer_s", "s"},
      {"setup.model_s", "s"},
      {"setup.inputs_s", "s"},
      {"text.wordpiece_us_per_table", "us"},
      {"serialize.us_per_table", "us"},
      {"serialize.tokens_per_table", "tokens"},
      {"serialize.calls_per_op", "calls/op"},
      {"models.encode_f32_us_per_table", "us"},
      {"models.encode_int8_us_per_table", "us"},
      {"models.encodes_per_op", "encodes/op"},
      {"tensor.matmul.self_us_per_op", "us/op"},
      {"tensor.matmul.calls_per_op", "calls/op"},
      {"tensor.matmul_tb.self_us_per_op", "us/op"},
      {"tensor.matmul_tb.calls_per_op", "calls/op"},
      {"tensor.fused_attention.self_us_per_op", "us/op"},
      {"tensor.fused_attention.calls_per_op", "calls/op"},
      {"tensor.softmax.self_us_per_op", "us/op"},
      {"tensor.softmax.calls_per_op", "calls/op"},
      {"tensor.matmul_gflops", "GFLOP/s"},
      {"mem.pool_hit_ratio", "ratio"},
      {"mem.pool_lookups", "count"},
      {"mem.arena_bytes_per_op", "B/op"},
      {"nn.attention.self_us_per_op", "us/op"},
      {"nn.optimizer_step_us", "us"},
      {"nn.forward_us_per_example", "us"},
      {"nn.backward_us_per_example", "us"},
      {"runtime.parallel_for_calls_per_op", "calls/op"},
      {"runtime.parallel_for_calls", "count"},
      {"runtime.inline_ratio", "ratio"},
      {"runtime.chunk.self_us_per_op", "us/op"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.cache_lookups", "count"},
      {"serve.batch_size_mean", "tables"},
      {"serve.coalesced", "count"},
      {"serve.requests", "count"},
      {"serve.stage.queue_us_mean", "us"},
      {"serve.stage.queue_us_p99", "us"},
      {"serve.stage.batch_us_mean", "us"},
      {"serve.stage.batch_us_p99", "us"},
      {"serve.stage.inference_us_mean", "us"},
      {"serve.stage.inference_us_p99", "us"},
      {"cluster.steal_ratio", "ratio"},
      {"cluster.routed", "count"},
      {"cluster.reload_us", "us"},
      {"cluster.reloads", "count"},
      {"cluster.version_regressions", "count"},
      {"net.stage.decode_us", "us"},
      {"net.stage.serialize_us", "us"},
      {"net.stage.write_us", "us"},
      {"net.request_us", "us"},
      {"net.client_overhead_us", "us"},
      {"net.bytes_per_response", "B"},
      {"pretrain.step.self_us", "us"},
      {"pretrain.heldout_eval_s", "s"},
      {"tasks.embed_query_us", "us"},
      {"tasks.topk_us", "us"},
      {"loadgen.lateness_p99_us", "us"},
      {"loadgen.request_p99_us", "us"},
      {"obs.ops", "count"},
      {"obs.tracing_base_ops_per_s", "1/s"},
      {"obs.tracing_overhead_pct", "%"},
  };
  return kUnits;
}

void SetLayer(RunResult* result, const char* name, double value) {
  for (const auto& [n, unit] : LayerMetricUnits()) {
    if (std::string(n) == name) {
      result->layers[name] = {value, unit};
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown layer metric %s\n", name);
  std::abort();
}

void ResetProgramCounters(bool trace_library) {
  obs::Registry::Get().ResetAll();
  obs::ClearTrace();
  obs::SetTracingEnabled(trace_library);
}

void FillProgramLayerMetrics(double ops, RunResult* result) {
  const double per = ops > 0 ? 1.0 / ops : 0.0;
  result->program_spans = ProgramSpanTotals();
  const std::map<std::string, ProgramSpan>& program = result->program_spans;
  auto span = [&](const char* name) {
    auto it = program.find(name);
    return it == program.end() ? ProgramSpan{} : it->second;
  };
  const struct {
    const char* span;
    const char* self_metric;
    const char* calls_metric;
  } kOps[] = {
      {"ops.matmul", "tensor.matmul.self_us_per_op",
       "tensor.matmul.calls_per_op"},
      {"ops.matmul_tb", "tensor.matmul_tb.self_us_per_op",
       "tensor.matmul_tb.calls_per_op"},
      {"ops.fused_attention", "tensor.fused_attention.self_us_per_op",
       "tensor.fused_attention.calls_per_op"},
      {"ops.softmax", "tensor.softmax.self_us_per_op",
       "tensor.softmax.calls_per_op"},
  };
  for (const auto& op : kOps) {
    const ProgramSpan s = span(op.span);
    SetLayer(result, op.self_metric, s.self_us * per);
    SetLayer(result, op.calls_metric, static_cast<double>(s.calls) * per);
  }
  SetLayer(result, "nn.attention.self_us_per_op",
           span("nn.attention").self_us * per);
  SetLayer(result, "runtime.chunk.self_us_per_op",
           span("runtime.chunk").self_us * per);

  const double hit = static_cast<double>(CounterValue("tabrep.mem.pool.hit"));
  const double miss = static_cast<double>(CounterValue("tabrep.mem.pool.miss"));
  SetLayer(result, "mem.pool_lookups", hit + miss);
  SetLayer(result, "mem.pool_hit_ratio",
           hit + miss > 0 ? hit / (hit + miss) : 0.0);
  SetLayer(result, "mem.arena_bytes_per_op",
           static_cast<double>(CounterValue("tabrep.mem.arena.bytes")) * per);

  const double pf =
      static_cast<double>(CounterValue("tabrep.runtime.parallel_for.calls"));
  const double pf_inline =
      static_cast<double>(CounterValue("tabrep.runtime.parallel_for.inline"));
  SetLayer(result, "runtime.parallel_for_calls", pf);
  SetLayer(result, "runtime.parallel_for_calls_per_op", pf * per);
  SetLayer(result, "runtime.inline_ratio", pf > 0 ? pf_inline / pf : 0.0);

  SetLayer(result, "serialize.calls_per_op",
           static_cast<double>(CounterValue("tabrep.serialize.calls")) * per);
  SetLayer(result, "models.encodes_per_op",
           static_cast<double>(CounterValue("tabrep.models.encode.infer") +
                               CounterValue("tabrep.models.encode.graph")) *
               per);
  const HistSummary opt = HistogramValue("tabrep.nn.optimizer.step.us");
  SetLayer(result, "nn.optimizer_step_us", opt.mean);
  SetLayer(result, "obs.ops", ops);
}

void RunLayerProbes(const ProbeInputs& in, RunResult* result) {
  const std::vector<Table>& tables = *in.tables;
  const size_t n = std::min<size_t>(tables.size(), 32);
  if (n == 0) return;
  const TableSerializer& serializer = *in.serializer;

  double wordpiece_us = 0.0, serialize_us = 0.0, tokens = 0.0;
  double wordpieces = 0.0;
  std::vector<TokenizedTable> inputs;
  inputs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const std::string text = serializer.LinearizeToString(tables[i]);
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span("probe.wordpiece_encode");
      std::vector<int32_t> ids = serializer.tokenizer()->Encode(text);
      wordpieces += static_cast<double>(ids.size());
    }
    Clock::time_point t1 = Clock::now();
    {
      ScopedSpan span("probe.serialize");
      inputs.push_back(serializer.Serialize(tables[i]));
    }
    Clock::time_point t2 = Clock::now();
    wordpiece_us += Us(t1 - t0);
    serialize_us += Us(t2 - t1);
    tokens += static_cast<double>(inputs.back().size());
  }
  const double dn = static_cast<double>(n);
  SetLayer(result, "text.wordpiece_us_per_table", wordpiece_us / dn);
  SetLayer(result, "serialize.us_per_table", serialize_us / dn);
  SetLayer(result, "serialize.tokens_per_table", tokens / dn);
  result->notes["probe.wordpieces_per_table"] = wordpieces / dn;

  TableEncoderModel& model = *in.model;
  model.SetTraining(false);
  auto time_encodes = [&](kernels::Precision precision) {
    Rng rng(1);
    models::EncodeOptions options;
    options.need_cells = false;
    options.inference = true;
    options.precision = precision;
    model.Encode(inputs[0], rng, options);  // warm the arena and pool
    double us = 0.0;
    for (const TokenizedTable& input : inputs) {
      ScopedSpan span("probe.encode");
      const Clock::time_point t0 = Clock::now();
      model.Encode(input, rng, options);
      us += Us(Clock::now() - t0);
    }
    return us / dn;
  };
  // GFLOP/s: Linear-projection FLOPs from the model shape over the
  // ops.matmul self time of the same f32 encodes.
  const bool was_tracing = obs::TracingEnabled();
  obs::SetTracingEnabled(true);
  obs::ClearTrace();
  SetLayer(result, "models.encode_f32_us_per_table",
           time_encodes(kernels::Precision::kFloat32));
  const ProgramSpan mm = [] {
    auto totals = ProgramSpanTotals();
    auto it = totals.find("ops.matmul");
    return it == totals.end() ? ProgramSpan{} : it->second;
  }();
  double flops = EncoderLinearFlops(model.config(), inputs[0].size());
  for (const TokenizedTable& input : inputs) {
    flops += EncoderLinearFlops(model.config(), input.size());
  }
  SetLayer(result, "tensor.matmul_gflops",
           mm.self_us > 0 ? flops / (mm.self_us * 1e3) : 0.0);
  result->notes["probe.matmul_calls_per_encode"] =
      static_cast<double>(mm.calls) / (dn + 1.0);
  obs::SetTracingEnabled(was_tracing);
  SetLayer(result, "models.encode_int8_us_per_table",
           in.int8_calibrated ? time_encodes(kernels::Precision::kInt8) : 0.0);
}

}  // namespace perfbench
