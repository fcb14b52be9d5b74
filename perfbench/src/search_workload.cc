// search: RetrievalTask::TopK queries over a corpus of a few hundred
// synthetic tables, one query at a time (TopK fans each query out over
// the runtime pool itself). One operation is one TopK query.

#include <cstdio>
#include <memory>

#include "checks.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "tasks/retrieval.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

using namespace tabrep;

namespace {

constexpr int64_t kCorpusTables = 300;
constexpr int64_t kDistinctQueries = 64;
constexpr int64_t kTopK = 10;
constexpr int64_t kMaxTokens = 128;
// A run holds a few hundred queries: the run report's latency_tail_us
// is the median over windows of 100 queries of each window's p90 (ten
// beyond it), throughput_per_s the median over windows of 10 queries
// of their rate.
constexpr double kTailQuantile = 0.90;
constexpr size_t kTailWindowQueries = 100;
constexpr size_t kRateWindowQueries = 10;

}  // namespace

RunResult RunSearch(const RunConfig& config) {
  RunResult result;
  SetupClock clock;
  TableCorpus corpus = MakeCorpus(config.seed, 4, kCorpusTables, 2, 12);
  SetLayer(&result, "setup.corpus_s", clock.Lap());
  WordPieceTokenizer tokenizer = MakeTokenizer(corpus);
  SerializerOptions sopts;
  sopts.max_tokens = kMaxTokens;
  TableSerializer serializer(&tokenizer, sopts);
  SetLayer(&result, "setup.tokenizer_s", clock.Lap());
  const ModelConfig model_config = EncoderConfig(
      ModelFamily::kTapas, tokenizer.vocab().size(),
      static_cast<int64_t>(corpus.entities.size()), 64, 128, 41);
  TableEncoderModel model(model_config);
  FineTuneConfig fconfig;
  fconfig.seed = 11;
  RetrievalTask task(&model, &serializer, fconfig, /*embed_dim=*/32);
  SetLayer(&result, "setup.model_s", clock.Lap());
  Rng qrng(Mix64(config.seed, 5));
  std::vector<RetrievalExample> examples =
      GenerateRetrievalExamples(corpus, qrng);
  qrng.Shuffle(examples);
  if (static_cast<int64_t>(examples.size()) > kDistinctQueries) {
    examples.resize(kDistinctQueries);
  }
  std::vector<std::string> queries;
  for (const RetrievalExample& ex : examples) queries.push_back(ex.query);
  SetLayer(&result, "setup.inputs_s", clock.Lap());
  const double setup_s = Sec(Clock::now() - ProcessStart());
  if (queries.empty()) {
    std::fprintf(stderr, "perfbench: no retrieval queries generated\n");
    std::exit(1);
  }

  std::vector<std::vector<int64_t>> answers;  // answers[i] for query i % Q
  std::vector<double> latency_us;
  auto run_queries = [&](double seconds, std::vector<double>* lat) {
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    do {
      const uint64_t i = answers.size();
      const std::string& q = queries[i % queries.size()];
      const Clock::time_point s = Clock::now();
      {
        ScopedSpan span("tasks.topk", i + 1);
        answers.push_back(task.TopK(q, corpus, kTopK));
      }
      lat->push_back(Us(Clock::now() - s));
    } while (Clock::now() < end);
    // Queries run back to back, so a window's rate is its size over the
    // sum of its latencies.
    std::vector<double> rates;
    for (size_t lo = 0; lo + kRateWindowQueries <= lat->size();
         lo += kRateWindowQueries) {
      double us = 0.0;
      for (size_t i = lo; i < lo + kRateWindowQueries; ++i) us += (*lat)[i];
      rates.push_back(1e6 * static_cast<double>(kRateWindowQueries) / us);
    }
    return rates.empty() ? static_cast<double>(lat->size()) /
                               Sec(Clock::now() - t0)
                         : Quantile(rates, 0.5);
  };

  double throughput = 0.0;
  if (!config.trace) {
    throughput = run_queries(config.seconds, &latency_us);
  } else {
    std::vector<double> base_lat;
    const double base = run_queries(0.25 * config.seconds, &base_lat);
    const size_t base_n = answers.size();
    ResetProgramCounters(true);
    spans::SetEnabled(true);
    throughput = run_queries(0.75 * config.seconds, &latency_us);
    spans::SetEnabled(false);
    obs::SetTracingEnabled(false);
    FillProgramLayerMetrics(static_cast<double>(answers.size() - base_n),
                            &result);
    SetLayer(&result, "tasks.topk_us", Mean(latency_us));
    SetLayer(&result, "obs.tracing_base_ops_per_s", base);
    SetLayer(&result, "obs.tracing_overhead_pct",
             100.0 * (base - throughput) / base);
  }
  const double peak_rss = PeakRssMb();
  result.attempted = static_cast<int64_t>(answers.size());
  result.failed = 0;
  SetEndToEnd(&result, setup_s, Quantile(latency_us, 0.5),
              WindowedQuantile(latency_us, kTailWindowQueries, kTailQuantile),
              throughput, peak_rss);

  // Check: every TopK answer equals the ranking the benchmark computes
  // from EmbedQuery / EmbedTable, its own dot products and its own sort.
  spans::SetEnabled(config.trace);
  std::vector<Tensor> table_embs;
  table_embs.reserve(corpus.tables.size());
  for (const Table& t : corpus.tables) {
    ScopedSpan span("tasks.embed_table");
    table_embs.push_back(task.EmbedTable(t));
  }
  const size_t distinct = std::min(queries.size(), answers.size());
  std::vector<std::vector<double>> scores(distinct);
  double embed_query_us = 0.0;
  for (size_t q = 0; q < distinct; ++q) {
    const Clock::time_point s = Clock::now();
    Tensor qe;
    {
      ScopedSpan span("tasks.embed_query", q + 1);
      qe = task.EmbedQuery(queries[q]);
    }
    embed_query_us += Us(Clock::now() - s);
    for (const Tensor& te : table_embs) {
      double dot = 0.0;
      for (int64_t j = 0; j < qe.numel(); ++j) {
        dot += static_cast<double>(qe.data()[j]) *
               static_cast<double>(te.data()[j]);
      }
      scores[q].push_back(dot);
    }
  }
  std::string error;
  for (size_t i = 0; i < answers.size() && error.empty(); ++i) {
    error = CheckTopK(answers[i], scores[i % distinct], kTopK);
    if (!error.empty()) error = "query " + std::to_string(i) + ": " + error;
  }
  result.checks.Real("search.topk_vs_independent_ranking", error);
  {
    // Corrupted: the first answer's best hit replaced by the table the
    // independent ranking puts last.
    std::vector<int64_t> bad = answers[0];
    const std::vector<double>& s = scores[0];
    bad[0] = std::min_element(s.begin(), s.end()) - s.begin();
    result.checks.Corrupted("search.topk_vs_independent_ranking",
                            CheckTopK(bad, s, kTopK));
  }
  result.notes["search.corpus_tables"] = static_cast<double>(corpus.size());
  result.notes["search.distinct_queries"] = static_cast<double>(distinct);

  if (config.trace) {
    SetLayer(&result, "tasks.embed_query_us",
             embed_query_us / static_cast<double>(distinct));
    ProbeInputs probe;
    probe.tables = &corpus.tables;
    probe.serializer = &serializer;
    probe.model = &model;
    RunLayerProbes(probe, &result);
  }
  spans::SetEnabled(false);
  return result;
}

}  // namespace perfbench
