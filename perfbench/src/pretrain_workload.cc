// pretrain: TURL-family MLM+MER pretraining (PretrainTrainer::Train,
// the Fig. 2c exercise) on a synthetic corpus. The run repeats rounds
// of a fixed step count until its time is up; one operation is one
// training example, and step latency is timed from outside through the
// trainer's MetricsSink (one record per optimizer step).

#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>

#include "checks.h"
#include "common/rng.h"
#include "models/heads.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "pretrain/masking.h"
#include "pretrain/trainer.h"
#include "workloads.h"
#include "world.h"

namespace perfbench {

using namespace tabrep;

namespace {

constexpr int64_t kTrainTables = 128;
constexpr int64_t kHeldoutTables = 32;
constexpr int64_t kStepsPerRound = 8;
constexpr int64_t kBatch = 4;
constexpr int64_t kMaxTokens = 96;
// The run report's latency_tail_us is the median over windows of 200
// steps of each window's p90 (twenty samples beyond it per window).
constexpr double kTailQuantile = 0.90;
constexpr size_t kTailWindowSteps = 200;

/// Timestamps every optimizer-step record: a step's latency is the gap
/// since the previous record (or the round's start), and its loss is
/// the record's mlm_loss.
class StepTimer : public obs::MetricsSink {
 public:
  void StartRound() {
    std::lock_guard<std::mutex> lock(mu_);
    last_ = Clock::now();
    round_span_parent_ = spans::Current();
  }
  void Record(const obs::StepRecord& record) override {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    if (record.stream != "pretrain") return;
    step_us.push_back(Us(now - last_));
    mlm_loss.push_back(record.Get("mlm_loss", NAN));
    mer_loss.push_back(record.Get("mer_loss", NAN));
    spans::Record("pretrain.train_step", last_, now,
                  static_cast<uint64_t>(step_us.size()), round_span_parent_);
    last_ = now;
  }
  std::vector<double> step_us;
  std::vector<double> mlm_loss;
  std::vector<double> mer_loss;

 private:
  std::mutex mu_;
  Clock::time_point last_{};
  uint64_t round_span_parent_ = 0;
};

/// Forward (encode + heads + loss) and ag::Backward timed separately on
/// sampled examples, on a separate model so the trained one is not
/// touched.
void ProbeForwardBackward(const ModelConfig& config,
                          const std::vector<TokenizedTable>& examples,
                          RunResult* result) {
  TableEncoderModel model(config);
  model.SetTraining(true);
  Rng rng(5);
  models::MlmHead mlm(&model, rng);
  models::EntityRecoveryHead mer(&model, rng);
  MlmOptions mlm_opts;
  mlm_opts.vocab_size = static_cast<int32_t>(config.vocab_size);
  MerOptions mer_opts;
  double fwd_us = 0.0, bwd_us = 0.0;
  int64_t n = 0;
  for (const TokenizedTable& t : examples) {
    MlmExample ex = ApplyMlmMasking(t, mlm_opts, rng);
    MerExample mex = ApplyMerMasking(t, mer_opts, rng);
    if (ex.num_masked == 0) continue;
    Clock::time_point t0 = Clock::now();
    ag::Variable loss;
    bool has_mer = false;
    ag::Variable mer_loss;
    {
      ScopedSpan span("probe.forward");
      models::Encoded enc = model.Encode(ex.input, rng, {.need_cells = false});
      loss = ag::CrossEntropy(mlm.Forward(enc.hidden), ex.targets,
                              kIgnoreTarget);
      if (mex.num_masked > 0) {
        models::Encoded menc = model.Encode(mex.input, rng);
        if (menc.has_cells) {
          mer_loss = ag::CrossEntropy(mer.Forward(menc.cells),
                                      mex.cell_targets, kIgnoreTarget);
          has_mer = true;
        }
      }
    }
    Clock::time_point t1 = Clock::now();
    {
      ScopedSpan span("probe.backward");
      ag::Backward(loss);
      if (has_mer) ag::Backward(mer_loss);
    }
    Clock::time_point t2 = Clock::now();
    fwd_us += Us(t1 - t0);
    bwd_us += Us(t2 - t1);
    ++n;
  }
  if (n > 0) {
    SetLayer(result, "nn.forward_us_per_example", fwd_us / static_cast<double>(n));
    SetLayer(result, "nn.backward_us_per_example", bwd_us / static_cast<double>(n));
  }
}

}  // namespace

RunResult RunPretrain(const RunConfig& config) {
  RunResult result;
  SetupClock clock;
  TableCorpus corpus = MakeCorpus(config.seed, 2, kTrainTables, 3, 10);
  SetLayer(&result, "setup.corpus_s", clock.Lap());
  WordPieceTokenizer tokenizer = MakeTokenizer(corpus);
  SerializerOptions sopts;
  sopts.max_tokens = kMaxTokens;
  TableSerializer serializer(&tokenizer, sopts);
  SetLayer(&result, "setup.tokenizer_s", clock.Lap());
  const ModelConfig model_config = EncoderConfig(
      ModelFamily::kTurl, tokenizer.vocab().size(),
      static_cast<int64_t>(corpus.entities.size()), 48, 96, 31);
  TableEncoderModel model(model_config);
  StepTimer timer;
  PretrainConfig pconfig;
  pconfig.steps = kStepsPerRound;
  pconfig.batch_size = kBatch;
  pconfig.peak_lr = 1e-3f;
  pconfig.warmup_steps = 2;
  pconfig.use_mer = true;
  pconfig.seed = 7;
  pconfig.sink = &timer;
  PretrainTrainer trainer(&model, &serializer, pconfig);
  SetLayer(&result, "setup.model_s", clock.Lap());
  // Train() serializes the training corpus itself; the benchmark's own
  // input is the held-out corpus.
  TableCorpus heldout = MakeCorpus(config.seed, 3, kHeldoutTables, 3, 10);
  SetLayer(&result, "setup.inputs_s", clock.Lap());
  const double setup_s = Sec(Clock::now() - ProcessStart());

  // Rounds of kStepsPerRound steps until the phase's time is up; the
  // phase's throughput is the median over rounds of examples per
  // second (each round's time includes Train's own set-up).
  int64_t rounds = 0;
  auto run_rounds = [&](double seconds) {
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    std::vector<double> round_rates;
    do {
      ScopedSpan span("pretrain.round", static_cast<uint64_t>(rounds + 1));
      const Clock::time_point r0 = Clock::now();
      timer.StartRound();
      trainer.Train(corpus);
      ++rounds;
      round_rates.push_back(static_cast<double>(kStepsPerRound * kBatch) /
                            Sec(Clock::now() - r0));
    } while (Clock::now() < end);
    return Quantile(round_rates, 0.5);
  };

  double throughput = 0.0;
  if (!config.trace) {
    throughput = run_rounds(config.seconds);
  } else {
    const double base = run_rounds(0.25 * config.seconds);
    const int64_t base_examples = rounds * kStepsPerRound * kBatch;
    ResetProgramCounters(true);
    spans::SetEnabled(true);
    throughput = run_rounds(0.75 * config.seconds);
    spans::SetEnabled(false);
    obs::SetTracingEnabled(false);
    const double traced_examples =
        static_cast<double>(rounds * kStepsPerRound * kBatch - base_examples);
    FillProgramLayerMetrics(traced_examples, &result);
    const auto program = ProgramSpanTotals();
    const auto it = program.find("pretrain.step");
    if (it != program.end() && it->second.calls > 0) {
      SetLayer(&result, "pretrain.step.self_us",
               it->second.self_us / static_cast<double>(it->second.calls));
    }
    SetLayer(&result, "obs.tracing_base_ops_per_s", base);
    SetLayer(&result, "obs.tracing_overhead_pct",
             100.0 * (base - throughput) / base);
  }
  const double peak_rss = PeakRssMb();
  result.attempted = rounds * kStepsPerRound * kBatch;
  result.failed = 0;
  SetEndToEnd(&result, setup_s, Quantile(timer.step_us, 0.5),
              WindowedQuantile(timer.step_us, kTailWindowSteps, kTailQuantile),
              throughput, peak_rss);
  result.notes["pretrain.rounds"] = static_cast<double>(rounds);
  result.notes["pretrain.step0_mlm_loss"] =
      timer.mlm_loss.empty() ? NAN : timer.mlm_loss.front();

  // Checks: step-0 loss near ln(V); every loss finite; held-out MLM
  // loss below a freshly initialized model's (same seeds, same masks).
  std::vector<double> losses = timer.mlm_loss;
  losses.insert(losses.end(), timer.mer_loss.begin(), timer.mer_loss.end());
  const double step0 = timer.mlm_loss.empty() ? NAN : timer.mlm_loss.front();
  const int64_t vocab = model_config.vocab_size;
  result.checks.Real("pretrain.step0_loss_near_uniform",
                     CheckStep0Loss(step0, vocab));
  result.checks.Real("pretrain.losses_finite", CheckLossesFinite(losses));
  const Clock::time_point e0 = Clock::now();
  const PretrainEval trained = trainer.Evaluate(heldout, kHeldoutTables);
  const double eval_s = Sec(Clock::now() - e0);
  TableEncoderModel fresh_model(model_config);
  PretrainConfig fresh_config = pconfig;
  fresh_config.sink = nullptr;
  PretrainTrainer fresh(&fresh_model, &serializer, fresh_config);
  const PretrainEval untrained = fresh.Evaluate(heldout, kHeldoutTables);
  result.checks.Real("pretrain.heldout_loss_improves",
                     CheckHeldoutImproved(trained.mlm_loss, untrained.mlm_loss));
  result.notes["pretrain.heldout_mlm_loss"] = trained.mlm_loss;
  result.notes["pretrain.fresh_heldout_mlm_loss"] = untrained.mlm_loss;

  result.checks.Corrupted("pretrain.step0_loss_near_uniform",
                          CheckStep0Loss(step0 + 2 * kStep0LossMargin, vocab));
  std::vector<double> bad = losses;
  bad[bad.size() / 2] = NAN;
  result.checks.Corrupted("pretrain.losses_finite", CheckLossesFinite(bad));
  result.checks.Corrupted(
      "pretrain.heldout_loss_improves",
      CheckHeldoutImproved(untrained.mlm_loss, untrained.mlm_loss));

  if (config.trace) {
    SetLayer(&result, "pretrain.heldout_eval_s", eval_s);
    spans::SetEnabled(true);
    std::vector<TokenizedTable> sample;
    for (size_t i = 0; i < 16 && i < corpus.tables.size(); ++i) {
      sample.push_back(serializer.Serialize(corpus.tables[i]));
    }
    ProbeForwardBackward(model_config, sample, &result);
    ProbeInputs probe;
    probe.tables = &corpus.tables;
    probe.serializer = &serializer;
    probe.model = &model;
    RunLayerProbes(probe, &result);
    spans::SetEnabled(false);
  }
  return result;
}

}  // namespace perfbench
