#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "models/table_encoder.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "serialize/vocab_builder.h"
#include "serve/cluster.h"
#include "table/synth.h"

// Model-level contract of the int8 quantized inference path (ISSUE 9):
// calibrated int8 encodes track f32 within tolerance, stay bitwise
// reproducible across thread counts, survive a checkpoint round trip,
// and stay distinguishable from f32 end to end (serve cache keys and
// the wire precision flag).

namespace tabrep {
namespace {

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Shared tiny-corpus fixture (same shape as ServeFixture: building
/// the vocab once is the slow part).
class QuantFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticCorpusOptions opts;
    opts.num_tables = 30;
    corpus_ = new TableCorpus(GenerateSyntheticCorpus(opts));
    WordPieceTrainerOptions topts;
    topts.vocab_size = 1500;
    tokenizer_ = new WordPieceTokenizer(BuildCorpusTokenizer(*corpus_, topts));
    SerializerOptions sopts;
    sopts.max_tokens = 96;
    serializer_ = new TableSerializer(tokenizer_, sopts);
  }
  static void TearDownTestSuite() {
    delete serializer_;
    delete tokenizer_;
    delete corpus_;
    serializer_ = nullptr;
    tokenizer_ = nullptr;
    corpus_ = nullptr;
  }

  static ModelConfig TinyConfig(ModelFamily family) {
    ModelConfig config;
    config.family = family;
    config.vocab_size = tokenizer_->vocab().size();
    config.entity_vocab_size = corpus_->entities.size();
    config.transformer.dim = 32;
    config.transformer.num_layers = 1;
    config.transformer.num_heads = 2;
    config.transformer.ffn_dim = 64;
    config.transformer.dropout = 0.0f;
    config.max_position = 128;
    return config;
  }

  static TokenizedTable Table(int i) {
    return serializer_->Serialize(corpus_->tables[static_cast<size_t>(i)]);
  }

  static std::vector<TokenizedTable> CalibrationCorpus(int n) {
    std::vector<TokenizedTable> out;
    for (int i = 0; i < n; ++i) out.push_back(Table(i));
    return out;
  }

  static Tensor EncodeHidden(models::TableEncoderModel& model,
                             const TokenizedTable& input,
                             kernels::Precision precision) {
    models::EncodeOptions opts;
    opts.need_cells = true;
    opts.inference = true;
    opts.precision = precision;
    Rng rng(1);
    return model.Encode(input, rng, opts).hidden.value();
  }

  static TableCorpus* corpus_;
  static WordPieceTokenizer* tokenizer_;
  static TableSerializer* serializer_;
};

TableCorpus* QuantFixture::corpus_ = nullptr;
WordPieceTokenizer* QuantFixture::tokenizer_ = nullptr;
TableSerializer* QuantFixture::serializer_ = nullptr;

/// Restores the default (env-resolved) pool on scope exit.
struct ThreadCountGuard {
  ~ThreadCountGuard() { runtime::Configure({0}); }
};

TEST_F(QuantFixture, UncalibratedInt8FallsBackToFloatBitwise) {
  TableEncoderModel model(TinyConfig(ModelFamily::kVanilla));
  model.SetTraining(false);
  obs::Counter& fallback =
      obs::Registry::Get().counter("tabrep.nn.int8_fallback");
  const TokenizedTable input = Table(0);
  Tensor f32 = EncodeHidden(model, input, kernels::Precision::kFloat32);
  const uint64_t before = fallback.value();
  Tensor int8 = EncodeHidden(model, input, kernels::Precision::kInt8);
  // Every Linear is uncalibrated, so each one falls back — the request
  // degrades to the f32 path bit for bit rather than failing.
  EXPECT_GT(fallback.value(), before);
  EXPECT_TRUE(BitwiseEqual(f32, int8));
}

TEST_F(QuantFixture, CalibratedInt8TracksFloatWithinTolerance) {
  // kTabert also routes precision through the vertical-attention stage.
  TableEncoderModel model(TinyConfig(ModelFamily::kTabert));
  model.SetTraining(false);
  const int64_t calibrated = model.CalibrateInt8(CalibrationCorpus(8));
  EXPECT_GT(calibrated, 0);
  obs::Counter& fallback =
      obs::Registry::Get().counter("tabrep.nn.int8_fallback");
  for (int ti : {0, 3, 7}) {
    const TokenizedTable input = Table(ti);
    Tensor f32 = EncodeHidden(model, input, kernels::Precision::kFloat32);
    const uint64_t before = fallback.value();
    Tensor int8 = EncodeHidden(model, input, kernels::Precision::kInt8);
    // Every projection is calibrated: no layer may fall back.
    EXPECT_EQ(fallback.value(), before) << "table " << ti;
    ASSERT_EQ(f32.shape(), int8.shape());
    double max_diff = 0.0, sum_diff = 0.0;
    for (int64_t i = 0; i < f32.numel(); ++i) {
      const double d = std::fabs(static_cast<double>(f32.data()[i]) -
                                 static_cast<double>(int8.data()[i]));
      max_diff = std::max(max_diff, d);
      sum_diff += d;
    }
    const double mean_diff = sum_diff / static_cast<double>(f32.numel());
    // Post-layernorm activations are O(1), so these are relative-ish
    // bounds: the 7-bit path must stay close but is not expected to be
    // bitwise (that would mean the quantized kernels never ran).
    EXPECT_LT(max_diff, 0.5) << "table " << ti;
    EXPECT_LT(mean_diff, 0.05) << "table " << ti;
    EXPECT_GT(max_diff, 0.0) << "table " << ti;
  }
}

TEST_F(QuantFixture, Int8EncodeThreadCountInvariantBitwise) {
  TableEncoderModel model(TinyConfig(ModelFamily::kVanilla));
  model.SetTraining(false);
  ASSERT_GT(model.CalibrateInt8(CalibrationCorpus(6)), 0);
  const TokenizedTable input = Table(2);
  ThreadCountGuard guard;
  runtime::Configure({1});
  Tensor one = EncodeHidden(model, input, kernels::Precision::kInt8);
  runtime::Configure({4});
  Tensor four = EncodeHidden(model, input, kernels::Precision::kInt8);
  EXPECT_TRUE(BitwiseEqual(one, four));
}

TEST_F(QuantFixture, CheckpointRoundTripReproducesInt8Bitwise) {
  const ModelConfig config = TinyConfig(ModelFamily::kVanilla);
  TableEncoderModel exported(config);
  exported.SetTraining(false);
  ASSERT_GT(exported.CalibrateInt8(CalibrationCorpus(6)), 0);
  TensorMap state = exported.ExportStateDict();
  int quant_entries = 0;
  for (const auto& [name, tensor] : state) {
    if (name.rfind("quant/", 0) == 0) ++quant_entries;
  }
  // Calibrated layers export act_absmax + w_scale pairs.
  EXPECT_GT(quant_entries, 0);
  EXPECT_EQ(quant_entries % 2, 0);

  TableEncoderModel imported(config);
  imported.SetTraining(false);
  Status status = imported.ImportStateDict(state);
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (int ti : {0, 4}) {
    const TokenizedTable input = Table(ti);
    Tensor a = EncodeHidden(exported, input, kernels::Precision::kInt8);
    Tensor b = EncodeHidden(imported, input, kernels::Precision::kInt8);
    EXPECT_TRUE(BitwiseEqual(a, b)) << "table " << ti;
  }
}

TEST_F(QuantFixture, ImportRejectsInconsistentRecordedScales) {
  const ModelConfig config = TinyConfig(ModelFamily::kVanilla);
  TableEncoderModel exported(config);
  exported.SetTraining(false);
  ASSERT_GT(exported.CalibrateInt8(CalibrationCorpus(4)), 0);
  TensorMap state = exported.ExportStateDict();
  bool tampered = false;
  for (auto& [name, tensor] : state) {
    const std::string suffix = "w_scale";
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      tensor.data()[0] += 1.0f;  // break the recorded per-channel scale
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered);
  TableEncoderModel imported(config);
  imported.SetTraining(false);
  Status status = imported.ImportStateDict(state);
  EXPECT_FALSE(status.ok());
}

TEST_F(QuantFixture, ServeCachesInt8AndFloatSeparately) {
  TableEncoderModel model(TinyConfig(ModelFamily::kVanilla));
  model.SetTraining(false);
  ASSERT_GT(model.CalibrateInt8(CalibrationCorpus(6)), 0);
  serve::Cluster cluster(&model);
  const TokenizedTable input = Table(1);

  StatusOr<serve::EncodedTablePtr> f32 = cluster.Encode(input);
  ASSERT_TRUE(f32.ok()) << f32.status().ToString();
  StatusOr<serve::EncodedTablePtr> int8 =
      cluster.Encode(input, kernels::Precision::kInt8);
  ASSERT_TRUE(int8.ok()) << int8.status().ToString();

  // Same table, distinct cache identities and result labels: an int8
  // client must never be served a cached f32 encoding (or vice versa).
  EXPECT_NE(f32.value().get(), int8.value().get());
  EXPECT_EQ(f32.value()->precision, kernels::Precision::kFloat32);
  EXPECT_EQ(int8.value()->precision, kernels::Precision::kInt8);
  EXPECT_FALSE(BitwiseEqual(f32.value()->hidden, int8.value()->hidden));

  // Re-asking under each precision hits the matching cache entry.
  StatusOr<serve::EncodedTablePtr> f32_again = cluster.Encode(input);
  ASSERT_TRUE(f32_again.ok());
  EXPECT_EQ(f32_again.value().get(), f32.value().get());
  StatusOr<serve::EncodedTablePtr> int8_again =
      cluster.Encode(input, kernels::Precision::kInt8);
  ASSERT_TRUE(int8_again.ok());
  EXPECT_EQ(int8_again.value().get(), int8.value().get());
}

TEST_F(QuantFixture, WireCarriesPrecisionFlagBothWays) {
  serve::EncodedTable encoded;
  encoded.hidden = Tensor::Zeros({3, 4});
  for (int64_t i = 0; i < encoded.hidden.numel(); ++i)
    encoded.hidden.data()[i] = static_cast<float>(i) * 0.25f;
  encoded.precision = kernels::Precision::kInt8;

  std::string payload;
  uint8_t flags = 0;
  net::EncodeEncodedTable(encoded, &payload, &flags);
  EXPECT_NE(flags & net::kFlagInt8, 0);
  StatusOr<serve::EncodedTable> back = net::DecodeEncodedTable(payload, flags);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().precision, kernels::Precision::kInt8);
  EXPECT_TRUE(BitwiseEqual(back.value().hidden, encoded.hidden));

  encoded.precision = kernels::Precision::kFloat32;
  payload.clear();
  flags = 0;
  net::EncodeEncodedTable(encoded, &payload, &flags);
  EXPECT_EQ(flags & net::kFlagInt8, 0);
  back = net::DecodeEncodedTable(payload, flags);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().precision, kernels::Precision::kFloat32);
}

}  // namespace
}  // namespace tabrep
