#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "common/result.h"

#include "models/table_encoder.h"
#include "serialize/vocab_builder.h"
#include "serve/cluster.h"
#include "serve/serve.h"
#include "table/synth.h"
#include "tensor/io.h"

namespace tabrep {
namespace {

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Shared tiny-corpus fixture (same shape as ServeFixture: building
/// the vocab once is the slow part).
class ClusterFixture : public ::testing::Test {
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

  static ModelConfig TinyConfig() {
    ModelConfig config;
    config.family = ModelFamily::kTabert;
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

  static std::vector<TokenizedTable> Inputs(int64_t n) {
    std::vector<TokenizedTable> inputs;
    inputs.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      inputs.push_back(serializer_->Serialize(
          corpus_->tables[static_cast<size_t>(i) % corpus_->tables.size()]));
    }
    return inputs;
  }

  static TableCorpus* corpus_;
  static WordPieceTokenizer* tokenizer_;
  static TableSerializer* serializer_;
};

TableCorpus* ClusterFixture::corpus_ = nullptr;
WordPieceTokenizer* ClusterFixture::tokenizer_ = nullptr;
TableSerializer* ClusterFixture::serializer_ = nullptr;

TEST_F(ClusterFixture, ParityAcrossShardCountsIsBitwise) {
  ModelConfig config = TinyConfig();
  TableEncoderModel model(config);
  model.SetTraining(false);
  std::vector<TokenizedTable> inputs = Inputs(12);

  // Direct graph-free reference.
  models::EncodeOptions opts;
  opts.inference = true;
  std::vector<Tensor> reference;
  for (const TokenizedTable& in : inputs) {
    Rng rng(1);
    reference.push_back(model.Encode(in, rng, opts).hidden.value());
  }

  for (int64_t shards : {1, 2, 4}) {
    serve::ClusterOptions copts;
    copts.shards = shards;
    copts.steal_threshold = 0;
    serve::Cluster cluster(&model, copts);
    ASSERT_EQ(cluster.shard_count(), shards);
    for (size_t i = 0; i < inputs.size(); ++i) {
      StatusOr<serve::EncodedTablePtr> out = cluster.Encode(inputs[i]);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      EXPECT_TRUE(BitwiseEqual((*out)->hidden, reference[i]))
          << "table " << i << " with " << shards << " shards";
      EXPECT_EQ((*out)->weights_version, 1u);
    }
  }
}

TEST_F(ClusterFixture, AffinityRoutesRepeatsToTheSameWarmShard) {
  ModelConfig config = TinyConfig();
  TableEncoderModel model(config);
  model.SetTraining(false);
  std::vector<TokenizedTable> inputs = Inputs(12);

  serve::ClusterOptions copts;
  copts.shards = 4;
  copts.steal_threshold = 0;  // strict affinity
  copts.encoder.cache_capacity = 64;
  serve::Cluster cluster(&model, copts);

  // First pass fills exactly the home shards' caches...
  for (const TokenizedTable& in : inputs) {
    ASSERT_TRUE(cluster.Encode(in).ok());
  }
  std::vector<size_t> sizes_after_fill;
  size_t total = 0;
  for (int64_t s = 0; s < cluster.shard_count(); ++s) {
    sizes_after_fill.push_back(cluster.shard(s).cache().size());
    total += sizes_after_fill.back();
  }
  // Every distinct table is cached exactly once cluster-wide (no
  // replica holds a copy of another shard's working set).
  size_t distinct = 0;
  {
    std::vector<uint64_t> seen;
    for (const TokenizedTable& in : inputs) {
      const uint64_t h = serve::HashTokenizedTable(in);
      bool dup = false;
      for (uint64_t v : seen) dup = dup || v == h;
      if (!dup) seen.push_back(h);
    }
    distinct = seen.size();
  }
  EXPECT_EQ(total, distinct);

  // ...and repeats are pure hits: no cache grows.
  for (const TokenizedTable& in : inputs) {
    ASSERT_TRUE(cluster.Encode(in).ok());
  }
  for (int64_t s = 0; s < cluster.shard_count(); ++s) {
    EXPECT_EQ(cluster.shard(s).cache().size(),
              sizes_after_fill[static_cast<size_t>(s)])
        << "shard " << s << " cache grew on a repeat";
  }
  EXPECT_EQ(cluster.steal_count(), 0u);
  EXPECT_EQ(cluster.routed_count(), inputs.size() * 2);
}

TEST_F(ClusterFixture, SaturatedHomeShardStealsWithCorrectBytes) {
  ModelConfig config = TinyConfig();
  TableEncoderModel model(config);
  model.SetTraining(false);
  std::vector<TokenizedTable> inputs = Inputs(24);

  serve::ClusterOptions copts;
  copts.shards = 4;
  copts.steal_threshold = 1;
  copts.encoder.cache_capacity = 0;   // every request queues real work
  copts.encoder.max_batch = 1;
  copts.encoder.dispatch_delay_us = 2000;  // keep queues visibly deep
  serve::Cluster cluster(&model, copts);

  // Only tables homed on shard 0: with the home queue past the
  // threshold the router must redirect to other shards.
  std::vector<const TokenizedTable*> hot;
  for (const TokenizedTable& in : inputs) {
    if (cluster.HomeShard(in) == 0) hot.push_back(&in);
  }
  ASSERT_FALSE(hot.empty());

  models::EncodeOptions opts;
  opts.inference = true;
  std::vector<std::future<StatusOr<serve::EncodedTablePtr>>> futures;
  for (int round = 0; round < 6; ++round) {
    for (const TokenizedTable* in : hot) futures.push_back(cluster.Submit(*in));
  }
  size_t fi = 0;
  for (int round = 0; round < 6; ++round) {
    for (const TokenizedTable* in : hot) {
      StatusOr<serve::EncodedTablePtr> out = futures[fi++].get();
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      Rng rng(1);
      EXPECT_TRUE(BitwiseEqual((*out)->hidden,
                               model.Encode(*in, rng, opts).hidden.value()))
          << "stolen encode diverged";
    }
  }
  EXPECT_GT(cluster.steal_count(), 0u)
      << "skewed load never tripped the steal threshold";
  EXPECT_EQ(cluster.steal_count() + cluster.routed_count(),
            static_cast<uint64_t>(hot.size()) * 6);
}

TEST_F(ClusterFixture, PublishWeightsBumpsVersionAndSwapsOutputs) {
  ModelConfig config = TinyConfig();
  TableEncoderModel model(config);
  model.SetTraining(false);
  std::vector<TokenizedTable> inputs = Inputs(4);

  serve::ClusterOptions copts;
  copts.shards = 2;
  serve::Cluster cluster(&model, copts);
  EXPECT_EQ(cluster.weights_version(), 1u);

  StatusOr<serve::EncodedTablePtr> before = cluster.Encode(inputs[0]);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ((*before)->weights_version, 1u);

  // A genuinely different checkpoint: same shape, different init seed.
  ModelConfig other_config = config;
  other_config.seed = 99;
  TableEncoderModel other(other_config);
  other.SetTraining(false);
  StatusOr<uint64_t> v2 = cluster.PublishWeights(other.ExportStateDict());
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(*v2, 2u);
  EXPECT_EQ(cluster.weights_version(), 2u);

  StatusOr<serve::EncodedTablePtr> after = cluster.Encode(inputs[0]);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->weights_version, 2u);

  // New weights, new bytes — and they match the checkpoint's own
  // direct encode (the swap routed to a real import, not a no-op).
  models::EncodeOptions opts;
  opts.inference = true;
  Rng rng(1);
  EXPECT_TRUE(BitwiseEqual((*after)->hidden,
                           other.Encode(inputs[0], rng, opts).hidden.value()));
  EXPECT_FALSE(BitwiseEqual((*after)->hidden, (*before)->hidden));

  // Republishing the original weights bumps the version again; bytes
  // return to the original (version is identity metadata, not salt in
  // the math).
  StatusOr<uint64_t> v3 = cluster.PublishWeights(model.ExportStateDict());
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(*v3, 3u);
  StatusOr<serve::EncodedTablePtr> back = cluster.Encode(inputs[0]);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->weights_version, 3u);
  EXPECT_TRUE(BitwiseEqual((*back)->hidden, (*before)->hidden));
}

TEST_F(ClusterFixture, PublishWeightsIsFailAtomicOnBadCheckpoint) {
  ModelConfig config = TinyConfig();
  TableEncoderModel model(config);
  model.SetTraining(false);
  std::vector<TokenizedTable> inputs = Inputs(2);

  serve::ClusterOptions copts;
  copts.shards = 2;
  serve::Cluster cluster(&model, copts);
  StatusOr<serve::EncodedTablePtr> before = cluster.Encode(inputs[0]);
  ASSERT_TRUE(before.ok());

  // An incompatible checkpoint must be rejected with no shard touched.
  TensorMap bogus;
  StatusOr<uint64_t> rejected = cluster.PublishWeights(bogus);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(cluster.weights_version(), 1u);

  StatusOr<serve::EncodedTablePtr> after = cluster.Encode(inputs[0]);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ((*after)->weights_version, 1u);
  EXPECT_TRUE(BitwiseEqual((*after)->hidden, (*before)->hidden));
}

TEST_F(ClusterFixture, ReloadUnderLoadNeverTearsOrDrops) {
  ModelConfig config = TinyConfig();
  TableEncoderModel model(config);
  model.SetTraining(false);
  std::vector<TokenizedTable> inputs = Inputs(8);

  serve::ClusterOptions copts;
  copts.shards = 2;
  copts.encoder.cache_capacity = 8;
  serve::Cluster cluster(&model, copts);

  // The publisher republishes the SAME weights: every version must
  // produce bitwise-identical bytes, so any torn read (half-old,
  // half-new state) or dropped request is observable.
  models::EncodeOptions opts;
  opts.inference = true;
  std::vector<Tensor> reference;
  for (const TokenizedTable& in : inputs) {
    Rng rng(1);
    reference.push_back(model.Encode(in, rng, opts).hidden.value());
  }
  const TensorMap checkpoint = model.ExportStateDict();
  constexpr int kPublishes = 5;
  constexpr int kRequests = 60;

  std::thread publisher([&] {
    for (int p = 0; p < kPublishes; ++p) {
      StatusOr<uint64_t> v = cluster.PublishWeights(checkpoint);
      EXPECT_TRUE(v.ok()) << v.status().ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  uint64_t last_version = 0;
  for (int r = 0; r < kRequests; ++r) {
    const size_t i = static_cast<size_t>(r) % inputs.size();
    StatusOr<serve::EncodedTablePtr> out = cluster.Encode(inputs[i]);
    ASSERT_TRUE(out.ok())
        << "request " << r << " dropped during reload: "
        << out.status().ToString();
    const uint64_t version = (*out)->weights_version;
    EXPECT_GE(version, 1u);
    EXPECT_LE(version, 1u + kPublishes);
    // Closed loop: each request admits after the previous response, so
    // the observed versions are non-decreasing.
    EXPECT_GE(version, last_version);
    last_version = version;
    EXPECT_TRUE(BitwiseEqual((*out)->hidden, reference[i]))
        << "torn response under version " << version;
  }
  publisher.join();
  EXPECT_EQ(cluster.weights_version(), 1u + kPublishes);
}

TEST_F(ClusterFixture, VersionsNeverDecreaseInSubmissionOrder) {
  // A publish swaps every shard's snapshot atomically with respect to
  // routing: requests submitted one after another, alternating between
  // the two shards, see non-decreasing weights versions even while
  // publishes land between them.
  ModelConfig config = TinyConfig();
  TableEncoderModel model(config);
  model.SetTraining(false);
  std::vector<TokenizedTable> inputs = Inputs(24);

  serve::ClusterOptions copts;
  copts.shards = 2;
  serve::Cluster cluster(&model, copts);
  const TokenizedTable* on_shard[2] = {nullptr, nullptr};
  for (const TokenizedTable& in : inputs) {
    on_shard[cluster.HomeShard(in)] = &in;
  }
  ASSERT_NE(on_shard[0], nullptr);
  ASSERT_NE(on_shard[1], nullptr);

  const TensorMap checkpoint = model.ExportStateDict();
  constexpr int kPublishes = 200;
  std::atomic<bool> publishing{true};
  std::thread publisher([&] {
    for (int p = 0; p < kPublishes; ++p) {
      StatusOr<uint64_t> v = cluster.PublishWeights(checkpoint);
      EXPECT_TRUE(v.ok()) << v.status().ToString();
    }
    publishing.store(false);
  });

  // Submission never waits on an encode (that would leave the swaps
  // unobserved); answers are checked in order as they resolve, and the
  // backlog is capped so memory stays flat.
  uint64_t last_version = 0;
  size_t checked = 0;
  bool in_order = true;
  std::deque<std::future<StatusOr<serve::EncodedTablePtr>>> backlog;
  const auto check_front = [&] {
    StatusOr<serve::EncodedTablePtr> out = backlog.front().get();
    backlog.pop_front();
    const uint64_t version = out.ok() ? (*out)->weights_version : 0;
    if (in_order && version < last_version) {
      in_order = false;
      ADD_FAILURE() << "request " << checked << " echoed version " << version
                    << " after version " << last_version << " ("
                    << (out.ok() ? "ok" : out.status().ToString()) << ")";
    }
    last_version = std::max(last_version, version);
    ++checked;
  };
  for (size_t r = 0; publishing.load(); ++r) {
    backlog.push_back(cluster.Submit(*on_shard[r % 2]));
    while (!backlog.empty() &&
           (backlog.size() > 4096 ||
            backlog.front().wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready)) {
      check_front();
    }
  }
  while (!backlog.empty()) check_front();
  publisher.join();
  EXPECT_EQ(cluster.weights_version(), 1u + kPublishes);
}

TEST_F(ClusterFixture, TopologyJsonReportsShardsAndVersion) {
  ModelConfig config = TinyConfig();
  TableEncoderModel model(config);
  model.SetTraining(false);

  serve::ClusterOptions copts;
  copts.shards = 3;
  copts.steal_threshold = 7;
  serve::Cluster cluster(&model, copts);
  const std::string json = cluster.TopologyJson();
  EXPECT_NE(json.find("\"shards\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"steal_threshold\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"weights_version\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shard_depth\":[0,0,0]"), std::string::npos) << json;
}

}  // namespace
}  // namespace tabrep
