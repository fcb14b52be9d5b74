#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "common/result.h"

#include "models/table_encoder.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "serialize/vocab_builder.h"
#include "serve/cluster.h"
#include "serve/serve.h"
#include "table/synth.h"
#include "tensor/autograd.h"

namespace tabrep {
namespace {

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Shared tiny-corpus fixture (same shape as ModelsFixture: building
/// the vocab once is the slow part).
class ServeFixture : public ::testing::Test {
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

  static TableCorpus* corpus_;
  static WordPieceTokenizer* tokenizer_;
  static TableSerializer* serializer_;
};

TableCorpus* ServeFixture::corpus_ = nullptr;
WordPieceTokenizer* ServeFixture::tokenizer_ = nullptr;
TableSerializer* ServeFixture::serializer_ = nullptr;

/// Restores the default (env-resolved) pool on scope exit so thread
/// sweeps don't leak a pinned count into later tests.
struct ThreadCountGuard {
  ~ThreadCountGuard() { runtime::Configure({0}); }
};

class ServeFamilySweep : public ServeFixture,
                         public ::testing::WithParamInterface<ModelFamily> {};

TEST_P(ServeFamilySweep, InferenceEncodeIsBitwiseIdenticalToGraph) {
  ModelConfig config = TinyConfig(GetParam());
  TableEncoderModel model(config);
  model.SetTraining(false);
  ThreadCountGuard guard;
  for (int threads : {1, 4}) {
    runtime::Configure({threads});
    for (bool capture : {false, true}) {
      for (int ti : {0, 3, 7}) {
        TokenizedTable serialized =
            serializer_->Serialize(corpus_->tables[static_cast<size_t>(ti)]);
        models::EncodeOptions opts;
        opts.need_cells = true;
        opts.capture_attention = capture;
        Rng rng_g(1), rng_f(1);
        models::Encoded g = model.Encode(serialized, rng_g, opts);
        models::EncodeOptions iopts = opts;
        iopts.inference = true;
        models::Encoded f = model.Encode(serialized, rng_f, iopts);
        EXPECT_TRUE(BitwiseEqual(g.hidden.value(), f.hidden.value()))
            << "hidden, table " << ti << " threads " << threads
            << " capture " << capture;
        ASSERT_EQ(g.has_cells, f.has_cells);
        if (g.has_cells) {
          EXPECT_TRUE(BitwiseEqual(g.cells.value(), f.cells.value()))
              << "cells, table " << ti << " threads " << threads;
        }
        ASSERT_EQ(g.attention.size(), f.attention.size());
        for (size_t l = 0; l < g.attention.size(); ++l) {
          EXPECT_TRUE(BitwiseEqual(g.attention[l], f.attention[l]))
              << "attention layer " << l << " threads " << threads;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, ServeFamilySweep,
    ::testing::Values(ModelFamily::kVanilla, ModelFamily::kTapas,
                      ModelFamily::kTabert, ModelFamily::kTurl,
                      ModelFamily::kMate),
    [](const ::testing::TestParamInfo<ModelFamily>& info) {
      return std::string(ModelFamilyName(info.param));
    });

TEST_F(ServeFixture, NoGradScopeSwitchesEncodeToInference) {
  ModelConfig config = TinyConfig(ModelFamily::kVanilla);
  TableEncoderModel model(config);
  model.SetTraining(false);
  TokenizedTable serialized = serializer_->Serialize(corpus_->tables[0]);
  obs::Counter& infer = obs::Registry::Get().counter(
      "tabrep.models.encode.infer");
  obs::Counter& graph = obs::Registry::Get().counter(
      "tabrep.models.encode.graph");
  Rng rng(1);

  const uint64_t graph_before = graph.value();
  models::Encoded g = model.Encode(serialized, rng);
  EXPECT_EQ(graph.value(), graph_before + 1);

  const uint64_t infer_before = infer.value();
  models::Encoded f = [&] {
    ag::NoGradScope no_grad;
    return model.Encode(serialized, rng);
  }();
  EXPECT_EQ(infer.value(), infer_before + 1);
  EXPECT_TRUE(BitwiseEqual(g.hidden.value(), f.hidden.value()));
  // The graph-free result is a constant: backward has nothing to reach.
  EXPECT_FALSE(f.hidden.requires_grad());
}

TEST_F(ServeFixture, HashIsStableAndDiscriminating) {
  TokenizedTable a = serializer_->Serialize(corpus_->tables[0]);
  TokenizedTable b = serializer_->Serialize(corpus_->tables[1]);
  EXPECT_EQ(serve::HashTokenizedTable(a), serve::HashTokenizedTable(a));
  EXPECT_NE(serve::HashTokenizedTable(a), serve::HashTokenizedTable(b));
  // Any field Encode reads must perturb the hash.
  TokenizedTable mutated = a;
  mutated.tokens[1].row += 1;
  EXPECT_NE(serve::HashTokenizedTable(a), serve::HashTokenizedTable(mutated));
}

TEST(EncodeCacheTest, LruEvictionIsDeterministic) {
  serve::EncodeCache cache(2);
  auto entry = [] { return std::make_shared<serve::EncodedTable>(); };
  serve::EncodedTablePtr e1 = entry(), e2 = entry(), e3 = entry();
  cache.Put(1, e1);
  cache.Put(2, e2);
  EXPECT_EQ(cache.Get(1), e1);  // promote 1 -> 2 is now LRU
  cache.Put(3, e3);             // evicts 2
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_EQ(cache.Get(1), e1);
  EXPECT_EQ(cache.Get(3), e3);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(EncodeCacheTest, CapacityZeroDisablesCaching) {
  serve::EncodeCache cache(0);
  cache.Put(1, std::make_shared<serve::EncodedTable>());
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(ServeFixture, BatchedEncoderMatchesDirectEncodeAndCaches) {
  ModelConfig config = TinyConfig(ModelFamily::kTabert);
  TableEncoderModel model(config);
  model.SetTraining(false);
  TokenizedTable serialized = serializer_->Serialize(corpus_->tables[2]);
  Rng rng(1);
  models::EncodeOptions opts;
  opts.need_cells = true;
  opts.inference = true;
  models::Encoded direct = model.Encode(serialized, rng, opts);

  serve::ClusterOptions copts;
  copts.encoder.cache_capacity = 8;
  copts.encoder.need_cells = true;
  serve::Cluster cluster(&model, copts);
  StatusOr<serve::EncodedTablePtr> first_or = cluster.Encode(serialized);
  ASSERT_TRUE(first_or.ok()) << first_or.status().ToString();
  serve::EncodedTablePtr first = *first_or;
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(BitwiseEqual(first->hidden, direct.hidden.value()));
  ASSERT_TRUE(first->has_cells);
  EXPECT_TRUE(BitwiseEqual(first->cells, direct.cells.value()));
  // Second request is a cache hit: the very same shared encoding.
  StatusOr<serve::EncodedTablePtr> second = cluster.Encode(serialized);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, first);
  EXPECT_EQ(cluster.shard(0).cache().size(), 1u);
}

// The dispatcher encodes inside ParallelFor lanes, where nested
// ParallelFor calls degrade to inline execution. Inline execution must
// replay the pooled path's chunk boundaries (kernels round differently
// at chunk edges), or served encodings diverge from direct ones.
TEST_F(ServeFixture, EncodeInsideParallelForLaneIsBitwiseIdentical) {
  ModelConfig config = TinyConfig(ModelFamily::kVanilla);
  TableEncoderModel model(config);
  model.SetTraining(false);
  for (int ti : {0, 1, 2, 3, 4, 5}) {
    TokenizedTable in = serializer_->Serialize(corpus_->tables[
        static_cast<size_t>(ti)]);
    models::EncodeOptions opts;
    opts.need_cells = false;
    opts.inference = true;
    Rng rng(1);
    Tensor direct = model.Encode(in, rng, opts).hidden.value();
    Tensor nested;
    runtime::ParallelFor(0, 1, 1, [&](int64_t, int64_t) {
      Rng rng2(1);
      nested = model.Encode(in, rng2, opts).hidden.value();
    });
    EXPECT_TRUE(BitwiseEqual(direct, nested)) << "table " << ti;
  }
}

TEST_F(ServeFixture, BatchedEncoderConcurrentClients) {
  ModelConfig config = TinyConfig(ModelFamily::kVanilla);
  TableEncoderModel model(config);
  model.SetTraining(false);

  std::vector<TokenizedTable> inputs;
  for (int i = 0; i < 6; ++i) {
    inputs.push_back(serializer_->Serialize(corpus_->tables[
        static_cast<size_t>(i)]));
  }
  std::vector<Tensor> expected;
  for (const TokenizedTable& in : inputs) {
    Rng rng(1);
    models::EncodeOptions opts;
    opts.need_cells = false;
    opts.inference = true;
    expected.push_back(model.Encode(in, rng, opts).hidden.value());
  }

  serve::ClusterOptions copts;
  copts.encoder.max_batch = 4;
  copts.encoder.cache_capacity = 64;
  serve::Cluster cluster(&model, copts);

  // Every client requests every table several times; concurrent
  // requests for the same table coalesce onto one encode.
  const int num_clients = 4;
  const int rounds = 3;
  std::vector<std::thread> clients;
  std::vector<int> failures(static_cast<size_t>(num_clients), 0);
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < rounds; ++r) {
        for (size_t i = 0; i < inputs.size(); ++i) {
          StatusOr<serve::EncodedTablePtr> out = cluster.Encode(inputs[i]);
          if (!out.ok() || *out == nullptr ||
              !BitwiseEqual((*out)->hidden, expected[i])) {
            ++failures[static_cast<size_t>(c)];
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int f : failures) EXPECT_EQ(f, 0);
  EXPECT_EQ(cluster.shard(0).cache().size(), inputs.size());
}

TEST_F(ServeFixture, BatchedEncoderDrainsOnDestruction) {
  ModelConfig config = TinyConfig(ModelFamily::kVanilla);
  TableEncoderModel model(config);
  std::vector<TokenizedTable> inputs;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(serializer_->Serialize(corpus_->tables[
        static_cast<size_t>(10 + i)]));
  }
  std::vector<serve::EncodedTablePtr> results(inputs.size());
  {
    serve::Cluster cluster(&model);
    std::vector<std::thread> clients;
    for (size_t i = 0; i < inputs.size(); ++i) {
      clients.emplace_back(
          [&, i] { results[i] = cluster.Encode(inputs[i]).value_or(nullptr); });
    }
    for (std::thread& t : clients) t.join();
  }  // destructor joins the dispatcher after every request completed
  for (const serve::EncodedTablePtr& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_GT(r->hidden.numel(), 0);
  }
}

TEST_F(ServeFixture, SubmitIsAsyncAndCopiesTheInput) {
  ModelConfig config = TinyConfig(ModelFamily::kVanilla);
  TableEncoderModel model(config);
  model.SetTraining(false);
  TokenizedTable serialized = serializer_->Serialize(corpus_->tables[0]);
  Rng rng(1);
  models::EncodeOptions opts;
  opts.need_cells = false;
  opts.inference = true;
  Tensor expected = model.Encode(serialized, rng, opts).hidden.value();

  serve::Cluster cluster(&model);
  std::future<StatusOr<serve::EncodedTablePtr>> future = [&] {
    // The input dies before the future resolves: Submit must have
    // copied it (the documented ISSUE-6 lifetime change).
    TokenizedTable doomed = serialized;
    return cluster.Submit(doomed);
  }();
  StatusOr<serve::EncodedTablePtr> out = future.get();
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(BitwiseEqual((*out)->hidden, expected));
}

TEST_F(ServeFixture, SubmitShedsWithTypedOverloadedWhenQueueIsFull) {
  ModelConfig config = TinyConfig(ModelFamily::kVanilla);
  TableEncoderModel model(config);
  model.SetTraining(false);

  serve::ClusterOptions copts;
  copts.encoder.max_batch = 1;
  copts.encoder.max_wait_us = 0;
  copts.encoder.cache_capacity = 0;  // every request is fresh work
  copts.encoder.max_queue = 1;
  // Hold the dispatcher: the queue backs up.
  copts.encoder.dispatch_delay_us = 100000;
  serve::Cluster cluster(&model, copts);

  std::vector<std::future<StatusOr<serve::EncodedTablePtr>>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(cluster.Submit(
        serializer_->Serialize(corpus_->tables[static_cast<size_t>(i)])));
  }
  int ok = 0, overloaded = 0;
  for (auto& f : futures) {
    StatusOr<serve::EncodedTablePtr> out = f.get();
    if (out.ok()) {
      ++ok;
      EXPECT_NE(*out, nullptr);
    } else {
      EXPECT_EQ(out.status().code(), StatusCode::kOverloaded);
      ++overloaded;
    }
  }
  // 8 submitted against queue bound 1 and a 100ms-per-batch dispatcher:
  // at least one admitted, and the burst cannot all fit.
  EXPECT_EQ(ok + overloaded, 8);  // zero silent drops
  EXPECT_GE(ok, 1);
  EXPECT_GE(overloaded, 5);
}

TEST(ServeOptionsTest, OptionsFromEnvReadsEveryTunable) {
  setenv("TABREP_SERVE_MAX_BATCH", "3", 1);
  setenv("TABREP_SERVE_MAX_WAIT_US", "77", 1);
  setenv("TABREP_ENCODE_CACHE", "11", 1);
  setenv("TABREP_SERVE_MAX_QUEUE", "5", 1);
  serve::BatchedEncoderOptions options = serve::OptionsFromEnv();
  EXPECT_EQ(options.max_batch, 3);
  EXPECT_EQ(options.max_wait_us, 77);
  EXPECT_EQ(options.cache_capacity, 11);
  EXPECT_EQ(options.max_queue, 5);
  unsetenv("TABREP_SERVE_MAX_BATCH");
  unsetenv("TABREP_SERVE_MAX_WAIT_US");
  unsetenv("TABREP_ENCODE_CACHE");
  unsetenv("TABREP_SERVE_MAX_QUEUE");
  serve::BatchedEncoderOptions defaults = serve::OptionsFromEnv();
  EXPECT_EQ(defaults.max_batch, serve::BatchedEncoderOptions{}.max_batch);
  EXPECT_EQ(defaults.cache_capacity, 256);  // the documented default
}

// TABREP_ENCODE_CACHE is read by OptionsFromEnv only: options built in
// code mean what they say, whatever the environment holds.
TEST(ServeOptionsTest, ExplicitOptionsIgnoreTheEncodeCacheVariable) {
  EXPECT_EQ(serve::BatchedEncoderOptions{}.cache_capacity, 256);
  ModelConfig config;
  config.vocab_size = 64;
  config.transformer.dim = 16;
  config.transformer.num_layers = 1;
  config.transformer.num_heads = 2;
  config.transformer.ffn_dim = 32;
  TableEncoderModel model(config);
  setenv("TABREP_ENCODE_CACHE", "3", 1);
  serve::Cluster cluster(&model, serve::ClusterOptions{});
  unsetenv("TABREP_ENCODE_CACHE");
  EXPECT_EQ(cluster.shard(0).cache().capacity(), 256u);
}

TEST(ServeOptionsTest, ClusterOptionsFromEnvRoundTrips) {
  setenv("TABREP_SHARDS", "4", 1);
  setenv("TABREP_STEAL_THRESHOLD", "13", 1);
  setenv("TABREP_ENCODE_CACHE", "9", 1);  // nested encoder options too
  serve::ClusterOptions options = serve::ClusterOptionsFromEnv();
  EXPECT_EQ(options.shards, 4);
  EXPECT_EQ(options.steal_threshold, 13);
  EXPECT_EQ(options.encoder.cache_capacity, 9);
  unsetenv("TABREP_SHARDS");
  unsetenv("TABREP_STEAL_THRESHOLD");
  unsetenv("TABREP_ENCODE_CACHE");
  serve::ClusterOptions defaults = serve::ClusterOptionsFromEnv();
  EXPECT_EQ(defaults.shards, serve::ClusterOptions{}.shards);
  EXPECT_EQ(defaults.steal_threshold,
            serve::ClusterOptions{}.steal_threshold);
}

TEST(ServeOptionsTest, EnvInt64FallsBackOnGarbage) {
  setenv("TABREP_TEST_TUNABLE", "not-a-number", 1);
  EXPECT_EQ(serve::EnvInt64("TABREP_TEST_TUNABLE", 42), 42);
  setenv("TABREP_TEST_TUNABLE", "-7", 1);
  EXPECT_EQ(serve::EnvInt64("TABREP_TEST_TUNABLE", 42), -7);
  unsetenv("TABREP_TEST_TUNABLE");
  EXPECT_EQ(serve::EnvInt64("TABREP_TEST_TUNABLE", 42), 42);
}

}  // namespace
}  // namespace tabrep
