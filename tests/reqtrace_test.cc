#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "models/table_encoder.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/reqtrace.h"
#include "serialize/vocab_builder.h"
#include "serve/cluster.h"
#include "table/synth.h"

namespace tabrep {
namespace {

using obs::RequestContext;
using Clock = RequestContext::Clock;
using std::chrono::microseconds;

/// A fully-stamped context with exact microsecond gaps between
/// consecutive stamps, for pinning ComputeStages arithmetic.
RequestContext MakeStampedContext() {
  RequestContext ctx;
  ctx.request_id = 7;
  ctx.conn_id = 3;
  ctx.seq = 11;
  const Clock::time_point t0 = Clock::now();
  ctx.received = t0;
  ctx.admitted = t0 + microseconds(10);
  ctx.decoded = t0 + microseconds(30);
  ctx.dequeued = t0 + microseconds(130);
  ctx.encode_start = t0 + microseconds(180);
  ctx.encode_end = t0 + microseconds(680);
  ctx.drained = t0 + microseconds(692);
  ctx.serialized = t0 + microseconds(700);
  ctx.written = t0 + microseconds(705);
  ctx.batch_size = 4;
  ctx.submitted = true;
  return ctx;
}

// --- ComputeStages arithmetic. ------------------------------------------

TEST(ComputeStagesTest, ConsecutiveDeltasInMicroseconds) {
  const obs::StageBreakdown b = obs::ComputeStages(MakeStampedContext());
  EXPECT_DOUBLE_EQ(b.admission_us, 10.0);
  EXPECT_DOUBLE_EQ(b.decode_us, 20.0);
  EXPECT_DOUBLE_EQ(b.queue_us, 100.0);
  EXPECT_DOUBLE_EQ(b.batch_us, 50.0);
  EXPECT_DOUBLE_EQ(b.inference_us, 500.0);
  EXPECT_DOUBLE_EQ(b.serialize_us, 20.0);
  EXPECT_DOUBLE_EQ(b.write_us, 5.0);
  EXPECT_DOUBLE_EQ(b.total_us, 705.0);
  EXPECT_DOUBLE_EQ(b.handoff_us, 12.0);  // inside serialize, not added
  // The stage sum IS the total when every stamp is present: no
  // unattributed gap (the >= 80% bench criterion measures exactly this).
  const double sum = b.admission_us + b.decode_us + b.queue_us + b.batch_us +
                     b.inference_us + b.serialize_us + b.write_us;
  EXPECT_DOUBLE_EQ(sum, b.total_us);
}

TEST(ComputeStagesTest, OutOfOrderStampsClampToZero) {
  // A coalesced request can attach to a Pending whose batch was already
  // dequeued: its queue-wait computes negative and must read as 0.
  RequestContext ctx = MakeStampedContext();
  ctx.dequeued = ctx.decoded - microseconds(40);
  const obs::StageBreakdown b = obs::ComputeStages(ctx);
  EXPECT_DOUBLE_EQ(b.queue_us, 0.0);
  EXPECT_GE(b.batch_us, 0.0);
}

TEST(ComputeStagesTest, UnstampedStagesReadZeroAndDoNotAdvanceChain) {
  // A shed never reaches the dispatcher or serialization: only
  // received/written are stamped. Everything in between is 0 and the
  // write stage spans the whole gap (the last stamped boundary chains
  // from `received`, not from an unstamped zero TimePoint).
  RequestContext ctx;
  const Clock::time_point t0 = Clock::now();
  ctx.received = t0;
  ctx.written = t0 + microseconds(42);
  const obs::StageBreakdown b = obs::ComputeStages(ctx);
  EXPECT_DOUBLE_EQ(b.admission_us, 0.0);
  EXPECT_DOUBLE_EQ(b.decode_us, 0.0);
  EXPECT_DOUBLE_EQ(b.queue_us, 0.0);
  EXPECT_DOUBLE_EQ(b.batch_us, 0.0);
  EXPECT_DOUBLE_EQ(b.inference_us, 0.0);
  EXPECT_DOUBLE_EQ(b.serialize_us, 0.0);
  EXPECT_DOUBLE_EQ(b.write_us, 42.0);
  EXPECT_DOUBLE_EQ(b.total_us, 42.0);
}

TEST(ComputeStagesTest, HandoffIsASubStageOfSerialize) {
  // `drained` splits serialize without joining the chain: serialize and
  // the total read the same with or without it.
  RequestContext ctx = MakeStampedContext();
  ctx.drained = {};
  const obs::StageBreakdown unstamped = obs::ComputeStages(ctx);
  EXPECT_DOUBLE_EQ(unstamped.handoff_us, 0.0);
  EXPECT_DOUBLE_EQ(unstamped.serialize_us, 20.0);
  EXPECT_DOUBLE_EQ(unstamped.total_us, 705.0);

  // A drain stamped before encode_end (clock reads on two threads)
  // clamps to 0 and leaves the chain alone.
  ctx.drained = ctx.encode_end - microseconds(3);
  const obs::StageBreakdown early = obs::ComputeStages(ctx);
  EXPECT_DOUBLE_EQ(early.handoff_us, 0.0);
  EXPECT_DOUBLE_EQ(early.serialize_us, 20.0);
  EXPECT_DOUBLE_EQ(early.total_us, 705.0);

  // Without encode_end there is nothing to measure the handoff from,
  // and the closed-connection case (drained, never serialized) keeps
  // its handoff while serialize and write read 0.
  RequestContext no_encode = MakeStampedContext();
  no_encode.encode_end = {};
  EXPECT_DOUBLE_EQ(obs::ComputeStages(no_encode).handoff_us, 0.0);
  RequestContext closed = MakeStampedContext();
  closed.serialized = {};
  closed.written = {};
  const obs::StageBreakdown b = obs::ComputeStages(closed);
  EXPECT_DOUBLE_EQ(b.handoff_us, 12.0);
  EXPECT_DOUBLE_EQ(b.serialize_us, 0.0);
  EXPECT_DOUBLE_EQ(b.total_us, 680.0);
}

TEST(ComputeStagesTest, EmptyContextIsAllZero) {
  const obs::StageBreakdown b = obs::ComputeStages(RequestContext{});
  EXPECT_DOUBLE_EQ(b.total_us, 0.0);
  EXPECT_DOUBLE_EQ(b.write_us, 0.0);
}

// --- Access-log line schema. --------------------------------------------

TEST(AccessLogTest, FormatLineIsParsableJsonWithAllKeys) {
  RequestContext ctx = MakeStampedContext();
  ctx.cache_hit = true;
  ctx.status = StatusCode::kOverloaded;
  const std::string line = obs::AccessLog::FormatLine(ctx);
  Result<obs::JsonValue> doc = obs::JsonParse(line);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << "\nline: " << line;
  EXPECT_DOUBLE_EQ(doc->Find("request_id")->AsNumber(), 7.0);
  EXPECT_DOUBLE_EQ(doc->Find("conn")->AsNumber(), 3.0);
  EXPECT_DOUBLE_EQ(doc->Find("seq")->AsNumber(), 11.0);
  EXPECT_EQ(doc->Find("status")->AsString(), "Overloaded");
  EXPECT_TRUE(doc->Find("cache_hit")->AsBool());
  EXPECT_DOUBLE_EQ(doc->Find("batch_size")->AsNumber(), 4.0);
  EXPECT_DOUBLE_EQ(doc->Find("total_us")->AsNumber(), 705.0);
  const obs::JsonValue* stages = doc->Find("stages_us");
  ASSERT_NE(stages, nullptr);
  for (const char* key : {"admission", "decode", "queue", "batch",
                          "inference", "serialize", "write", "handoff"}) {
    ASSERT_NE(stages->Find(key), nullptr) << key;
  }
  EXPECT_DOUBLE_EQ(stages->Find("inference")->AsNumber(), 500.0);
  EXPECT_DOUBLE_EQ(stages->Find("handoff")->AsNumber(), 12.0);
}

TEST(AccessLogTest, DefaultConstructedIsDisabledAndAppendIsANoOp) {
  obs::AccessLog log;
  EXPECT_FALSE(log.enabled());
  log.Append(MakeStampedContext());  // must not crash
}

// --- Registry JSON carries count and sum (the delta-mean contract). -----

TEST(RegistryJsonTest, HistogramEntriesCarryCountAndSum) {
  // statscope computes interval means as (sum2-sum1)/(count2-count1)
  // from consecutive kStats snapshots; this pins the fields it needs.
  obs::Histogram& h =
      obs::Registry::Get().histogram("tabrep.test.reqtrace.pin.us");
  h.Record(100.0);
  h.Record(300.0);
  Result<obs::JsonValue> doc = obs::JsonParse(obs::Registry::Get().ToJson());
  ASSERT_TRUE(doc.ok());
  const obs::JsonValue* entry =
      doc->Get({"histograms", "tabrep.test.reqtrace.pin.us"});
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(entry->Find("count"), nullptr);
  ASSERT_NE(entry->Find("sum"), nullptr);
  EXPECT_DOUBLE_EQ(entry->Find("count")->AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(entry->Find("sum")->AsNumber(), 400.0);
}

// --- Traces through the real serving stack. -----------------------------

/// Corpus + tokenizer + model shared by the end-to-end trace tests
/// (vocab building is the slow part; same idiom as NetFixture).
class ReqTraceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticCorpusOptions opts;
    opts.num_tables = 16;
    corpus_ = new TableCorpus(GenerateSyntheticCorpus(opts));
    WordPieceTrainerOptions topts;
    topts.vocab_size = 1200;
    tokenizer_ = new WordPieceTokenizer(BuildCorpusTokenizer(*corpus_, topts));
    SerializerOptions sopts;
    sopts.max_tokens = 96;
    serializer_ = new TableSerializer(tokenizer_, sopts);

    ModelConfig config;
    config.family = ModelFamily::kTapas;
    config.vocab_size = tokenizer_->vocab().size();
    config.entity_vocab_size = corpus_->entities.size();
    config.transformer.dim = 32;
    config.transformer.num_layers = 1;
    config.transformer.num_heads = 2;
    config.transformer.ffn_dim = 64;
    config.transformer.dropout = 0.0f;
    config.max_position = 128;
    model_ = new TableEncoderModel(config);
    model_->SetTraining(false);
  }
  static void TearDownTestSuite() {
    delete model_;
    delete serializer_;
    delete tokenizer_;
    delete corpus_;
    model_ = nullptr;
    serializer_ = nullptr;
    tokenizer_ = nullptr;
    corpus_ = nullptr;
  }

  static TableCorpus* corpus_;
  static WordPieceTokenizer* tokenizer_;
  static TableSerializer* serializer_;
  static TableEncoderModel* model_;
};

TableCorpus* ReqTraceFixture::corpus_ = nullptr;
WordPieceTokenizer* ReqTraceFixture::tokenizer_ = nullptr;
TableSerializer* ReqTraceFixture::serializer_ = nullptr;
TableEncoderModel* ReqTraceFixture::model_ = nullptr;

TEST_F(ReqTraceFixture, SubmitStampsTheDispatcherTripleMonotonically) {
  serve::Cluster cluster(model_);
  const TokenizedTable input = serializer_->Serialize(corpus_->tables[0]);

  RequestContext trace;
  trace.received = Clock::now();
  trace.decoded = trace.received;
  auto future = cluster.Submit(input, &trace);
  ASSERT_TRUE(future.get().ok());
  // future.get() is the synchronizing edge: the dispatcher's stamps are
  // visible here and in chain order.
  EXPECT_TRUE(trace.submitted);
  EXPECT_FALSE(trace.cache_hit);
  EXPECT_GE(trace.dequeued, trace.decoded);
  EXPECT_GE(trace.encode_start, trace.dequeued);
  EXPECT_GE(trace.encode_end, trace.encode_start);
  EXPECT_GE(trace.batch_size, 1);

  // Same table again: served from the encode cache; the fast path
  // stamps the dispatcher triple to the Submit call time so the
  // queue/batch/inference stages read ~zero.
  RequestContext hit;
  hit.received = Clock::now();
  hit.decoded = hit.received;
  auto future2 = cluster.Submit(input, &hit);
  ASSERT_TRUE(future2.get().ok());
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.batch_size, 0);
  EXPECT_EQ(hit.dequeued, hit.encode_start);
  EXPECT_EQ(hit.encode_start, hit.encode_end);
}

TEST_F(ReqTraceFixture, BatchStageMatchesDispatchDelay) {
  // dispatch_delay_us holds every batch between dequeue and encode;
  // the batch stage must show it. sleep_for never wakes early, so the
  // lower bound is exact; the upper bound is generous for loaded CI.
  serve::ClusterOptions opts;
  opts.encoder.max_batch = 1;
  opts.encoder.max_wait_us = 0;
  opts.encoder.cache_capacity = 0;
  opts.encoder.dispatch_delay_us = 30000;  // 30ms
  serve::Cluster cluster(model_, opts);

  RequestContext trace;
  trace.received = Clock::now();
  trace.decoded = trace.received;
  auto future = cluster.Submit(serializer_->Serialize(corpus_->tables[1]),
                               &trace);
  ASSERT_TRUE(future.get().ok());
  const obs::StageBreakdown b = obs::ComputeStages(trace);
  EXPECT_GE(b.batch_us, 30000.0);
  EXPECT_LT(b.batch_us, 2000000.0) << "30ms delay took " << b.batch_us
                                   << "us: dispatcher stamped wrong stage?";
}

TEST_F(ReqTraceFixture, ServerWritesParsableAccessLogWithUniqueRequestIds) {
  const std::string log_path =
      ::testing::TempDir() + "/tabrep_access_log_test.jsonl";
  std::remove(log_path.c_str());
  Tensor with_log_hidden;
  {
    serve::Cluster cluster(model_);
    net::ServerOptions sopts;
    sopts.access_log_path = log_path;
    net::Server server(&cluster, sopts);
    ASSERT_TRUE(server.Start().ok());
    StatusOr<net::Client> client = net::Client::Connect("127.0.0.1",
                                                        server.port());
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 6; ++i) {
      StatusOr<net::EncodeResult> out =
          client->Encode(serializer_->Serialize(corpus_->tables[i % 3]));
      ASSERT_TRUE(out.ok());
      ASSERT_TRUE(out->status.ok());
      if (i == 0) with_log_hidden = out->encoded.hidden;
    }
  }  // server down: the log is complete

  std::ifstream in(log_path);
  ASSERT_TRUE(in.good()) << log_path << " was not written";
  std::set<uint64_t> ids;
  int lines = 0, cache_hits = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    Result<obs::JsonValue> doc = obs::JsonParse(line);
    ASSERT_TRUE(doc.ok()) << "unparsable access-log line: " << line;
    for (const char* key : {"request_id", "conn", "seq", "status",
                            "cache_hit", "batch_size", "total_us",
                            "stages_us"}) {
      ASSERT_NE(doc->Find(key), nullptr) << key << " missing in: " << line;
    }
    ids.insert(static_cast<uint64_t>(doc->Find("request_id")->AsNumber()));
    if (doc->Find("cache_hit")->AsBool()) ++cache_hits;
    EXPECT_EQ(doc->Find("status")->AsString(), "OK");
    EXPECT_GE(doc->Find("total_us")->AsNumber(), 0.0);
    // The event loop stamped `drained` between encode_end and
    // serialized, so the handoff is part of the serialize stage.
    const obs::JsonValue* stages = doc->Find("stages_us");
    ASSERT_NE(stages->Find("handoff"), nullptr) << line;
    EXPECT_GE(stages->Find("handoff")->AsNumber(), 0.0);
    EXPECT_LE(stages->Find("handoff")->AsNumber(),
              stages->Find("serialize")->AsNumber());
  }
  EXPECT_EQ(lines, 6);
  EXPECT_EQ(ids.size(), 6u) << "request ids must be process-unique";
  // Tables repeat (i % 3), so the second pass hits the encode cache.
  EXPECT_GE(cache_hits, 1);

  // Tracing is observation, not transformation: the same table through
  // a server WITHOUT the access log encodes bitwise-identically.
  {
    serve::Cluster cluster(model_);
    net::Server server(&cluster);
    ASSERT_TRUE(server.Start().ok());
    StatusOr<net::Client> client = net::Client::Connect("127.0.0.1",
                                                        server.port());
    ASSERT_TRUE(client.ok());
    StatusOr<net::EncodeResult> out =
        client->Encode(serializer_->Serialize(corpus_->tables[0]));
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out->status.ok());
    ASSERT_EQ(out->encoded.hidden.shape(), with_log_hidden.shape());
    EXPECT_EQ(std::memcmp(out->encoded.hidden.data(), with_log_hidden.data(),
                          static_cast<size_t>(with_log_hidden.numel()) *
                              sizeof(float)),
              0)
        << "access log changed encode output";
  }
  std::remove(log_path.c_str());
}

TEST_F(ReqTraceFixture, StopMidLoadFlushesEveryAccountedResponse) {
  // Shutdown durability (ISSUE 8): Stop() flushes + fsyncs the access
  // log after the event loop exits, so every response the server
  // accounted before dying is on disk as a complete JSONL line — no
  // truncated tail from buffered stdio. The server is stopped while
  // clients are mid-flight; a response a client managed to read was
  // logged before its bytes hit the socket, so the on-disk line count
  // must be at least the clients' received total, and every line must
  // still parse.
  const std::string log_path =
      ::testing::TempDir() + "/tabrep_access_log_midload.jsonl";
  std::remove(log_path.c_str());
  std::atomic<uint64_t> received{0};  // ok + shed + typed errors read back
  {
    serve::ClusterOptions copts;
    copts.encoder.max_batch = 1;
    copts.encoder.max_wait_us = 0;
    copts.encoder.cache_capacity = 0;
    // 5ms/batch: Stop() lands mid-load.
    copts.encoder.dispatch_delay_us = 5000;
    serve::Cluster cluster(model_, copts);
    net::ServerOptions sopts;
    sopts.access_log_path = log_path;
    sopts.max_inflight_per_conn = 2;  // small cap: some requests shed
    net::Server server(&cluster, sopts);
    ASSERT_TRUE(server.Start().ok());

    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&, c] {
        StatusOr<net::Client> client =
            net::Client::Connect("127.0.0.1", server.port());
        if (!client.ok()) return;
        for (int r = 0; r < 400; ++r) {
          StatusOr<net::EncodeResult> out = client->Encode(
              serializer_->Serialize(corpus_->tables[(c + r) % 6]));
          if (!out.ok()) return;  // server stopped under us — expected
          received.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    server.Stop();  // mid-load: clients still have requests in flight
    for (std::thread& t : clients) t.join();
  }

  EXPECT_GT(received.load(), 0u) << "no response landed before Stop()";
  std::ifstream in(log_path);
  ASSERT_TRUE(in.good()) << log_path << " was not written";
  uint64_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    Result<obs::JsonValue> doc = obs::JsonParse(line);
    ASSERT_TRUE(doc.ok()) << "truncated/corrupt access-log line: " << line;
    ASSERT_NE(doc->Find("status"), nullptr);
  }
  EXPECT_GE(lines, received.load())
      << "a response reached a client but never reached the flushed log";
  std::remove(log_path.c_str());
}

TEST_F(ReqTraceFixture, StageHistogramsPopulateAfterServedTraffic) {
  obs::Registry& reg = obs::Registry::Get();
  const uint64_t queue_before =
      reg.histogram("tabrep.serve.stage.queue.us").Stats().count;
  const uint64_t inf_before =
      reg.histogram("tabrep.serve.stage.inference.us").Stats().count;

  serve::Cluster cluster(model_);
  net::Server server(&cluster);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<net::Client> client = net::Client::Connect("127.0.0.1",
                                                      server.port());
  ASSERT_TRUE(client.ok());
  const int n = 5;
  for (int i = 0; i < n; ++i) {
    StatusOr<net::EncodeResult> out =
        client->Encode(serializer_->Serialize(corpus_->tables[i]));
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out->status.ok());
  }

  // The event loop writes the response before it records stage
  // metrics (trace.written must stamp after the socket write), so the
  // client can observe the last reply a beat before FinishRequest
  // lands. Poll briefly instead of asserting immediately.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (reg.histogram("tabrep.serve.stage.queue.us").Stats().count <
             queue_before + n &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(reg.histogram("tabrep.serve.stage.queue.us").Stats().count,
            queue_before + n);
  EXPECT_EQ(reg.histogram("tabrep.serve.stage.inference.us").Stats().count,
            inf_before + n);
}

TEST_F(ReqTraceFixture, ConcurrentTracedSubmitsAreRaceFree) {
  // TSan hammer (reqtrace_test_4threads): many client threads submit
  // with their own traces while the dispatcher batches across them; the
  // stamps must land without data races and in chain order everywhere.
  serve::ClusterOptions opts;
  opts.encoder.max_batch = 4;
  opts.encoder.max_wait_us = 500;
  opts.encoder.cache_capacity = 0;
  serve::Cluster cluster(model_, opts);

  std::vector<TokenizedTable> inputs;
  for (int i = 0; i < 8; ++i) {
    inputs.push_back(serializer_->Serialize(corpus_->tables[i]));
  }
  const int num_threads = 4;
  const int rounds = 6;
  std::vector<int> bad(static_cast<size_t>(num_threads), 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < rounds; ++r) {
        RequestContext trace;
        trace.received = Clock::now();
        trace.decoded = trace.received;
        auto future = cluster.Submit(
            inputs[static_cast<size_t>((t * rounds + r) % 8)], &trace);
        if (!future.get().ok() || !trace.submitted ||
            trace.encode_end < trace.encode_start ||
            trace.encode_start < trace.dequeued || trace.batch_size < 1) {
          ++bad[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int b : bad) EXPECT_EQ(b, 0);
}

}  // namespace
}  // namespace tabrep
