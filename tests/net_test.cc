#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "models/table_encoder.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "obs/json.h"
#include "serialize/vocab_builder.h"
#include "serve/cluster.h"
#include "serve/serve.h"
#include "table/synth.h"

namespace tabrep {
namespace {

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TokenizedTable MakeSyntheticTokenized(uint64_t seed, int32_t num_tokens,
                                      int32_t num_cells) {
  Rng rng(seed);
  TokenizedTable table;
  table.table_id = "synthetic-" + std::to_string(seed);
  for (int32_t i = 0; i < num_tokens; ++i) {
    TokenInfo tok;
    tok.id = static_cast<int32_t>(rng.NextBelow(30000));
    tok.row = static_cast<int32_t>(rng.NextBelow(16));
    tok.column = static_cast<int32_t>(rng.NextBelow(8));
    tok.segment = static_cast<int32_t>(rng.NextBelow(2));
    tok.kind = static_cast<int32_t>(rng.NextBelow(5));
    tok.rank = static_cast<int32_t>(rng.NextBelow(4));
    tok.entity_id = static_cast<int32_t>(rng.NextBelow(100)) - 1;
    table.tokens.push_back(tok);
  }
  for (int32_t i = 0; i < num_cells; ++i) {
    CellSpan cell;
    cell.row = static_cast<int32_t>(rng.NextBelow(16));
    cell.col = static_cast<int32_t>(rng.NextBelow(8));
    cell.begin = static_cast<int32_t>(
        rng.NextBelow(static_cast<uint64_t>(num_tokens)));
    cell.end = cell.begin + static_cast<int32_t>((1 + rng.NextBelow(3)));
    cell.entity_id = static_cast<int32_t>(rng.NextBelow(100)) - 1;
    table.cells.push_back(cell);
  }
  table.used_rows = 7;
  table.used_columns = 3;
  table.truncated = (seed % 2) == 0;
  return table;
}

bool SameTokenized(const TokenizedTable& a, const TokenizedTable& b) {
  if (a.table_id != b.table_id || a.tokens.size() != b.tokens.size() ||
      a.cells.size() != b.cells.size() || a.used_rows != b.used_rows ||
      a.used_columns != b.used_columns || a.truncated != b.truncated) {
    return false;
  }
  for (size_t i = 0; i < a.tokens.size(); ++i) {
    if (std::memcmp(&a.tokens[i], &b.tokens[i], sizeof(TokenInfo)) != 0) {
      return false;
    }
  }
  for (size_t i = 0; i < a.cells.size(); ++i) {
    if (std::memcmp(&a.cells[i], &b.cells[i], sizeof(CellSpan)) != 0) {
      return false;
    }
  }
  return true;
}

// --- Wire status byte mapping. ------------------------------------------

TEST(WireStatusTest, MapsEveryCodeOneToOne) {
  const std::vector<StatusCode> codes = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kOutOfRange,
      StatusCode::kFailedPrecondition, StatusCode::kIOError,
      StatusCode::kCorruption,   StatusCode::kUnimplemented,
      StatusCode::kInternal,     StatusCode::kOverloaded,
      StatusCode::kCancelled};
  for (StatusCode code : codes) {
    EXPECT_EQ(net::StatusCodeFromWireByte(net::WireStatusByte(code)), code);
  }
  // The serving codes are wire contract: their bytes are pinned.
  EXPECT_EQ(net::WireStatusByte(StatusCode::kOk), 0);
  EXPECT_EQ(net::WireStatusByte(StatusCode::kInvalidArgument), 1);
  EXPECT_EQ(net::WireStatusByte(StatusCode::kOverloaded), 9);
  EXPECT_EQ(net::WireStatusByte(StatusCode::kCancelled), 10);
  // Unknown bytes from a future peer degrade to kInternal, not UB.
  EXPECT_EQ(net::StatusCodeFromWireByte(200), StatusCode::kInternal);
}

TEST(StatusTest, NewServingCodesHaveNames) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOverloaded), "Overloaded");
  EXPECT_EQ(StatusCodeName(StatusCode::kCancelled), "Cancelled");
  EXPECT_EQ(Status::Overloaded("q full").ToString(), "Overloaded: q full");
}

// --- Frame round-trips through arbitrary stream splits. -----------------

net::Frame TestFrame(uint32_t seq, const std::string& payload) {
  net::Frame frame;
  frame.type = net::MessageType::kEncodeRequest;
  frame.seq = seq;
  frame.payload = payload;
  return frame;
}

void ExpectFrameEq(const net::Frame& a, const net::Frame& b) {
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.flags, b.flags);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.payload, b.payload);
}

TEST(FrameDecoderTest, RoundTripsAtEverySplitPoint) {
  const net::Frame sent = TestFrame(42, "hello tables");
  const std::string wire = net::EncodeFrame(sent);
  // Every two-chunk split, including empty first/second halves.
  for (size_t split = 0; split <= wire.size(); ++split) {
    net::FrameDecoder decoder;
    net::Frame out;
    decoder.Append(wire.data(), split);
    StatusOr<bool> got = decoder.Next(&out);
    ASSERT_TRUE(got.ok());
    if (*got) {
      ASSERT_EQ(split, wire.size());
    } else {
      decoder.Append(wire.data() + split, wire.size() - split);
      got = decoder.Next(&out);
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(*got) << "split at " << split;
    }
    ExpectFrameEq(out, sent);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(FrameDecoderTest, OneBytePerReadReassembles) {
  const net::Frame sent = TestFrame(7, std::string(300, 'x'));
  const std::string wire = net::EncodeFrame(sent);
  net::FrameDecoder decoder;
  net::Frame out;
  for (size_t i = 0; i < wire.size(); ++i) {
    decoder.Append(wire.data() + i, 1);
    StatusOr<bool> got = decoder.Next(&out);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, i + 1 == wire.size()) << "byte " << i;
  }
  ExpectFrameEq(out, sent);
}

TEST(FrameDecoderTest, FuzzRandomSplitPointsAndBackToBackFrames) {
  Rng rng(1234);
  for (int trial = 0; trial < 50; ++trial) {
    // A stream of several frames with random payloads...
    std::vector<net::Frame> sent;
    std::string wire;
    const int num_frames = 1 + static_cast<int>(rng.NextBelow(5));
    for (int f = 0; f < num_frames; ++f) {
      std::string payload;
      const int len = static_cast<int>(rng.NextBelow(400));
      for (int i = 0; i < len; ++i) {
        payload.push_back(static_cast<char>(rng.NextBelow(256)));
      }
      net::Frame frame = TestFrame(static_cast<uint32_t>(f), payload);
      frame.flags = static_cast<uint8_t>(rng.NextBelow(4));
      sent.push_back(frame);
      wire += net::EncodeFrame(frame);
    }
    // ...fed in chunks split at arbitrary points.
    net::FrameDecoder decoder;
    std::vector<net::Frame> received;
    size_t pos = 0;
    while (pos < wire.size()) {
      const size_t chunk = std::min<size_t>(
          wire.size() - pos, 1 + static_cast<size_t>(rng.NextBelow(64)));
      decoder.Append(wire.data() + pos, chunk);
      pos += chunk;
      while (true) {
        net::Frame out;
        StatusOr<bool> got = decoder.Next(&out);
        ASSERT_TRUE(got.ok());
        if (!*got) break;
        received.push_back(std::move(out));
      }
    }
    ASSERT_EQ(received.size(), sent.size()) << "trial " << trial;
    for (size_t i = 0; i < sent.size(); ++i) {
      ExpectFrameEq(received[i], sent[i]);
    }
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(FrameDecoderTest, BadMagicIsATypedStickyError) {
  net::FrameDecoder decoder;
  std::string junk = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  decoder.Append(junk.data(), junk.size());
  net::Frame out;
  StatusOr<bool> got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  // Sticky: the stream can never recover its framing.
  std::string valid = net::EncodeFrame(TestFrame(1, "late"));
  decoder.Append(valid.data(), valid.size());
  got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameDecoderTest, WrongVersionIsATypedError) {
  std::string wire = net::EncodeFrame(TestFrame(1, "v2"));
  wire[4] = 9;  // version byte
  net::FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  net::Frame out;
  StatusOr<bool> got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(got.status().message().find("version"), std::string::npos);
}

TEST(FrameDecoderTest, OversizedPayloadIsATypedError) {
  net::FrameDecoder decoder(/*max_payload=*/64);
  std::string wire = net::EncodeFrame(TestFrame(1, std::string(65, 'p')));
  decoder.Append(wire.data(), wire.size());
  net::Frame out;
  StatusOr<bool> got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameDecoderTest, UnknownTypeIsATypedError) {
  std::string wire = net::EncodeFrame(TestFrame(1, ""));
  wire[5] = 99;  // type byte
  net::FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  net::Frame out;
  StatusOr<bool> got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameDecoderTest, TruncatedFrameReportsBufferedBytes) {
  const std::string wire = net::EncodeFrame(TestFrame(1, "cut short"));
  net::FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size() - 3);
  net::Frame out;
  StatusOr<bool> got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(*got);                    // still a prefix, not an error...
  EXPECT_GT(decoder.buffered(), 0u);     // ...but visibly incomplete, so a
                                         // connection close here is typed
                                         // upstream as truncation.
}

// --- Payload round-trips. ----------------------------------------------

TEST(WirePayloadTest, TokenizedTableRoundTrips) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    TokenizedTable table = MakeSyntheticTokenized(seed, 40, 12);
    std::string payload;
    net::EncodeTokenizedTable(table, &payload);
    StatusOr<TokenizedTable> back = net::DecodeTokenizedTable(payload);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(SameTokenized(table, *back));
  }
}

TEST(WirePayloadTest, EmptyTableRoundTrips) {
  TokenizedTable table;  // no tokens, no cells, empty id
  std::string payload;
  net::EncodeTokenizedTable(table, &payload);
  StatusOr<TokenizedTable> back = net::DecodeTokenizedTable(payload);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(SameTokenized(table, *back));
}

TEST(WirePayloadTest, TruncatedPayloadIsATypedError) {
  TokenizedTable table = MakeSyntheticTokenized(5, 20, 4);
  std::string payload;
  net::EncodeTokenizedTable(table, &payload);
  for (size_t cut : {size_t{0}, size_t{3}, payload.size() / 2,
                     payload.size() - 1}) {
    StatusOr<TokenizedTable> back =
        net::DecodeTokenizedTable(std::string_view(payload).substr(0, cut));
    ASSERT_FALSE(back.ok()) << "cut " << cut;
    EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
  }
  // Trailing garbage is as corrupt as truncation.
  StatusOr<TokenizedTable> extra = net::DecodeTokenizedTable(payload + "!!");
  ASSERT_FALSE(extra.ok());
  EXPECT_EQ(extra.status().code(), StatusCode::kInvalidArgument);
}

TEST(WirePayloadTest, HostileTokenCountIsATypedError) {
  // A 4-byte payload announcing 2^30 tokens must fail the count check,
  // not attempt a 28GB resize.
  std::string payload;
  payload.resize(8, '\0');
  const uint32_t id_len = 0;
  const uint32_t tokens = 1u << 30;
  std::memcpy(payload.data(), &id_len, 4);
  std::memcpy(payload.data() + 4, &tokens, 4);
  StatusOr<TokenizedTable> back = net::DecodeTokenizedTable(payload);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

TEST(WirePayloadTest, EncodedTableRoundTripsBitwise) {
  serve::EncodedTable encoded;
  encoded.hidden = Tensor({3, 5});
  for (int64_t i = 0; i < encoded.hidden.numel(); ++i) {
    encoded.hidden.data()[i] = 0.123f * static_cast<float>(i) - 1.5f;
  }
  encoded.cells = Tensor({2, 5});
  for (int64_t i = 0; i < encoded.cells.numel(); ++i) {
    encoded.cells.data()[i] = -0.077f * static_cast<float>(i);
  }
  encoded.has_cells = true;

  std::string payload;
  uint8_t flags = 0;
  net::EncodeEncodedTable(encoded, &payload, &flags);
  EXPECT_TRUE(flags & net::kFlagHasCells);
  StatusOr<serve::EncodedTable> back =
      net::DecodeEncodedTable(payload, flags);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(BitwiseEqual(encoded.hidden, back->hidden));
  ASSERT_TRUE(back->has_cells);
  EXPECT_TRUE(BitwiseEqual(encoded.cells, back->cells));

  // Without the flag the cells bytes are trailing garbage.
  StatusOr<serve::EncodedTable> wrong = net::DecodeEncodedTable(payload, 0);
  ASSERT_FALSE(wrong.ok());
}

TEST(WirePayloadTest, WeightsVersionIsFlagGatedAndRoundTrips) {
  serve::EncodedTable encoded;
  encoded.hidden = Tensor({2, 3});
  for (int64_t i = 0; i < encoded.hidden.numel(); ++i) {
    encoded.hidden.data()[i] = static_cast<float>(i);
  }

  // Version 0 ("unknown") encodes exactly like a pre-version payload:
  // no flag, no trailing bytes — old clients parse it unchanged.
  std::string legacy;
  uint8_t legacy_flags = 0;
  net::EncodeEncodedTable(encoded, &legacy, &legacy_flags);
  EXPECT_FALSE(legacy_flags & net::kFlagHasVersion);

  encoded.weights_version = 7;
  std::string payload;
  uint8_t flags = 0;
  net::EncodeEncodedTable(encoded, &payload, &flags);
  EXPECT_TRUE(flags & net::kFlagHasVersion);
  EXPECT_EQ(payload.size(), legacy.size() + 8);  // one trailing u64

  StatusOr<serve::EncodedTable> back = net::DecodeEncodedTable(payload, flags);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->weights_version, 7u);
  EXPECT_TRUE(BitwiseEqual(encoded.hidden, back->hidden));

  // A payload without the flag decodes to version 0, not garbage.
  StatusOr<serve::EncodedTable> old = net::DecodeEncodedTable(legacy, 0);
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(old->weights_version, 0u);

  // The flag without the trailing bytes is a typed truncation error.
  StatusOr<serve::EncodedTable> torn =
      net::DecodeEncodedTable(legacy, net::kFlagHasVersion);
  ASSERT_FALSE(torn.ok());
}

// --- End-to-end over real sockets. --------------------------------------

/// Corpus + tokenizer + model shared by the socket tests (vocab
/// building is the slow part; same idiom as ServeFixture).
class NetFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticCorpusOptions opts;
    opts.num_tables = 24;
    corpus_ = new TableCorpus(GenerateSyntheticCorpus(opts));
    WordPieceTrainerOptions topts;
    topts.vocab_size = 1500;
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

TableCorpus* NetFixture::corpus_ = nullptr;
WordPieceTokenizer* NetFixture::tokenizer_ = nullptr;
TableSerializer* NetFixture::serializer_ = nullptr;
TableEncoderModel* NetFixture::model_ = nullptr;

TEST_F(NetFixture, PingAndSingleEncodeParity) {
  serve::ClusterOptions copts;
  copts.encoder.need_cells = true;
  serve::Cluster cluster(model_, copts);
  net::Server server(&cluster);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  StatusOr<net::Client> client = net::Client::Connect("127.0.0.1",
                                                      server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping().ok());

  TokenizedTable serialized = serializer_->Serialize(corpus_->tables[0]);
  Rng rng(1);
  models::EncodeOptions opts;
  opts.need_cells = true;
  opts.inference = true;
  models::Encoded direct = model_->Encode(serialized, rng, opts);

  StatusOr<net::EncodeResult> result = client->Encode(serialized);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->status.ok()) << result->status.ToString();
  EXPECT_TRUE(BitwiseEqual(result->encoded.hidden, direct.hidden.value()));
  ASSERT_TRUE(result->encoded.has_cells);
  EXPECT_TRUE(BitwiseEqual(result->encoded.cells, direct.cells.value()));
}

TEST_F(NetFixture, ConcurrentConnectionsMatchDirectEncode) {
  serve::Cluster cluster(model_);
  net::Server server(&cluster);
  ASSERT_TRUE(server.Start().ok());

  const size_t num_tables = 8;
  std::vector<TokenizedTable> inputs;
  std::vector<Tensor> expected;
  for (size_t i = 0; i < num_tables; ++i) {
    inputs.push_back(serializer_->Serialize(corpus_->tables[i]));
    Rng rng(1);
    models::EncodeOptions opts;
    opts.need_cells = false;
    opts.inference = true;
    expected.push_back(model_->Encode(inputs[i], rng, opts).hidden.value());
  }

  const int num_clients = 4;
  const int rounds = 3;
  std::vector<int> failures(static_cast<size_t>(num_clients), 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < num_clients; ++c) {
    threads.emplace_back([&, c] {
      StatusOr<net::Client> client =
          net::Client::Connect("127.0.0.1", server.port());
      if (!client.ok()) {
        failures[static_cast<size_t>(c)] = 1000;
        return;
      }
      for (int r = 0; r < rounds; ++r) {
        for (size_t i = 0; i < inputs.size(); ++i) {
          StatusOr<net::EncodeResult> out = client->Encode(inputs[i]);
          if (!out.ok() || !out->status.ok() ||
              !BitwiseEqual(out->encoded.hidden, expected[i])) {
            ++failures[static_cast<size_t>(c)];
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int f : failures) EXPECT_EQ(f, 0);
}

TEST_F(NetFixture, PipelinedRequestsComeBackInOrder) {
  serve::Cluster cluster(model_);
  net::Server server(&cluster);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<net::Client> client = net::Client::Connect("127.0.0.1",
                                                      server.port());
  ASSERT_TRUE(client.ok());

  // Warm one table so the last pipelined request is a cache hit: it
  // resolves inline at Submit, ahead of the misses queued before it,
  // and must still wait its turn on the wire.
  const TokenizedTable warm = serializer_->Serialize(corpus_->tables[0]);
  ASSERT_TRUE(client->Encode(warm).ok());

  const uint32_t n = 7;
  for (uint32_t seq = 1; seq < n; ++seq) {
    TokenizedTable t = serializer_->Serialize(corpus_->tables[seq % 8]);
    ASSERT_TRUE(client->SendEncodeRequest(t, seq).ok());
  }
  ASSERT_TRUE(client->SendEncodeRequest(warm, n).ok());
  for (uint32_t seq = 1; seq <= n; ++seq) {
    StatusOr<net::EncodeResult> out = client->ReadResponse();
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->seq, seq);  // FIFO completion keeps request order
    EXPECT_TRUE(out->status.ok()) << out->status.ToString();
  }
}

TEST_F(NetFixture, MalformedPayloadGetsTypedInvalidArgument) {
  serve::Cluster cluster(model_);
  net::Server server(&cluster);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<net::Client> client = net::Client::Connect("127.0.0.1",
                                                      server.port());
  ASSERT_TRUE(client.ok());

  // A request frame whose payload is not a TokenizedTable: the server
  // answers (typed) instead of dropping or dying, and the connection
  // remains usable.
  net::Frame bad;
  bad.type = net::MessageType::kEncodeRequest;
  bad.seq = 77;
  bad.payload = "definitely not a table";
  const std::string wire = net::EncodeFrame(bad);
  // Reuse the client's socket via Ping-style send: craft directly.
  TokenizedTable ok_table = serializer_->Serialize(corpus_->tables[1]);
  ASSERT_TRUE(client->SendEncodeRequest(ok_table, 1).ok());
  StatusOr<net::EncodeResult> first = client->ReadResponse();
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->status.ok());

  // Now the malformed one (send the raw frame through a fresh client
  // whose socket we can write arbitrary bytes to).
  StatusOr<net::Client> raw = net::Client::Connect("127.0.0.1",
                                                   server.port());
  ASSERT_TRUE(raw.ok());
  // SendEncodeRequest would re-serialize; talk frames directly instead.
  // (Client has no raw-write API on purpose; go through a socketpair-
  // style second connection using Ping to prove liveness after.)
  // Simplest: use the existing client — send the bad frame bytes by
  // abusing SendEncodeRequest is impossible, so open a plain socket.
  // The Client::Encode path already covers the happy case; here we
  // hand-roll the exchange.
  // NOTE: kept deliberately low-level — this is the one test that
  // speaks raw bytes at an open port.
  struct RawConn {
    int fd;
    explicit RawConn(uint16_t port) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                          sizeof(addr)),
                0);
    }
    ~RawConn() { ::close(fd); }
  };
  RawConn conn(server.port());
  ASSERT_EQ(::send(conn.fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  net::FrameDecoder decoder;
  net::Frame response;
  bool done = false;
  while (!done) {
    char buf[4096];
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    ASSERT_GT(n, 0);
    decoder.Append(buf, static_cast<size_t>(n));
    StatusOr<bool> got = decoder.Next(&response);
    ASSERT_TRUE(got.ok());
    done = *got;
  }
  EXPECT_EQ(response.seq, 77u);
  EXPECT_EQ(response.status, StatusCode::kInvalidArgument);
}

TEST_F(NetFixture, BadMagicGetsTypedErrorResponseAndClose) {
  serve::Cluster cluster(model_);
  net::Server server(&cluster);
  ASSERT_TRUE(server.Start().ok());

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string junk = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(fd, junk.data(), junk.size(), 0),
            static_cast<ssize_t>(junk.size()));

  // The server answers with one typed error frame, then closes.
  net::FrameDecoder decoder;
  net::Frame response;
  bool got_frame = false;
  bool closed = false;
  while (!closed) {
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      closed = true;
      break;
    }
    decoder.Append(buf, static_cast<size_t>(n));
    StatusOr<bool> got = decoder.Next(&response);
    ASSERT_TRUE(got.ok());
    if (*got) got_frame = true;
  }
  ::close(fd);
  ASSERT_TRUE(got_frame);
  EXPECT_EQ(response.status, StatusCode::kInvalidArgument);
  EXPECT_TRUE(closed);
}

TEST_F(NetFixture, SaturatedQueueShedsWithTypedOverloadedAndZeroDrops) {
  // Deterministic backpressure: the dispatcher stalls 200ms per batch,
  // the per-connection cap admits 2, the burst is 12 — all 12 frames
  // land at the event loop long before the first completion, so
  // exactly 2 are admitted and 10 shed. Every request gets an answer.
  serve::ClusterOptions copts;
  copts.encoder.max_batch = 1;
  copts.encoder.max_wait_us = 0;
  copts.encoder.cache_capacity = 0;
  copts.encoder.dispatch_delay_us = 200000;
  serve::Cluster cluster(model_, copts);

  net::ServerOptions sopts;
  sopts.max_inflight_per_conn = 2;
  net::Server server(&cluster, sopts);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<net::Client> client = net::Client::Connect("127.0.0.1",
                                                      server.port());
  ASSERT_TRUE(client.ok());

  const uint32_t burst = 12;
  for (uint32_t seq = 1; seq <= burst; ++seq) {
    // Distinct tables: no coalescing, no cache hits.
    ASSERT_TRUE(client
                    ->SendEncodeRequest(serializer_->Serialize(
                                            corpus_->tables[seq % 20]),
                                        seq)
                    .ok());
  }
  uint32_t ok = 0, overloaded = 0, other = 0;
  for (uint32_t i = 0; i < burst; ++i) {
    StatusOr<net::EncodeResult> out = client->ReadResponse();
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    if (out->status.ok()) {
      ++ok;
      EXPECT_GT(out->encoded.hidden.numel(), 0);
    } else if (out->status.code() == StatusCode::kOverloaded) {
      ++overloaded;
    } else {
      ++other;
    }
  }
  EXPECT_EQ(ok + overloaded, burst) << "every request must be answered";
  EXPECT_EQ(other, 0u);
  EXPECT_GE(overloaded, 1u);
  EXPECT_GE(ok, 2u);
}

TEST_F(NetFixture, ServerOptionsFromEnv) {
  setenv("TABREP_NET_MAX_QUEUE", "9", 1);
  setenv("TABREP_NET_MAX_INFLIGHT_PER_CONN", "3", 1);
  setenv("TABREP_SHARDS", "4", 1);
  net::ServerOptions options = net::ServerOptions::FromEnv();
  EXPECT_EQ(options.max_queue, 9);
  EXPECT_EQ(options.max_inflight_per_conn, 3);
  EXPECT_EQ(options.shards, 4);
  unsetenv("TABREP_NET_MAX_QUEUE");
  unsetenv("TABREP_NET_MAX_INFLIGHT_PER_CONN");
  unsetenv("TABREP_SHARDS");
  net::ServerOptions defaults = net::ServerOptions::FromEnv();
  EXPECT_EQ(defaults.max_queue, net::ServerOptions{}.max_queue);
  EXPECT_EQ(defaults.shards, net::ServerOptions{}.shards);
}

// --- Stats/health introspection plane. ----------------------------------

TEST(WireTypeTest, IntrospectionTypeBytesArePinned) {
  // Wire contract: the introspection types extend v1 additively and
  // their bytes are frozen (a future peer must agree on them).
  EXPECT_EQ(static_cast<uint8_t>(net::MessageType::kStatsRequest), 5);
  EXPECT_EQ(static_cast<uint8_t>(net::MessageType::kStatsResponse), 6);
  EXPECT_EQ(static_cast<uint8_t>(net::MessageType::kHealthRequest), 7);
  EXPECT_EQ(static_cast<uint8_t>(net::MessageType::kHealthResponse), 8);
}

TEST_F(NetFixture, StatsAndHealthRoundTripUnderLoad) {
  serve::Cluster cluster(model_);
  net::Server server(&cluster);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<net::Client> client = net::Client::Connect("127.0.0.1",
                                                      server.port());
  ASSERT_TRUE(client.ok());

  // Some real traffic first so the metrics plane has content, with a
  // second connection hammering encodes while we poll — the stats path
  // must answer on the event loop regardless of encoder state.
  for (int i = 0; i < 4; ++i) {
    TokenizedTable t = serializer_->Serialize(corpus_->tables[i]);
    ASSERT_TRUE(client->Encode(t).ok());
  }
  std::thread hammer([&] {
    StatusOr<net::Client> c2 = net::Client::Connect("127.0.0.1",
                                                    server.port());
    if (!c2.ok()) return;
    for (int i = 0; i < 12; ++i) {
      (void)c2->Encode(serializer_->Serialize(corpus_->tables[i % 8]));
    }
  });

  for (int poll = 0; poll < 3; ++poll) {
    StatusOr<std::string> stats_json = client->Stats();
    ASSERT_TRUE(stats_json.ok()) << stats_json.status().ToString();
    Result<obs::JsonValue> stats = obs::JsonParse(*stats_json);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    const obs::JsonValue* port = stats->Get({"server", "port"});
    ASSERT_NE(port, nullptr);
    EXPECT_EQ(static_cast<uint16_t>(port->AsNumber()), server.port());
    ASSERT_NE(stats->Get({"server", "wire_version"}), nullptr);
    ASSERT_NE(stats->Get({"server", "uptime_us"}), nullptr);
    // The embedded registry dump is the same shape statscope parses.
    const obs::JsonValue* counters = stats->Get({"metrics", "counters"});
    ASSERT_NE(counters, nullptr);
    const obs::JsonValue* requests = counters->Find("tabrep.net.requests");
    ASSERT_NE(requests, nullptr);
    EXPECT_GE(requests->AsNumber(), 4.0);
    // Stage histograms carry count+sum (the delta-mean contract).
    const obs::JsonValue* histograms = stats->Get({"metrics", "histograms"});
    ASSERT_NE(histograms, nullptr);
    const obs::JsonValue* queue_h =
        histograms->Find("tabrep.serve.stage.queue.us");
    ASSERT_NE(queue_h, nullptr);
    ASSERT_NE(queue_h->Find("count"), nullptr);
    ASSERT_NE(queue_h->Find("sum"), nullptr);
    EXPECT_GE(queue_h->Find("count")->AsNumber(), 1.0);

    StatusOr<std::string> health_json = client->Health();
    ASSERT_TRUE(health_json.ok()) << health_json.status().ToString();
    Result<obs::JsonValue> health = obs::JsonParse(*health_json);
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    ASSERT_NE(health->Find("status"), nullptr);
    EXPECT_EQ(health->Find("status")->AsString(), "ok");
    for (const char* key : {"queue_depth", "inflight", "connections",
                            "shed_rate", "uptime_us"}) {
      ASSERT_NE(health->Find(key), nullptr) << key;
    }
    EXPECT_GE(health->Find("queue_depth")->AsNumber(), 0.0);
  }
  hammer.join();
}

TEST_F(NetFixture, ClusterBackedServerEchoesVersionAndTopology) {
  // The server is topology-agnostic: hand it a 2-shard cluster and the
  // whole wire contract must hold, with every encode response carrying
  // the weights version it ran under and the stats plane growing a
  // "cluster" section.
  serve::ClusterOptions copts;
  copts.shards = 2;
  serve::Cluster cluster(model_, copts);
  net::ServerOptions sopts;
  sopts.shards = 2;
  net::Server server(&cluster, sopts);
  ASSERT_TRUE(server.Start().ok());

  StatusOr<net::Client> client = net::Client::Connect("127.0.0.1",
                                                      server.port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 6; ++i) {
    TokenizedTable t = serializer_->Serialize(corpus_->tables[i]);
    Rng rng(1);
    models::EncodeOptions opts;
    opts.inference = true;
    Tensor direct = model_->Encode(t, rng, opts).hidden.value();
    StatusOr<net::EncodeResult> result = client->Encode(t);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(result->status.ok()) << result->status.ToString();
    EXPECT_TRUE(BitwiseEqual(result->encoded.hidden, direct))
        << "table " << i << " through the cluster";
    EXPECT_EQ(result->encoded.weights_version, 1u);
  }

  StatusOr<std::string> stats_json = client->Stats();
  ASSERT_TRUE(stats_json.ok());
  Result<obs::JsonValue> stats = obs::JsonParse(*stats_json);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const obs::JsonValue* shards = stats->Get({"server", "cluster", "shards"});
  ASSERT_NE(shards, nullptr) << *stats_json;
  EXPECT_EQ(shards->AsNumber(), 2.0);
  const obs::JsonValue* version =
      stats->Get({"server", "cluster", "weights_version"});
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->AsNumber(), 1.0);
  ASSERT_NE(stats->Get({"server", "cluster", "shard_depth"}), nullptr);

  StatusOr<std::string> health_json = client->Health();
  ASSERT_TRUE(health_json.ok());
  Result<obs::JsonValue> health = obs::JsonParse(*health_json);
  ASSERT_TRUE(health.ok());
  ASSERT_NE(health->Find("shards"), nullptr) << *health_json;
  EXPECT_EQ(health->Find("shards")->AsNumber(), 2.0);
  ASSERT_NE(health->Find("weights_version"), nullptr);
  EXPECT_EQ(health->Find("weights_version")->AsNumber(), 1.0);
}

TEST_F(NetFixture, StatsRequestWithPayloadIsTypedInvalidArgument) {
  serve::Cluster cluster(model_);
  net::Server server(&cluster);
  ASSERT_TRUE(server.Start().ok());

  // Introspection requests carry no payload; a non-empty one must come
  // back as a typed error on the matching response type, and the
  // connection must stay usable (same contract as malformed encodes).
  net::Frame bad;
  bad.type = net::MessageType::kStatsRequest;
  bad.seq = 31;
  bad.payload = "unexpected";
  const std::string wire = net::EncodeFrame(bad);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  net::FrameDecoder decoder;
  net::Frame response;
  bool done = false;
  while (!done) {
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0);
    decoder.Append(buf, static_cast<size_t>(n));
    StatusOr<bool> got = decoder.Next(&response);
    ASSERT_TRUE(got.ok());
    done = *got;
  }
  EXPECT_EQ(response.type, net::MessageType::kStatsResponse);
  EXPECT_EQ(response.seq, 31u);
  EXPECT_EQ(response.status, StatusCode::kInvalidArgument);

  // Still alive: a well-formed health request on the same socket works.
  net::Frame good;
  good.type = net::MessageType::kHealthRequest;
  good.seq = 32;
  const std::string wire2 = net::EncodeFrame(good);
  ASSERT_EQ(::send(fd, wire2.data(), wire2.size(), 0),
            static_cast<ssize_t>(wire2.size()));
  done = false;
  while (!done) {
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(n, 0);
    decoder.Append(buf, static_cast<size_t>(n));
    StatusOr<bool> got = decoder.Next(&response);
    ASSERT_TRUE(got.ok());
    done = *got;
  }
  ::close(fd);
  EXPECT_EQ(response.type, net::MessageType::kHealthResponse);
  EXPECT_EQ(response.status, StatusCode::kOk);
  EXPECT_TRUE(obs::JsonParse(response.payload).ok());
}

TEST_F(NetFixture, PipelinedStatsOvertakesSlowEncodes) {
  // kStats/kHealth are answered directly on the event loop: a stats
  // frame pipelined behind slow encode requests comes back FIRST (the
  // health plane must work while the encoder is saturated), while the
  // encode responses themselves keep FIFO order.
  serve::ClusterOptions copts;
  copts.encoder.max_batch = 1;
  copts.encoder.max_wait_us = 0;
  copts.encoder.cache_capacity = 0;
  // 100ms/batch: encodes are slow.
  copts.encoder.dispatch_delay_us = 100000;
  serve::Cluster cluster(model_, copts);
  net::Server server(&cluster);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<net::Client> client = net::Client::Connect("127.0.0.1",
                                                      server.port());
  ASSERT_TRUE(client.ok());

  const uint32_t n = 2;
  for (uint32_t seq = 1; seq <= n; ++seq) {
    TokenizedTable t = serializer_->Serialize(corpus_->tables[seq]);
    ASSERT_TRUE(client->SendEncodeRequest(t, seq).ok());
  }
  const uint32_t stats_seq = 99;
  ASSERT_TRUE(client->SendStatsRequest(stats_seq).ok());

  StatusOr<net::Frame> first = client->ReadAnyFrame();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->type, net::MessageType::kStatsResponse);
  EXPECT_EQ(first->seq, stats_seq);
  EXPECT_TRUE(obs::JsonParse(first->payload).ok());

  for (uint32_t seq = 1; seq <= n; ++seq) {
    StatusOr<net::EncodeResult> out = client->ReadResponse();
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->seq, seq);  // encode-vs-encode FIFO is preserved
    EXPECT_TRUE(out->status.ok()) << out->status.ToString();
  }
}

TEST_F(NetFixture, CacheHitOvertakesAnotherConnectionsSlowEncode) {
  // Completions go straight to the event loop per request: connection
  // B's cache hit must not wait behind connection A's miss, which the
  // dispatcher holds for 300ms.
  serve::ClusterOptions copts;
  copts.encoder.max_batch = 1;
  copts.encoder.max_wait_us = 0;
  copts.encoder.dispatch_delay_us = 300000;
  serve::Cluster cluster(model_, copts);
  net::Server server(&cluster);
  ASSERT_TRUE(server.Start().ok());
  StatusOr<net::Client> a = net::Client::Connect("127.0.0.1", server.port());
  StatusOr<net::Client> b = net::Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  const TokenizedTable hit = serializer_->Serialize(corpus_->tables[2]);
  const TokenizedTable miss = serializer_->Serialize(corpus_->tables[5]);
  ASSERT_TRUE(b->Encode(hit).ok());  // warm B's table (one slow encode)

  ASSERT_TRUE(a->SendEncodeRequest(miss, 1).ok());
  // A stats response on A proves the event loop has already submitted
  // A's encode: frames of one connection are handled in order.
  ASSERT_TRUE(a->SendStatsRequest(2).ok());
  StatusOr<net::Frame> stats = a->ReadAnyFrame();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->type, net::MessageType::kStatsResponse);

  const auto t0 = std::chrono::steady_clock::now();
  StatusOr<net::EncodeResult> fast = b->Encode(hit);
  const auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_TRUE(fast->status.ok()) << fast->status.ToString();
  EXPECT_LT(waited, std::chrono::milliseconds(100))
      << "cache hit waited behind another connection's encode";

  StatusOr<net::EncodeResult> slow = a->ReadResponse();
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_EQ(slow->seq, 1u);
  EXPECT_TRUE(slow->status.ok()) << slow->status.ToString();
}

TEST_F(NetFixture, StopWithEncodeInFlightIsClean) {
  // Destroying the server while the dispatcher is still inside a slow
  // encode: Stop must wait for that request's callback (which writes
  // the server's eventfd and owns its trace) before tearing down.
  serve::ClusterOptions copts;
  copts.encoder.max_batch = 1;
  copts.encoder.max_wait_us = 0;
  copts.encoder.cache_capacity = 0;
  copts.encoder.dispatch_delay_us = 200000;
  serve::Cluster cluster(model_, copts);
  auto server = std::make_unique<net::Server>(&cluster);
  ASSERT_TRUE(server->Start().ok());
  StatusOr<net::Client> client = net::Client::Connect("127.0.0.1",
                                                      server->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client
                  ->SendEncodeRequest(
                      serializer_->Serialize(corpus_->tables[4]), 1)
                  .ok());
  ASSERT_TRUE(client->SendStatsRequest(2).ok());
  StatusOr<net::Frame> stats = client->ReadAnyFrame();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->type, net::MessageType::kStatsResponse);

  server.reset();  // the encode is still in the dispatcher's delay
  // The response is never written: the client sees the close.
  EXPECT_FALSE(client->ReadResponse().ok());
  // The encoder outlives the server and keeps serving direct callers.
  EXPECT_TRUE(cluster.Encode(serializer_->Serialize(corpus_->tables[4])).ok());
}

TEST_F(NetFixture, StopWhileClientsConnectedIsClean) {
  serve::Cluster cluster(model_);
  auto server = std::make_unique<net::Server>(&cluster);
  ASSERT_TRUE(server->Start().ok());
  StatusOr<net::Client> client = net::Client::Connect("127.0.0.1",
                                                      server->port());
  ASSERT_TRUE(client.ok());
  TokenizedTable t = serializer_->Serialize(corpus_->tables[3]);
  ASSERT_TRUE(client->Encode(t).ok());
  server.reset();  // Stop + destructor while the client holds its socket
  // The client now sees a closed connection as a transport error, not
  // a hang.
  StatusOr<net::EncodeResult> after = client->Encode(t);
  EXPECT_FALSE(after.ok());
}

}  // namespace
}  // namespace tabrep
