// serve_net — a standalone tabrep::net server for manual testing and
// tools/loadgen runs.
//
// Builds the fixed-seed synthetic world (the same corpus loadgen
// generates, so request token ids are always in-vocab), pretends the
// resulting small model is a published checkpoint, and serves encode
// requests until SIGINT/SIGTERM.
//
// Usage:
//   serve_net [--port=PORT] [--tables=T] [--shards=N]
//             [--reload-every-ms=MS]
//
// Every net::ServerOptions tunable is also honored from the
// environment (TABREP_NET_PORT etc., see net/server.h); --port wins
// over TABREP_NET_PORT, --shards over TABREP_SHARDS. Prints the bound
// port on startup (port 0 binds an ephemeral one).
//
// The backend is a serve::Cluster of N shards behind the hash-affinity
// router, all encoding with one shared model. --reload-every-ms=MS
// republishes the checkpoint every MS milliseconds, bumping the weights
// version without changing the weights — a deterministic rollover
// generator, so tools/loadgen can observe in-flight version transitions
// against a stock binary.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"
#include "models/table_encoder.h"
#include "net/server.h"
#include "serialize/serializer.h"
#include "serialize/vocab_builder.h"
#include "serve/cluster.h"
#include "serve/serve.h"
#include "table/synth.h"
#include "tensor/io.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

bool ParseIntFlag(const char* arg, const char* name, int* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = std::atoi(arg + len + 1);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tabrep;

  int port = -1;
  int num_tables = 24;
  int shards = -1;
  int reload_every_ms = 0;
  for (int i = 1; i < argc; ++i) {
    if (ParseIntFlag(argv[i], "--port", &port) ||
        ParseIntFlag(argv[i], "--tables", &num_tables) ||
        ParseIntFlag(argv[i], "--shards", &shards) ||
        ParseIntFlag(argv[i], "--reload-every-ms", &reload_every_ms)) {
      continue;
    }
    std::fprintf(stderr,
                 "usage: serve_net [--port=PORT] [--tables=T] [--shards=N]\n"
                 "                 [--reload-every-ms=MS]\n");
    return 2;
  }

  // The same fixed-seed world loadgen builds: the vocab (and so every
  // token id a default loadgen can send) matches this model.
  SyntheticCorpusOptions copts;
  copts.num_tables = num_tables;
  TableCorpus corpus = GenerateSyntheticCorpus(copts);
  WordPieceTrainerOptions topts;
  topts.vocab_size = 1500;
  WordPieceTokenizer tokenizer = BuildCorpusTokenizer(corpus, topts);

  ModelConfig config;
  config.family = ModelFamily::kTabert;
  config.vocab_size = tokenizer.vocab().size();
  config.entity_vocab_size = corpus.entities.size();
  config.transformer.dim = 48;
  config.transformer.num_layers = 2;
  config.transformer.num_heads = 4;
  config.transformer.ffn_dim = 96;
  config.transformer.dropout = 0.0f;
  config.max_position = 160;
  TableEncoderModel model(config);
  model.SetTraining(false);

  // Calibrate the int8 inference path on the same fixed-seed world, so
  // wire clients setting kFlagInt8 exercise the quantized kernels
  // instead of the per-layer f32 fallback. TABREP_INT8_CALIBRATE=0
  // opts out (serves int8 requests via the fallback).
  if (serve::EnvInt64("TABREP_INT8_CALIBRATE", 1) != 0) {
    SerializerOptions sopts;
    sopts.max_tokens = 96;
    TableSerializer serializer(&tokenizer, sopts);
    std::vector<TokenizedTable> calibration;
    calibration.reserve(corpus.tables.size());
    for (const Table& table : corpus.tables) {
      calibration.push_back(serializer.Serialize(table));
    }
    const int64_t calibrated = model.CalibrateInt8(calibration);
    std::printf("serve_net: int8-calibrated %lld linear layers\n",
                static_cast<long long>(calibrated));
  }

  net::ServerOptions options = net::ServerOptions::FromEnv();
  if (port >= 0) options.port = port;

  // The cluster knobs (TABREP_SHARDS, TABREP_STEAL_THRESHOLD and the
  // per-shard encoder options) come from serve::ClusterOptionsFromEnv;
  // the --shards flag wins over TABREP_SHARDS.
  serve::ClusterOptions copts_cluster = serve::ClusterOptionsFromEnv();
  if (shards >= 1) copts_cluster.shards = shards;
  serve::Cluster cluster(&model, copts_cluster);

  net::Server server(&cluster, options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serve_net: %s\n", started.ToString().c_str());
    return 1;
  }
  const std::string family(ModelFamilyName(config.family));
  std::printf("serve_net: listening on 127.0.0.1:%u (model %s, vocab %lld, "
              "%lld shards)\n",
              server.port(), family.c_str(),
              static_cast<long long>(config.vocab_size),
              static_cast<long long>(cluster.shard_count()));
  std::fflush(stdout);

  // A checkpoint for the periodic republish: the model's own state
  // dict, so every rollover is weight-identical (responses stay
  // bitwise stable across versions — only the echoed version moves).
  TensorMap checkpoint;
  if (reload_every_ms > 0) checkpoint = model.ExportStateDict();

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  int64_t ms_until_reload = reload_every_ms;
  while (g_stop == 0) {
    struct timespec ts = {0, 100 * 1000 * 1000};  // 100ms
    nanosleep(&ts, nullptr);
    if (reload_every_ms > 0) {
      ms_until_reload -= 100;
      if (ms_until_reload <= 0) {
        ms_until_reload = reload_every_ms;
        StatusOr<uint64_t> version = cluster.PublishWeights(checkpoint);
        if (version.ok()) {
          std::printf("serve_net: published weights version %llu\n",
                      static_cast<unsigned long long>(*version));
          std::fflush(stdout);
        } else {
          std::fprintf(stderr, "serve_net: publish failed: %s\n",
                       version.status().ToString().c_str());
        }
      }
    }
  }
  std::printf("serve_net: shutting down\n");
  return 0;
}
