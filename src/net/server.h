#ifndef TABREP_NET_SERVER_H_
#define TABREP_NET_SERVER_H_

// tabrep::net — the TCP serving front-end (ISSUE 6 tentpole). A
// Server listens on one port, speaks the versioned frame protocol
// (net/wire.h), and bridges encode requests onto a serve::Cluster
// through its non-blocking callback Submit().
//
// Threading boundary (see DESIGN.md "Network serving"): one event-loop
// thread — epoll (edge-triggered) over the listen socket, a wake
// eventfd, and every connection — owns all socket reads/writes, frame
// reassembly, admission control, and response serialization, and never
// blocks on inference. An encode's completion callback (run by a
// shard's dispatcher, or inline for a hit, shed or cancel) pushes its
// result onto a ready queue and writes the eventfd; the loop flushes
// each connection's ready prefix of response slots, so responses keep
// request order within a connection and nothing waits across
// connections.
//
// Admission control (all rejects are typed kOverloaded response
// frames — never silent drops):
//   - global bound: at most max_queue requests submitted-but-not-
//     yet-answered across all connections;
//   - per-connection bound: at most max_inflight_per_conn outstanding
//     requests per connection;
//   - each shard's own max_queue (ClusterOptions::encoder), whose
//     kOverloaded result becomes the same wire status.
//
// Counters (tabrep.net.*): connections.accepted, connections.closed,
// frames.in, responses.out, bytes.in, bytes.out, requests, shed,
// errors; histogram request.us spans frame-parsed to response-queued.
//
// Request observability (ISSUE 7): every encode request carries an
// obs::RequestContext with monotonic stage stamps (see obs/reqtrace.h
// for the chain and DESIGN.md for which thread writes which stamp).
// Successful requests land in the tabrep.serve.stage.*.us histograms;
// every request (sheds and rejects included) gets one JSONL line in
// the optional access log. The kStats/kHealth wire messages are
// answered directly on the event loop — the introspection plane must
// keep working precisely when the encoder is drowning — so a stats
// response may overtake pending encode responses on the same
// connection; encode-vs-encode order is still FIFO per connection.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "net/wire.h"
#include "obs/reqtrace.h"
#include "obs/watchdog.h"
#include "obs/window.h"
#include "serve/cluster.h"

namespace tabrep::net {

struct ServerOptions {
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int32_t port = 0;
  /// listen(2) backlog.
  int32_t backlog = 64;
  /// Accepted connections beyond this are closed immediately.
  int64_t max_connections = 256;
  /// Global admission bound: requests submitted but not yet answered.
  int64_t max_queue = 256;
  /// Per-connection outstanding-request cap.
  int64_t max_inflight_per_conn = 32;
  /// Largest request payload a client may announce.
  int64_t max_payload_bytes = static_cast<int64_t>(kDefaultMaxPayload);
  /// JSONL access-log path (obs::AccessLog schema, one line per
  /// finished request). Empty disables the log — the default, because
  /// the log writes a line per request from the event loop.
  std::string access_log_path;

  /// Shard count (TABREP_SHARDS, the variable serve::
  /// ClusterOptionsFromEnv reads). The Server itself serves whatever
  /// Cluster it was handed and never reads this field.
  int64_t shards = 1;

  /// Runtime self-observability (ISSUE 8). When true, Start() spins up
  /// a WindowedRegistry (ticked once per watchdog interval) plus an
  /// obs::Watchdog that checks the event-loop and dispatcher
  /// heartbeats against the deadman, samples runtime probes (queue
  /// depth, inflight, RSS, arena bytes), and evaluates `slo` into
  /// the verdict served by kHealth.
  bool watchdog = true;
  int64_t window_secs = 10;
  int64_t watchdog_interval_ms = 1000;
  int64_t watchdog_deadman_ms = 5000;
  obs::SloConfig slo;  ///< zero targets = SLO checks disabled

  /// Every field resolved through serve::EnvInt64 / serve::EnvString
  /// (one documented defaulting path, same idiom as
  /// serve::OptionsFromEnv):
  ///   TABREP_NET_PORT, TABREP_NET_BACKLOG, TABREP_NET_MAX_CONNECTIONS,
  ///   TABREP_NET_MAX_QUEUE, TABREP_NET_MAX_INFLIGHT_PER_CONN,
  ///   TABREP_NET_MAX_PAYLOAD, TABREP_NET_ACCESS_LOG,
  ///   TABREP_NET_WATCHDOG (0 disables), TABREP_WINDOW_SECS,
  ///   TABREP_WATCHDOG_INTERVAL_MS, TABREP_WATCHDOG_DEADMAN_MS,
  ///   TABREP_SLO_P99_US, TABREP_SLO_SHED_RATE,
  ///   TABREP_SHARDS.
  static ServerOptions FromEnv();
};

/// The TCP front-end. Construction does not touch the network; Start()
/// binds/listens and spins up the event-loop thread; Stop()
/// (idempotent, also run by the destructor) closes every connection,
/// joins the loop and waits for every outstanding encode callback.
/// The cluster must outlive the Server. The server reads the cluster's
/// shard layout only to wire watchdog heartbeats/probes and the kStats
/// "cluster" section.
class Server {
 public:
  explicit Server(serve::Cluster* cluster, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts serving. kIOError with errno context
  /// when the socket setup fails.
  Status Start();

  /// Drains nothing: outstanding encodes complete inside the cluster
  /// (Stop waits for their callbacks), but their responses are not
  /// written once the loop exits. Safe to call twice.
  void Stop();

  /// The bound port (meaningful after Start; resolves port 0).
  uint16_t port() const { return port_; }

  const ServerOptions& options() const { return options_; }

 private:
  /// Per-connection lifecycle state machine. kOpen accepts requests;
  /// kClosing flushes queued responses but reads nothing more (entered
  /// on protocol error or peer half-close with responses pending);
  /// destruction of the Connection is kClosed.
  enum class ConnState { kOpen, kClosing };

  /// One submitted encode: queued on its connection until its turn on
  /// the wire, and on ready_ once its callback ran. The trace (which
  /// names the connection) is shared with the callback, which may
  /// outlive the connection.
  struct ResponseSlot {
    std::shared_ptr<obs::RequestContext> trace;
    std::optional<StatusOr<serve::EncodedTablePtr>> result;
  };

  struct Connection {
    int fd = -1;
    uint64_t id = 0;
    ConnState state = ConnState::kOpen;
    FrameDecoder decoder;
    std::string outbuf;     // serialized frames awaiting the socket
    size_t out_off = 0;     // written prefix of outbuf
    /// Submitted encodes in request order; its size is the
    /// connection's in-flight count.
    std::deque<ResponseSlot> responses;
    bool peer_eof = false;  // read side saw EOF

    explicit Connection(size_t max_payload) : decoder(max_payload) {}
  };

  void EventLoop();

  void AcceptNew();
  /// Edge-triggered read drain; parses frames and dispatches them.
  void HandleReadable(Connection& conn);
  void HandleWritable(Connection& conn);
  void HandleFrame(Connection& conn, Frame frame);
  void QueueResponse(Connection& conn, const Frame& frame);
  void DrainCompletions();
  /// Serializes and writes the connection's leading run of slots whose
  /// results have arrived.
  void FlushResponses(Connection& conn);
  void CloseConnection(uint64_t conn_id);
  /// Close now if nothing is pending; else enter kClosing.
  void MaybeClose(Connection& conn);
  void UpdateEpoll(Connection& conn);

  /// kStats payload: {"server":{...},"metrics":Registry::ToJson(),
  /// "window":WindowedRegistry::ToJson()} (window is {} with the
  /// watchdog disabled). Event-loop only (reads conns_ unlocked).
  std::string StatsJson() const;
  /// kHealth payload: watchdog verdict status, queue depth, in-flight,
  /// shed rate, connections, plus an additive "slo" section with the
  /// machine-readable reasons (absent with the watchdog disabled).
  std::string HealthJson() const;
  /// Stage histograms (OK requests only) + access log (all requests).
  void FinishRequest(obs::RequestContext& trace);

  serve::Cluster* cluster_;
  ServerOptions options_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: completions ready or stop requested
  std::atomic<bool> stop_{false};
  bool started_ = false;

  uint64_t next_conn_id_ = 1;
  uint64_t next_request_id_ = 1;  // event-loop owned, process-unique
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  /// Across all connections. Written by the event loop only; atomic so
  /// the watchdog's inflight probe may read it cross-thread.
  std::atomic<int64_t> global_inflight_{0};
  std::chrono::steady_clock::time_point start_time_{};
  /// Null when options_.access_log_path is empty; opened by Start().
  std::unique_ptr<obs::AccessLog> access_log_;

  /// Event-loop liveness beacon: beaten once per epoll wakeup (the
  /// loop polls with a bounded timeout, so beats flow even when idle).
  obs::Heartbeat loop_heartbeat_{"tabrep.net.loop.heartbeat.us"};
  /// Both null when options_.watchdog is false; created by Start(),
  /// torn down by Stop(). The watchdog references the window.
  std::unique_ptr<obs::WindowedRegistry> window_;
  std::unique_ptr<obs::Watchdog> watchdog_;

  /// Guards ready_ and callbacks_pending_. Completion callbacks push
  /// under it, so it is also the happens-before edge that publishes
  /// the dispatcher's trace stamps to the event loop.
  std::mutex completion_mu_;
  std::condition_variable completion_cv_;  // callbacks_pending_ hit 0
  std::deque<ResponseSlot> ready_;         // event loop input
  int64_t callbacks_pending_ = 0;          // submitted, callback not run

  std::thread loop_thread_;
};

}  // namespace tabrep::net

#endif  // TABREP_NET_SERVER_H_
