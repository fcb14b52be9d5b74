#include "net/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "tensor/kernels.h"

namespace tabrep::net {

namespace {

// epoll_event.data.u64 sentinels for the two non-connection fds.
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = ~0ull;

obs::Counter& AcceptedCounter() {
  static obs::Counter& c =
      obs::Registry::Get().counter("tabrep.net.connections.accepted");
  return c;
}
obs::Counter& ClosedCounter() {
  static obs::Counter& c =
      obs::Registry::Get().counter("tabrep.net.connections.closed");
  return c;
}
obs::Counter& FramesInCounter() {
  static obs::Counter& c = obs::Registry::Get().counter("tabrep.net.frames.in");
  return c;
}
obs::Counter& ResponsesCounter() {
  static obs::Counter& c =
      obs::Registry::Get().counter("tabrep.net.responses.out");
  return c;
}
obs::Counter& BytesInCounter() {
  static obs::Counter& c = obs::Registry::Get().counter("tabrep.net.bytes.in");
  return c;
}
obs::Counter& BytesOutCounter() {
  static obs::Counter& c = obs::Registry::Get().counter("tabrep.net.bytes.out");
  return c;
}
obs::Counter& RequestsCounter() {
  static obs::Counter& c = obs::Registry::Get().counter("tabrep.net.requests");
  return c;
}
obs::Counter& ShedCounter() {
  static obs::Counter& c = obs::Registry::Get().counter("tabrep.net.shed");
  return c;
}
obs::Counter& ErrorsCounter() {
  static obs::Counter& c = obs::Registry::Get().counter("tabrep.net.errors");
  return c;
}
obs::Histogram& RequestUsHistogram() {
  static obs::Histogram& h =
      obs::Registry::Get().histogram("tabrep.net.request.us");
  return h;
}

Status ErrnoStatus(const char* what) {
  return Status::IOError(std::string(what) + ": " +
                         std::strerror(errno));
}

/// An error-response frame: the status byte carries the code, the
/// payload carries the human-readable message.
Frame ErrorFrame(MessageType type, uint32_t seq, const Status& status) {
  Frame frame;
  frame.type = type;
  frame.seq = seq;
  frame.status = status.code();
  frame.payload = status.message();
  return frame;
}

}  // namespace

ServerOptions ServerOptions::FromEnv() {
  ServerOptions options;
  options.port =
      static_cast<int32_t>(serve::EnvInt64("TABREP_NET_PORT", options.port));
  options.backlog = static_cast<int32_t>(
      serve::EnvInt64("TABREP_NET_BACKLOG", options.backlog));
  options.max_connections =
      serve::EnvInt64("TABREP_NET_MAX_CONNECTIONS", options.max_connections);
  options.max_queue = serve::EnvInt64("TABREP_NET_MAX_QUEUE",
                                      options.max_queue);
  options.max_inflight_per_conn = serve::EnvInt64(
      "TABREP_NET_MAX_INFLIGHT_PER_CONN", options.max_inflight_per_conn);
  options.max_payload_bytes =
      serve::EnvInt64("TABREP_NET_MAX_PAYLOAD", options.max_payload_bytes);
  options.access_log_path =
      serve::EnvString("TABREP_NET_ACCESS_LOG", options.access_log_path);
  options.watchdog =
      serve::EnvInt64("TABREP_NET_WATCHDOG", options.watchdog ? 1 : 0) != 0;
  options.window_secs =
      serve::EnvInt64("TABREP_WINDOW_SECS", options.window_secs);
  options.watchdog_interval_ms = serve::EnvInt64(
      "TABREP_WATCHDOG_INTERVAL_MS", options.watchdog_interval_ms);
  options.watchdog_deadman_ms = serve::EnvInt64(
      "TABREP_WATCHDOG_DEADMAN_MS", options.watchdog_deadman_ms);
  options.slo = obs::SloConfig::FromEnv();
  options.shards = serve::EnvInt64("TABREP_SHARDS", options.shards);
  return options;
}

Server::Server(serve::Cluster* cluster, ServerOptions options)
    : cluster_(cluster), options_(options) {
  TABREP_CHECK(cluster_ != nullptr) << "net::Server needs a cluster";
}

Server::~Server() { Stop(); }

Status Server::Start() {
  TABREP_CHECK(!started_) << "Server::Start called twice";

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  // Loopback only: tabrep has no authentication story yet, so the
  // front-end refuses to be reachable off-host by default.
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return ErrnoStatus("bind");
  }
  if (::listen(listen_fd_, options_.backlog) < 0) return ErrnoStatus("listen");

  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    return ErrnoStatus("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return ErrnoStatus("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) return ErrnoStatus("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    return ErrnoStatus("epoll_ctl(listen)");
  }
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    return ErrnoStatus("epoll_ctl(wake)");
  }

  start_time_ = std::chrono::steady_clock::now();
  if (!options_.access_log_path.empty()) {
    access_log_ = std::make_unique<obs::AccessLog>(options_.access_log_path);
  }

  if (options_.watchdog) {
    obs::WindowOptions wopts;
    wopts.window_secs = static_cast<int>(options_.window_secs);
    window_ = std::make_unique<obs::WindowedRegistry>(wopts);

    obs::WatchdogOptions wd;
    wd.interval_ms = static_cast<int>(options_.watchdog_interval_ms);
    wd.deadman_ms = static_cast<int>(options_.watchdog_deadman_ms);
    wd.slo = options_.slo;
    watchdog_ = std::make_unique<obs::Watchdog>(wd, window_.get());
    // The watchdog layer is generic (obs knows nothing about serve or
    // net); the server wires the concrete loops and probes here. Probe
    // samples surface only in the health verdict, never the Registry —
    // they are machine- and moment-dependent, and the bench baseline
    // gate diffs Registry values across runs.
    watchdog_->WatchHeartbeat("event_loop", &loop_heartbeat_);
    // One watched heartbeat per dispatcher. The single-shard name stays
    // "dispatcher" (the name tests and runbooks pin for the
    // dispatcher_stall health reason); shard i of a cluster reports as
    // "dispatcher_s<i>" so the verdict says WHICH replica wedged.
    const int64_t shards = cluster_->shard_count();
    if (shards == 1) {
      watchdog_->WatchHeartbeat("dispatcher", &cluster_->shard(0).heartbeat());
    } else {
      for (int64_t s = 0; s < shards; ++s) {
        watchdog_->WatchHeartbeat("dispatcher_s" + std::to_string(s),
                                  &cluster_->shard(s).heartbeat());
      }
    }
    watchdog_->AddProbe("queue_depth", [this] {
      return static_cast<double>(cluster_->queue_depth());
    });
    if (shards > 1) {
      for (int64_t s = 0; s < shards; ++s) {
        watchdog_->AddProbe("shard" + std::to_string(s) + "_depth",
                            [this, s] {
                              return static_cast<double>(
                                  cluster_->shard(s).queue_depth());
                            });
      }
    }
    watchdog_->AddProbe("inflight", [this] {
      return static_cast<double>(
          global_inflight_.load(std::memory_order_relaxed));
    });
    watchdog_->AddProbe("rss_bytes", [] {
      return static_cast<double>(obs::ProcessRssBytes());
    });
    watchdog_->AddProbe("arena_reserved_bytes", [] {
      return obs::Registry::Get()
          .gauge("tabrep.mem.arena.reserved_bytes")
          .value();
    });
    watchdog_->Start();
  }

  started_ = true;
  loop_thread_ = std::thread([this] { EventLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (!started_) {
    // Start may have failed partway: release whatever it opened.
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return;
  }
  if (stop_.exchange(true)) return;  // idempotent
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  loop_thread_.join();
  {
    // Every outstanding callback captures `this` and writes wake_fd_;
    // wait them out before either goes away.
    std::unique_lock<std::mutex> lock(completion_mu_);
    completion_cv_.wait(lock, [this] { return callbacks_pending_ == 0; });
    ready_.clear();
  }
  global_inflight_.store(0, std::memory_order_relaxed);
  // Watchdog before window: the watchdog thread ticks the window.
  watchdog_.reset();
  window_.reset();
  // Force the access-log tail to disk (fflush + fsync) so a process
  // kill right after shutdown loses no lines; the object stays alive
  // so late FinishRequest callers during a future Start reuse it.
  if (access_log_ != nullptr) access_log_->Flush();
  ::close(listen_fd_);
  ::close(epoll_fd_);
  ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
  started_ = false;
  stop_.store(false);
}

void Server::EventLoop() {
  std::vector<epoll_event> events(64);
  // Bounded poll instead of blocking forever: the loop must beat its
  // heartbeat even when idle, else the watchdog's deadman would read
  // an idle server as a stalled one. With the watchdog on, the poll
  // tracks its interval (floored at 10ms) so heartbeat lag stays well
  // under any usable deadman.
  const int timeout_ms =
      options_.watchdog
          ? std::clamp(static_cast<int>(options_.watchdog_interval_ms), 10,
                       100)
          : 100;
  while (true) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    loop_heartbeat_.Beat();
    if (n < 0) {
      if (errno == EINTR) continue;
      TABREP_LOG(Error) << "epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[static_cast<size_t>(i)].data.u64;
      const uint32_t mask = events[static_cast<size_t>(i)].events;
      if (tag == kWakeTag) {
        uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        DrainCompletions();
        continue;
      }
      if (tag == kListenTag) {
        AcceptNew();
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed earlier this wakeup
      Connection& conn = *it->second;
      if (mask & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(conn.id);
        continue;
      }
      if (mask & EPOLLIN) HandleReadable(conn);
      // HandleReadable may have closed the connection; re-resolve.
      auto again = conns_.find(tag);
      if (again != conns_.end() && (mask & EPOLLOUT)) {
        HandleWritable(*again->second);
      }
    }
    if (stop_.load(std::memory_order_relaxed)) break;
  }
  // Loop exit: every connection closes without draining (Stop is
  // immediate by contract).
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) CloseConnection(id);
}

void Server::AcceptNew() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      TABREP_LOG(Warning) << "accept4: " << std::strerror(errno);
      return;
    }
    if (static_cast<int64_t>(conns_.size()) >= options_.max_connections) {
      // Connection-level admission: no frame to answer yet, so this is
      // the one reject that cannot carry a status byte.
      ShedCounter().Increment();
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_unique<Connection>(
        static_cast<size_t>(options_.max_payload_bytes));
    conn->fd = fd;
    conn->id = next_conn_id_++;

    epoll_event ev{};
    // Edge-triggered both ways, registered once: reads drain to EAGAIN
    // on every edge, writes are attempted eagerly and EPOLLOUT edges
    // resume them after a full socket buffer.
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.u64 = conn->id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      TABREP_LOG(Warning) << "epoll_ctl(conn): " << std::strerror(errno);
      ::close(fd);
      continue;
    }
    AcceptedCounter().Increment();
    conns_[conn->id] = std::move(conn);
  }
}

void Server::HandleReadable(Connection& conn) {
  if (conn.state == ConnState::kClosing) return;  // input abandoned
  char buf[64 * 1024];
  const uint64_t conn_id = conn.id;
  bool saw_eof = false;
  while (true) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      BytesInCounter().Increment(static_cast<uint64_t>(n));
      conn.decoder.Append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      saw_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn_id);
    return;
  }

  // Pump every complete frame out of the reassembly buffer.
  while (true) {
    Frame frame;
    StatusOr<bool> got = conn.decoder.Next(&frame);
    if (!got.ok()) {
      // Framing is lost: answer with the typed error, flush, close.
      ErrorsCounter().Increment();
      QueueResponse(conn,
                    ErrorFrame(MessageType::kEncodeResponse, 0, got.status()));
      conn.state = ConnState::kClosing;
      break;
    }
    if (!*got) break;
    FramesInCounter().Increment();
    HandleFrame(conn, std::move(frame));
    if (conn.state == ConnState::kClosing) break;
  }

  if (saw_eof) {
    conn.peer_eof = true;
    if (conn.state == ConnState::kOpen && conn.decoder.buffered() > 0) {
      // The peer hung up mid-frame: typed error for the truncation,
      // queued behind any in-flight responses.
      ErrorsCounter().Increment();
      QueueResponse(
          conn,
          ErrorFrame(MessageType::kEncodeResponse, 0,
                     Status::InvalidArgument("connection closed mid-frame")));
      conn.state = ConnState::kClosing;
    }
  }

  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  HandleWritable(*it->second);  // flush whatever the frames produced
}

void Server::HandleFrame(Connection& conn, Frame frame) {
  // Stamped before any per-type work: the trace's "received" means
  // "the frame left the reassembly buffer".
  const auto received = std::chrono::steady_clock::now();
  switch (frame.type) {
    case MessageType::kPingRequest: {
      Frame pong;
      pong.type = MessageType::kPingResponse;
      pong.seq = frame.seq;
      pong.payload = std::move(frame.payload);
      QueueResponse(conn, pong);
      return;
    }
    case MessageType::kStatsRequest:
    case MessageType::kHealthRequest: {
      // The introspection plane (ISSUE 7): answered right here on the
      // event loop, never routed through the encoder, so stats and
      // health probes keep working when inference is drowning. This
      // response may therefore overtake encode responses still in
      // flight on the same connection (encode-vs-encode order is
      // untouched — those leave in request order through the
      // connection's response slots).
      const bool is_stats = frame.type == MessageType::kStatsRequest;
      Frame resp;
      resp.type = is_stats ? MessageType::kStatsResponse
                           : MessageType::kHealthResponse;
      resp.seq = frame.seq;
      if (!frame.payload.empty()) {
        // A payload on a parameterless request is protocol misuse:
        // typed reject, framing intact, connection stays.
        ErrorsCounter().Increment();
        resp.status = StatusCode::kInvalidArgument;
        resp.payload = "stats/health requests carry no payload";
      } else {
        resp.payload = is_stats ? StatsJson() : HealthJson();
      }
      QueueResponse(conn, resp);
      return;
    }
    case MessageType::kEncodeRequest:
      break;
    default:
      // Response types arriving at the server: protocol misuse, but
      // framing is intact, so answer and keep the connection.
      ErrorsCounter().Increment();
      QueueResponse(
          conn, ErrorFrame(MessageType::kEncodeResponse, frame.seq,
                           Status::InvalidArgument(
                               "server received a response-type frame")));
      return;
  }

  RequestsCounter().Increment();
  auto trace = std::make_shared<obs::RequestContext>();
  trace->request_id = next_request_id_++;
  trace->conn_id = conn.id;
  trace->seq = frame.seq;
  trace->received = received;

  // Admission control, cheapest check first (before decode — a shed
  // must not pay the parse; its trace shows admission/decode/queue at
  // zero and the whole latency in `write`). Every reject is a typed
  // kOverloaded response — the client always learns the fate of its
  // request.
  const char* shed = nullptr;
  if (static_cast<int64_t>(conn.responses.size()) >=
      options_.max_inflight_per_conn) {
    shed = "connection in-flight cap reached";
  } else if (global_inflight_.load(std::memory_order_relaxed) >=
             options_.max_queue) {
    shed = "server queue full";
  }
  if (shed != nullptr) {
    ShedCounter().Increment();
    trace->status = StatusCode::kOverloaded;
    QueueResponse(conn, ErrorFrame(MessageType::kEncodeResponse, frame.seq,
                                   Status::Overloaded(shed)));
    trace->written = std::chrono::steady_clock::now();
    FinishRequest(*trace);
    return;
  }
  trace->admitted = std::chrono::steady_clock::now();

  StatusOr<TokenizedTable> table = DecodeTokenizedTable(frame.payload);
  trace->decoded = std::chrono::steady_clock::now();
  if (!table.ok()) {
    ErrorsCounter().Increment();
    trace->status = table.status().code();
    QueueResponse(conn, ErrorFrame(MessageType::kEncodeResponse, frame.seq,
                                   table.status()));
    trace->written = std::chrono::steady_clock::now();
    FinishRequest(*trace);
    return;
  }

  // Submit copies the table and never blocks on inference; a shed or
  // shutdown comes back through the callback as a typed status. The
  // callback runs exactly once (inline for a hit, shed or cancel, else
  // on a dispatcher after it stamped the trace) and keeps the trace
  // alive in case the connection closes first.
  const kernels::Precision precision = (frame.flags & kFlagInt8) != 0
                                           ? kernels::Precision::kInt8
                                           : kernels::Precision::kFloat32;
  conn.responses.push_back(ResponseSlot{trace, std::nullopt});
  global_inflight_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    ++callbacks_pending_;
  }
  cluster_->Submit(
      *table, trace.get(), precision,
      [this, trace](StatusOr<serve::EncodedTablePtr> result) {
        std::lock_guard<std::mutex> lock(completion_mu_);
        ready_.push_back(ResponseSlot{trace, std::move(result)});
        const uint64_t one = 1;
        [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
        if (--callbacks_pending_ == 0) completion_cv_.notify_all();
      });
}

void Server::QueueResponse(Connection& conn, const Frame& frame) {
  ResponsesCounter().Increment();
  conn.outbuf.append(EncodeFrame(frame));
}

void Server::HandleWritable(Connection& conn) {
  const uint64_t conn_id = conn.id;
  while (conn.out_off < conn.outbuf.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.outbuf.data() + conn.out_off,
               conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      BytesOutCounter().Increment(static_cast<uint64_t>(n));
      conn.out_off += static_cast<size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConnection(conn_id);  // peer vanished mid-response
    return;
  }
  if (conn.out_off == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_off = 0;
    MaybeClose(conn);
  }
}

void Server::DrainCompletions() {
  std::deque<ResponseSlot> ready;
  {
    std::lock_guard<std::mutex> lock(completion_mu_);
    ready.swap(ready_);
  }
  const auto drained = std::chrono::steady_clock::now();
  for (ResponseSlot& done : ready) {
    done.trace->drained = drained;
    global_inflight_.fetch_sub(1, std::memory_order_relaxed);
    done.trace->status =
        done.result->ok() ? StatusCode::kOk : done.result->status().code();
    auto it = conns_.find(done.trace->conn_id);
    if (it == conns_.end()) {
      // Connection closed while encoding. The work still happened, so
      // the trace is still finished (no serialized/written stamps —
      // those stages read 0).
      FinishRequest(*done.trace);
      continue;
    }
    Connection& conn = *it->second;
    for (ResponseSlot& slot : conn.responses) {
      if (slot.trace == done.trace) slot.result = std::move(done.result);
    }
    FlushResponses(conn);
  }
}

void Server::FlushResponses(Connection& conn) {
  std::vector<std::shared_ptr<obs::RequestContext>> flushed;
  while (!conn.responses.empty() && conn.responses.front().result) {
    ResponseSlot slot = std::move(conn.responses.front());
    conn.responses.pop_front();
    const StatusOr<serve::EncodedTablePtr>& result = *slot.result;
    obs::RequestContext& trace = *slot.trace;
    Frame frame;
    frame.type = MessageType::kEncodeResponse;
    frame.seq = trace.seq;
    if (result.ok()) {
      EncodeEncodedTable(**result, &frame.payload, &frame.flags);
    } else {
      frame.status = result.status().code();
      frame.payload = result.status().message();
    }
    trace.serialized = std::chrono::steady_clock::now();
    RequestUsHistogram().Record(std::chrono::duration<double, std::micro>(
                                    trace.serialized - trace.received)
                                    .count());
    QueueResponse(conn, frame);
    flushed.push_back(std::move(slot.trace));
  }
  if (flushed.empty()) return;
  // HandleWritable may close the connection (peer gone mid-write);
  // `conn` must not be touched after it.
  HandleWritable(conn);
  const auto written = std::chrono::steady_clock::now();
  for (const auto& trace : flushed) {
    trace->written = written;
    FinishRequest(*trace);
  }
}

std::string Server::StatsJson() const {
  const double uptime_us = std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - start_time_)
                               .count();
  std::string out = "{\"server\":{\"impl\":\"tabrep::net\",\"wire_version\":";
  out += std::to_string(static_cast<int>(kWireVersion));
  out += ",\"pid\":";
  out += std::to_string(static_cast<long long>(::getpid()));
  out += ",\"port\":";
  out += std::to_string(port_);
  out += ",\"uptime_us\":";
  out += obs::JsonNumber(uptime_us);
  out += ",\"connections\":";
  out += std::to_string(conns_.size());
  out += ",\"inflight\":";
  out += std::to_string(global_inflight_.load(std::memory_order_relaxed));
  out += ",\"access_log\":";
  out += access_log_ != nullptr && access_log_->enabled() ? "true" : "false";
  // The kernel dispatch registry's resolved variant table (ISSUE 9):
  // which implementation every op runs in this process, so a stats
  // probe shows the deployed SIMD/int8 configuration. Additive within
  // wire v1.
  out += ",\"kernels\":";
  out += kernels::VariantTableJson();
  // Replica topology (ISSUE 10): shard count, live per-shard queue
  // depths, routed/steal tallies, current weights version. Additive
  // within wire v1; a one-shard cluster reports shards:1.
  out += ",\"cluster\":";
  out += cluster_->TopologyJson();
  out += "},\"metrics\":";
  // The whole registry — counters, gauges, and the stage histograms
  // with count/sum, which is what lets statscope and loadgen compute
  // per-stage delta means between two snapshots.
  out += obs::Registry::Get().ToJson();
  // Additive within wire v1 (ISSUE 8): the sliding-window view, so
  // clients get last-N-seconds rates and percentiles straight from
  // the server instead of reconstructing deltas poll-to-poll. Empty
  // object with the watchdog disabled.
  out += ",\"window\":";
  out += window_ != nullptr ? window_->ToJson() : "{}";
  out += "}";
  return out;
}

std::string Server::HealthJson() const {
  // Counters are process-wide; on the (test-only) multi-server-per-
  // process layout the rate aggregates across servers, which is still
  // the honest overload signal.
  const uint64_t requests = RequestsCounter().value();
  const uint64_t shed = ShedCounter().value();
  const double shed_rate =
      requests > 0
          ? static_cast<double>(shed) / static_cast<double>(requests)
          : 0.0;
  const double uptime_us = std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - start_time_)
                               .count();
  // With the watchdog running, "status" carries its verdict — stall
  // deadman plus SLO evaluation — instead of the static "ok".
  std::string out = "{\"status\":\"";
  if (watchdog_ != nullptr) {
    out += obs::HealthLevelName(watchdog_->verdict().level);
  } else {
    out += "ok";
  }
  out += "\",\"queue_depth\":";
  out += std::to_string(cluster_->queue_depth());
  // Additive within wire v1 (ISSUE 10): how many replicas answer this
  // port and the newest published weights generation, so a health
  // probe can watch a rollover complete without parsing kStats.
  out += ",\"shards\":";
  out += std::to_string(cluster_->shard_count());
  out += ",\"weights_version\":";
  out += std::to_string(cluster_->weights_version());
  out += ",\"inflight\":";
  out += std::to_string(global_inflight_.load(std::memory_order_relaxed));
  out += ",\"connections\":";
  out += std::to_string(conns_.size());
  out += ",\"shed_rate\":";
  out += obs::JsonNumber(shed_rate);
  out += ",\"uptime_us\":";
  out += obs::JsonNumber(uptime_us);
  if (watchdog_ != nullptr) {
    // Additive within wire v1 (ISSUE 8): the full verdict — reasons,
    // windowed p99/shed vs their SLO targets, probe samples, and
    // per-loop heartbeat lag.
    out += ",\"slo\":";
    out += obs::HealthVerdictJson(watchdog_->verdict(),
                                  watchdog_->options().slo);
  }
  out += "}";
  return out;
}

void Server::FinishRequest(obs::RequestContext& trace) {
  // Stage histograms are the aggregate latency attribution: only
  // requests that reached the encoder and succeeded belong there — a
  // shed's near-zero stages would silently dilute every mean. The
  // access log is the complete forensic record: every request, every
  // outcome.
  if (trace.status == StatusCode::kOk && trace.submitted) {
    obs::RecordStageMetrics(trace);
  }
  if (access_log_ != nullptr) access_log_->Append(trace);
}

void Server::CloseConnection(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  // Results held behind an earlier slot are finished unwritten; the
  // rest still arrive through DrainCompletions.
  for (const ResponseSlot& slot : conn.responses) {
    if (slot.result) FinishRequest(*slot.trace);
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  ClosedCounter().Increment();
  conns_.erase(it);
}

void Server::MaybeClose(Connection& conn) {
  const bool done_writing = conn.out_off == conn.outbuf.size();
  const bool finished = conn.state == ConnState::kClosing || conn.peer_eof;
  if (finished && done_writing && conn.responses.empty()) {
    CloseConnection(conn.id);
  }
}

}  // namespace tabrep::net
