#include "net/tcp_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "net/fd.h"
#include "obs/metrics.h"
#include "util/annotations.h"

namespace rne::net {
namespace {

std::string ErrnoMessage(const char* what, int err = errno) {
  return std::string(what) + ": " + strerror(err);
}

}  // namespace

struct TcpServer::Connection {
  Connection(serve::QueryEngine& engine, const serve::ServerLoopOptions& loop)
      : handler(engine, loop) {}

  int fd = -1;
  /// The reactor that owns this connection; only its thread touches it.
  Reactor* reactor = nullptr;
  serve::LineProtocolHandler handler;
  /// handler.frames() already mirrored into the server's net.lines counter.
  size_t frames_counted = 0;
  /// Answer bytes not yet accepted by the kernel; [out_off, size) is live.
  std::string out;
  size_t out_off = 0;
  bool want_write = false;
  /// Peer sent EOF (or drain started): close as soon as `out` is flushed.
  bool closing = false;
  std::chrono::steady_clock::time_point last_active;
};

struct TcpServer::Reactor {
  Reactor() = default;
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;
  ~Reactor() {
    if (wake_fd >= 0) CloseFd(wake_fd);
    if (epoll_fd >= 0) CloseFd(epoll_fd);
  }

  /// Wakes the reactor's epoll_wait (new sockets in the inbox, or drain).
  void Wake() const {
    const uint64_t one = 1;
    (void)WriteFd(wake_fd, &one, sizeof(one));
  }

  int epoll_fd = -1;
  /// Non-blocking eventfd registered in epoll_fd.
  int wake_fd = -1;
  /// Connections handed to this reactor and not yet closed, including
  /// sockets still in the inbox: the acceptor adds, the reactor subtracts.
  std::atomic<size_t> live{0};
  Mutex inbox_mu;
  /// Accepted sockets waiting for the reactor to register them.
  std::vector<int> inbox RNE_GUARDED_BY(inbox_mu);
  /// Touched only by this reactor's thread.
  std::unordered_map<int, std::unique_ptr<Connection>> connections;
  std::thread thread;
};

TcpServer::TcpServer(serve::QueryEngine& engine,
                     const TcpServerOptions& options)
    : engine_(engine), options_(options) {
  // Every handler reports this server's live connection count via STATS.
  options_.loop.active_connections = &active_;
  // Line framing lives in the handler (serve::LineProtocolHandler::Consume);
  // the server's oversize limit is the one the handler enforces.
  options_.loop.max_line_bytes = options_.max_line_bytes;
}

TcpServer::~TcpServer() {
  if (listen_fd_ >= 0) CloseFd(listen_fd_);
}

Status TcpServer::Start() {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("TcpServer already started");
  }
  // A peer that disappears mid-write must surface as EPIPE on the write
  // path, not kill the process.
  (void)signal(SIGPIPE, SIG_IGN);
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(ErrnoMessage("socket"));
  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  const auto fail = [fd](const char* what) {
    const Status status = Status::IoError(ErrnoMessage(what));
    CloseFd(fd);
    return status;
  };
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    return fail("bind");
  }
  if (listen(fd, options_.backlog) < 0) return fail("listen");
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return fail("getsockname");
  }
  if (SetNonBlocking(fd) < 0) return fail("fcntl");
  const size_t num_reactors =
      std::max<size_t>(1, engine_.pool().num_threads());
  std::vector<std::unique_ptr<Reactor>> reactors;
  for (size_t i = 0; i < num_reactors; ++i) {
    auto reactor = std::make_unique<Reactor>();
    reactor->epoll_fd = epoll_create1(0);
    if (reactor->epoll_fd < 0) return fail("epoll_create1");
    reactor->wake_fd = eventfd(0, EFD_NONBLOCK);
    if (reactor->wake_fd < 0) return fail("eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = reactor->wake_fd;
    const int added =
        epoll_ctl(reactor->epoll_fd, EPOLL_CTL_ADD, reactor->wake_fd, &ev);
    if (added < 0) return fail("epoll_ctl");
    reactors.push_back(std::move(reactor));
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  reactors_ = std::move(reactors);
  return Status::Ok();
}

bool TcpServer::StopRequested() const {
  if (shutdown_.load(std::memory_order_acquire)) return true;
  return options_.loop.stop != nullptr &&
         options_.loop.stop->load(std::memory_order_acquire);
}

Status TcpServer::Serve() {
  if (listen_fd_ < 0 || reactors_.empty()) {
    return Status::FailedPrecondition("TcpServer::Start() has not succeeded");
  }
  for (auto& reactor : reactors_) {
    reactor->thread = std::thread([this, r = reactor.get()] { RunReactor(r); });
  }
  Status status = Status::Ok();
  pollfd listener{};
  listener.fd = listen_fd_;
  listener.events = POLLIN;
  const int timeout_ms = static_cast<int>(options_.poll_interval.count());
  while (!StopRequested()) {
    const int n = poll(&listener, 1, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;  // signal — loop re-checks the stop flag
      status = Status::IoError(ErrnoMessage("poll"));
      break;
    }
    if (n > 0) AcceptNew();
  }
  // Graceful drain: stop accepting first, then let every reactor flush
  // what it owes. Nothing reaches an inbox after the store below.
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  draining_.store(true, std::memory_order_release);
  for (auto& reactor : reactors_) reactor->Wake();
  for (auto& reactor : reactors_) reactor->thread.join();
  const int err = reactor_errno_.load(std::memory_order_acquire);
  if (err != 0 && status.ok()) {
    status = Status::IoError(ErrnoMessage("epoll_wait", err));
  }
  return status;
}

void TcpServer::AcceptNew() {
  for (;;) {
    const int fd = AcceptFd(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == ECONNABORTED) continue;  // peer vanished mid-handshake
      return;  // EAGAIN (drained) or a transient accept error; poll re-arms
    }
    // Only this thread adds to active_, so the cap cannot be overshot.
    if (active_.load(std::memory_order_acquire) >= options_.max_connections) {
      CloseFd(fd);
      refused_.Add(1);
      continue;
    }
    if (SetNonBlocking(fd) < 0) {
      CloseFd(fd);
      continue;
    }
    if (options_.send_buffer_bytes > 0) {
      const int v = options_.send_buffer_bytes;
      (void)setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &v, sizeof(v));
    }
    Reactor* target = reactors_.front().get();
    size_t fewest = target->live.load(std::memory_order_acquire);
    for (const auto& reactor : reactors_) {
      const size_t live = reactor->live.load(std::memory_order_acquire);
      if (live < fewest) {
        fewest = live;
        target = reactor.get();
      }
    }
    target->live.fetch_add(1, std::memory_order_acq_rel);
    active_.fetch_add(1, std::memory_order_acq_rel);
    {
      MutexLock lock(&target->inbox_mu);
      target->inbox.push_back(fd);
    }
    target->Wake();
  }
}

void TcpServer::RunReactor(Reactor* reactor) {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  const int timeout_ms = static_cast<int>(options_.poll_interval.count());
  while (!draining_.load(std::memory_order_acquire)) {
    const int n = epoll_wait(reactor->epoll_fd, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;  // signal — loop re-checks the flags
      // Stop the whole server rather than strand this reactor's sockets;
      // Serve() reports the error after the drain.
      reactor_errno_.store(errno, std::memory_order_release);
      Shutdown();
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == reactor->wake_fd) {
        uint64_t count = 0;
        (void)ReadFd(reactor->wake_fd, &count, sizeof(count));
        AdoptInbox(reactor);
        continue;
      }
      // An earlier event in this batch may have closed the connection.
      auto it = reactor->connections.find(fd);
      if (it == reactor->connections.end()) continue;
      Connection* conn = it->second.get();
      if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        if (!HandleReadable(conn)) continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        conn->last_active = std::chrono::steady_clock::now();
        if (!FlushWrites(conn)) continue;
      }
    }
    if (options_.idle_timeout.count() > 0) SweepIdle(reactor);
  }
  // Wait for the acceptor to stop (a failed reactor gets here early), so
  // the inbox is final, then answer what this reactor owes.
  while (!draining_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(options_.poll_interval);
  }
  AdoptInbox(reactor);
  DrainAndCloseAll(reactor);
}

void TcpServer::AdoptInbox(Reactor* reactor) {
  std::vector<int> fds;
  {
    MutexLock lock(&reactor->inbox_mu);
    fds.swap(reactor->inbox);
  }
  const auto now = std::chrono::steady_clock::now();
  for (const int fd : fds) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(reactor->epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      CloseFd(fd);
      ReleaseSlot(reactor);
      continue;
    }
    auto conn = std::make_unique<Connection>(engine_, options_.loop);
    conn->fd = fd;
    conn->reactor = reactor;
    conn->last_active = now;
    reactor->connections.emplace(fd, std::move(conn));
    accepted_.Add(1);
  }
}

void TcpServer::ReleaseSlot(Reactor* reactor) {
  reactor->live.fetch_sub(1, std::memory_order_acq_rel);
  active_.fetch_sub(1, std::memory_order_acq_rel);
}

bool TcpServer::HandleReadable(Connection* conn) {
  conn->last_active = std::chrono::steady_clock::now();
  char buf[16 * 1024];
  bool saw_eof = false;
  bool oversize = false;
  // Byte cap per event, not read-until-EAGAIN: a client that writes faster
  // than the engine serves would otherwise pin the reactor in this loop
  // (and grow the framing buffer unboundedly) before a single answer went
  // out. Level-triggered epoll re-signals immediately for the remainder.
  size_t budget = 16 * sizeof(buf);
  for (;;) {
    if (budget == 0) break;
    const ssize_t n =
        ReadFd(conn->fd, buf, std::min(sizeof(buf), budget));
    if (n > 0) {
      budget -= static_cast<size_t>(n);
      bytes_in_.Add(static_cast<uint64_t>(n));
      // Framing (line splitting, CRLF, the oversize limit) lives in the
      // handler so the TCP path and the fuzzer exercise the same code.
      if (!conn->handler.Consume(std::string_view(buf, static_cast<size_t>(n)),
                                 &conn->out)) {
        oversize = true;
        break;
      }
      continue;
    }
    if (n == 0) {
      saw_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConnection(conn, CloseReason::kNormal);
    return false;
  }
  const size_t frames = conn->handler.frames();
  if (frames > conn->frames_counted) {
    const uint64_t delta = frames - conn->frames_counted;
    conn->frames_counted = frames;
    lines_.Add(delta);
  }
  if (oversize) {
    // Consume already flushed owed answers and appended the ERR line.
    conn->closing = true;
    if (FlushWrites(conn)) {
      CloseConnection(conn, CloseReason::kOversize);
    } else {
      evicted_oversize_.Add(1);
    }
    return false;
  }
  if (saw_eof) {
    // Peer is done sending: account any unterminated final line and answer
    // everything owed before the close.
    conn->handler.Finish(&conn->out);
    conn->closing = true;
  } else {
    // The read side went dry: flush the half-full batch so a synchronous
    // client gets its answer now instead of after the next arrival.
    conn->handler.Flush(&conn->out);
  }
  return FlushWrites(conn);
}

bool TcpServer::FlushWrites(Connection* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n = WriteFd(conn->fd, conn->out.data() + conn->out_off,
                              conn->out.size() - conn->out_off);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      CloseConnection(conn, CloseReason::kNormal);
      return false;
    }
    conn->out_off += static_cast<size_t>(n);
    bytes_out_.Add(static_cast<uint64_t>(n));
  }
  if (conn->out_off >= conn->out.size()) {
    conn->out.clear();
    conn->out_off = 0;
  } else if (conn->out_off > 64 * 1024) {
    // Reclaim the consumed prefix so a long-lived slow reader does not pin
    // already-delivered bytes.
    conn->out.erase(0, conn->out_off);
    conn->out_off = 0;
  }
  const size_t backlog = conn->out.size() - conn->out_off;
  if (backlog > options_.write_buffer_cap) {
    CloseConnection(conn, CloseReason::kSlow);
    return false;
  }
  if (backlog == 0 && conn->closing) {
    CloseConnection(conn, CloseReason::kNormal);
    return false;
  }
  const bool want = backlog > 0;
  if (want != conn->want_write) {
    conn->want_write = want;
    UpdateEpollInterest(conn);
  }
  return true;
}

void TcpServer::UpdateEpollInterest(Connection* conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | (conn->want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  epoll_ctl(conn->reactor->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
}

void TcpServer::CloseConnection(Connection* conn, CloseReason reason) {
  Reactor* reactor = conn->reactor;
  const int fd = conn->fd;
  epoll_ctl(reactor->epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  CloseFd(fd);
  reactor->connections.erase(fd);  // destroys *conn
  ReleaseSlot(reactor);
  closed_.Add(1);
  switch (reason) {
    case CloseReason::kNormal:
      break;
    case CloseReason::kSlow:
      evicted_slow_.Add(1);
      break;
    case CloseReason::kIdle:
      evicted_idle_.Add(1);
      break;
    case CloseReason::kOversize:
      evicted_oversize_.Add(1);
      break;
  }
}

void TcpServer::SweepIdle(Reactor* reactor) {
  const auto now = std::chrono::steady_clock::now();
  std::vector<Connection*> idle;
  for (const auto& [fd, conn] : reactor->connections) {
    if (now - conn->last_active >= options_.idle_timeout) {
      idle.push_back(conn.get());
    }
  }
  for (Connection* conn : idle) CloseConnection(conn, CloseReason::kIdle);
}

void TcpServer::DrainAndCloseAll(Reactor* reactor) {
  // Answer everything already parsed (dropping — and counting — any
  // unterminated partial line), then give the kernel a bounded window to
  // accept the buffered bytes before hard-closing.
  auto& connections = reactor->connections;
  for (auto& [fd, conn] : connections) {
    conn->handler.Finish(&conn->out);
    conn->closing = true;
  }
  const auto snapshot = [&connections] {
    std::vector<Connection*> conns;
    conns.reserve(connections.size());
    for (const auto& [fd, conn] : connections) conns.push_back(conn.get());
    return conns;
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  while (!connections.empty() &&
         std::chrono::steady_clock::now() < deadline) {
    // FlushWrites closes each connection once drained; it touches only the
    // connection it is given, so the other snapshot entries stay valid.
    for (Connection* conn : snapshot()) (void)FlushWrites(conn);
    if (connections.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (Connection* conn : snapshot()) {
    CloseConnection(conn, CloseReason::kNormal);
  }
}

NetStatsSnapshot TcpServer::Stats() const {
  NetStatsSnapshot s;
  s.accepted = accepted_.Value();
  s.closed = closed_.Value();
  s.refused = refused_.Value();
  s.evicted_slow = evicted_slow_.Value();
  s.evicted_idle = evicted_idle_.Value();
  s.evicted_oversize = evicted_oversize_.Value();
  s.lines = lines_.Value();
  s.bytes_in = bytes_in_.Value();
  s.bytes_out = bytes_out_.Value();
  s.active_connections = active_.load(std::memory_order_acquire);
  s.reactor_connections.reserve(reactors_.size());
  for (const auto& reactor : reactors_) {
    s.reactor_connections.push_back(
        reactor->live.load(std::memory_order_acquire));
  }
  return s;
}

void TcpServer::CollectMetrics(obs::MetricsSample* out) const {
  // Not through Stats(): reactors_ is the server thread's, while a METRICS
  // render may run on any thread.
  out->counters["net.accepted"] += accepted_.Value();
  out->counters["net.closed"] += closed_.Value();
  out->counters["net.refused"] += refused_.Value();
  out->counters["net.evicted_slow"] += evicted_slow_.Value();
  out->counters["net.evicted_idle"] += evicted_idle_.Value();
  out->counters["net.evicted_oversize"] += evicted_oversize_.Value();
  out->counters["net.lines"] += lines_.Value();
  out->counters["net.bytes_in"] += bytes_in_.Value();
  out->counters["net.bytes_out"] += bytes_out_.Value();
  out->gauges["net.active_connections"] +=
      static_cast<double>(active_.load(std::memory_order_acquire));
}

}  // namespace rne::net
