// Epoll-based TCP front end for the serving stack (DESIGN.md §13): a set
// of level-triggered reactors that speak the same newline-delimited
// protocol as the stdin loop, one serve::LineProtocolHandler per
// connection.
//
// Threading model: the thread that calls Serve() only accepts. It hands
// each new socket to the reactor with the fewest live connections (ties go
// to the lowest index) through that reactor's mutex-guarded inbox and an
// eventfd wake-up. There is one reactor per engine pool worker, each a
// thread owned by the server with its own epoll set and connection map; a
// reactor owns every connection it was handed, so reads, line parsing and
// write buffering of one connection never race. A reactor runs its
// connections' batches through the blocking QueryEngine::QueryBatch: a
// batch of learned distance answers runs on the reactor itself, and only a
// batch with more searches than one engine chunk (kNN requests, or
// distance requests an exact backend answers) fans out: the reactor and
// pool helpers claim blocks of it from one counter, so the reactor
// searches its own batch too while the other reactors parse, format and
// write. Reactors are threads, not pool tasks: a caller waiting in
// QueryBatch for its helpers' last blocks would otherwise wait on workers
// parked in reactor loops. Pipelined clients amortize a whole batch per
// read burst; a half-full batch is flushed as soon as the read side goes
// dry, so a lone synchronous client never waits on a timer.
//
// Protection against misbehaving clients:
//   * Slow-client eviction — answers buffer in userspace when the socket's
//     send buffer is full; a connection whose backlog exceeds
//     `write_buffer_cap` is dropped (counted net.evicted_slow) instead of
//     growing without bound.
//   * Oversized lines — a line longer than `max_line_bytes` with no newline
//     gets one ERR and the connection is closed (net.evicted_oversize).
//   * Idle timeout — connections silent for `idle_timeout` are reaped by
//     their reactor (net.evicted_idle); 0 disables.
//   * Connection cap — accepts beyond `max_connections` live connections
//     across all reactors are closed immediately (net.refused).
//
// Graceful drain: Shutdown() (or the shared `loop.stop` flag set by
// rne_server's SIGINT/SIGTERM handlers) makes Serve() stop accepting; then
// every reactor flushes each of its connections' pending batch, attempts a
// bounded best-effort write of buffered answers and closes them, and
// Serve() returns once all reactors have finished.
#ifndef RNE_NET_TCP_SERVER_H_
#define RNE_NET_TCP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "serve/server_loop.h"
#include "util/annotations.h"
#include "util/status.h"

namespace rne::net {

struct TcpServerOptions {
  /// Port to bind (loopback-only). 0 = ephemeral; read the outcome from
  /// port() after Start().
  uint16_t port = 0;
  int backlog = 128;
  /// Accepts beyond this many live connections (all reactors together) are
  /// closed immediately (counted net.refused).
  size_t max_connections = 1024;
  /// A line longer than this without a newline answers ERR and closes the
  /// connection.
  size_t max_line_bytes = 64 * 1024;
  /// Userspace write-backlog cap per connection; exceeding it evicts the
  /// client (it is not reading its answers).
  size_t write_buffer_cap = 4 * 1024 * 1024;
  /// SO_SNDBUF for accepted sockets (0 = OS default). Tests shrink it so a
  /// non-reading client backs up into the userspace buffer quickly.
  int send_buffer_bytes = 0;
  /// Reap connections with no traffic for this long (0 = never).
  std::chrono::milliseconds idle_timeout{0};
  /// Accept-loop and reactor wait timeout — the latency floor for noticing
  /// stop and for idle sweeps.
  std::chrono::milliseconds poll_interval{50};
  /// Protocol options shared with the stdin loop (batch size, model
  /// manager, result cache, stop flag). `active_connections` is overwritten
  /// to point at this server's own counter.
  serve::ServerLoopOptions loop;
};

/// Point-in-time front-end counters, summed over reactors. They are the
/// server's METRICS source too, under "net.*" (active_connections as the
/// net.active_connections gauge).
struct NetStatsSnapshot {
  uint64_t accepted = 0;
  uint64_t closed = 0;
  uint64_t refused = 0;
  uint64_t evicted_slow = 0;
  uint64_t evicted_idle = 0;
  uint64_t evicted_oversize = 0;
  uint64_t lines = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  size_t active_connections = 0;
  /// Live connections per reactor, in reactor order (handed-off sockets a
  /// reactor has not picked up yet included).
  std::vector<size_t> reactor_connections;
};

class TcpServer {
 public:
  /// `engine` is not owned and must outlive the server; so must every
  /// pointer inside `options.loop`.
  TcpServer(serve::QueryEngine& engine, const TcpServerOptions& options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds and listens on 127.0.0.1:<port> and sets up one reactor per
  /// engine pool worker. After Ok, port() returns the bound port (resolves
  /// ephemeral port 0).
  Status Start();

  /// Accepts on the calling thread and runs the reactor threads until
  /// Shutdown() or the external stop flag; returns after every reactor's
  /// graceful drain finished. FailedPrecondition unless Start() succeeded.
  /// Call from exactly one thread.
  Status Serve();

  /// Asks Serve() to drain and return. Safe from any thread and from
  /// signal-handler-adjacent contexts (it only stores an atomic).
  void Shutdown() { shutdown_.store(true, std::memory_order_release); }

  uint16_t port() const { return port_; }
  NetStatsSnapshot Stats() const;
  /// Live connection count across reactors — STATS wiring and tests.
  const std::atomic<size_t>& active_connections() const { return active_; }

 private:
  struct Connection;
  struct Reactor;

  enum class CloseReason { kNormal, kSlow, kIdle, kOversize };

  bool StopRequested() const;
  /// Accepts until EAGAIN, handing each socket to the least-loaded reactor.
  void AcceptNew();
  /// Reactor thread body: serves its connections until the drain starts,
  /// then drains and closes them.
  void RunReactor(Reactor* reactor);
  /// Registers the sockets the acceptor queued for `reactor`.
  void AdoptInbox(Reactor* reactor);
  /// Drops one live connection from `reactor`'s and the global count.
  void ReleaseSlot(Reactor* reactor);
  /// Reads until EAGAIN/EOF, handles complete lines, flushes the batch.
  /// Returns false when the connection was closed.
  bool HandleReadable(Connection* conn);
  /// Writes buffered output; arms/disarms EPOLLOUT. Returns false when the
  /// connection was closed (write error or slow-client eviction).
  bool FlushWrites(Connection* conn);
  void UpdateEpollInterest(Connection* conn);
  void CloseConnection(Connection* conn, CloseReason reason);
  void SweepIdle(Reactor* reactor);
  void DrainAndCloseAll(Reactor* reactor);
  /// The server's METRICS source: the counters under their net.* names.
  void CollectMetrics(obs::MetricsSample* out) const;

  serve::QueryEngine& engine_;
  TcpServerOptions options_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> shutdown_{false};
  /// Set by Serve() once it stopped accepting: reactors drain and exit.
  std::atomic<bool> draining_{false};
  /// Live connections across reactors: the acceptor adds (so the cap check
  /// cannot overshoot), reactors subtract on close.
  std::atomic<size_t> active_{0};
  /// errno of a reactor whose epoll_wait failed (0 = none); it stops the
  /// server and Serve() reports it.
  std::atomic<int> reactor_errno_{0};

  /// Built by Start() and never resized after it; the threads run only
  /// inside Serve().
  std::vector<std::unique_ptr<Reactor>> reactors_;

  obs::Counter accepted_;
  obs::Counter closed_;
  obs::Counter refused_;
  obs::Counter evicted_slow_;
  obs::Counter evicted_idle_;
  obs::Counter evicted_oversize_;
  obs::Counter lines_;
  obs::Counter bytes_in_;
  obs::Counter bytes_out_;

  /// Declared last (see obs::MetricsSource).
  obs::MetricsSource metrics_source_{
      [this](obs::MetricsSample* out) { CollectMetrics(out); }};
};

}  // namespace rne::net

#endif  // RNE_NET_TCP_SERVER_H_
