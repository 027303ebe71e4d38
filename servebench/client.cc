// Load generator and answer checker for the serving benchmark.
//
// One thread drives two data connections plus one control connection to a
// running rne_server over loopback, in two phases:
//
//   closed  every data connection keeps 64 requests in flight; answers per
//           sub-window give `qps`.
//   open    Poisson arrivals at `--rate` requests/s, alternating over the
//           data connections; each request is timed from its scheduled send
//           time, so a server stall also delays the requests queued behind
//           it. Gives p50/p99 per sub-window and the generator's lateness.
//
// After a warm-up, two closed and two open segments alternate and split
// `--seconds`, so a slow spell of the machine lands in both phases. Every
// sub-window also records how much CPU time the hypervisor stole from this
// machine meanwhile.
//
// With `--reload-hz` > 0 the control connection sends RELOAD on a fixed
// schedule through both phases. Afterwards the control connection sends
// accuracy probes of the other request kind (`--probes`), STATS and
// METRICS. Every answer line is parsed and checked against its request; a
// fixed seeded sample of answers is scored against exact Dijkstra on the
// graph: every distinct QUERY pair whose source is in a seeded set of
// sources, and every 8th KNN request of the first connection. Prints one
// JSON object with the raw per-window results; run.py turns them into
// metrics.
//
//   servebench_client --port <p> --gr net.gr --co net.co --kind query
//       --dist uniform --seed 1 --seconds 8 --rate 55000 [--reload-hz 0]
//   servebench_client --dump-wire 100 --kind query --dist zipf --seed 1
//       --vertices 4096          # wire bytes only, no server needed
#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <string>
#include <string_view>
#include <vector>

#include "algo/dijkstra.h"
#include "graph/dimacs.h"
#include "util/arg_parser.h"
#include "workload.h"

namespace servebench {
namespace {

constexpr size_t kConns = 2;    // data connections
constexpr size_t kWindow = 64;  // closed loop: requests in flight per conn
constexpr double kWarmupSeconds = 0.5;
/// Pipeline refill before each closed segment after the first.
constexpr double kRewarmSeconds = 0.1;
constexpr size_t kCycles = 2;  // closed/open segment pairs
/// Metrics are summaries over sub-windows, so a transient disturbance of
/// the machine moves a few windows, not the result. Open windows hold whole
/// reload periods at 5 reloads/s.
constexpr double kClosedWindowSeconds = 0.2;
constexpr double kOpenWindowSeconds = 0.4;

/// Host steal time in seconds summed over CPUs (/proc/stat), or -1 when
/// unavailable.
double ReadStealSeconds() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return -1.0;
  long long v[8] = {};
  const int n = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  static const double kTick = static_cast<double>(sysconf(_SC_CLK_TCK));
  return n == 8 ? static_cast<double>(v[7]) / kTick : -1.0;
}

/// Samples host steal at the sub-window boundaries of one measured segment.
class StealMarks {
 public:
  StealMarks(int64_t start, int64_t window_ns, size_t windows)
      : start_(start), window_ns_(window_ns), windows_(windows) {}
  /// Next boundary time (the driving loop wakes for it).
  int64_t NextBoundary() const {
    return start_ + static_cast<int64_t>(marks_.size()) * window_ns_;
  }
  void Sample(int64_t now) {
    while (marks_.size() <= windows_ && now >= NextBoundary()) {
      marks_.push_back(ReadStealSeconds());
    }
  }
  /// Appends each window's steal as a share of one CPU over the window (0
  /// when unknown); call once the segment ended.
  void Finish(std::vector<double>* share) {
    while (marks_.size() <= windows_) marks_.push_back(ReadStealSeconds());
    const double window_s = static_cast<double>(window_ns_) / 1e9;
    for (size_t w = 0; w < windows_; ++w) {
      const bool known = marks_[w] >= 0.0 && marks_[w + 1] >= 0.0;
      share->push_back(known ? (marks_[w + 1] - marks_[w]) / window_s : 0.0);
    }
  }

 private:
  int64_t start_, window_ns_;
  size_t windows_;
  std::vector<double> marks_;
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Expect : uint8_t { kDist, kKnn, kReload, kStats, kMetrics };
enum class Phase : uint8_t { kClosed, kOpen, kControl };

struct Pending {
  Expect expect = Expect::kDist;
  Phase phase = Phase::kControl;
  Req req;
  /// Closed loop: send time. Open loop: scheduled send time. Control: send
  /// time.
  int64_t t_ns = 0;
  /// Index into Client::knn_samples_, or -1.
  int32_t sample = -1;
};

struct Conn {
  int fd = -1;
  std::string in;
  std::string out;
  size_t out_off = 0;
  std::deque<Pending> pending;
  bool dead = false;
};

/// One checked KNN answer kept for the recall oracle.
struct KnnSample {
  Req req;
  std::vector<uint32_t> answer;
};

struct Options {
  uint16_t port = 0;
  Spec spec;
  uint64_t seed = 1;
  /// Wall time of both phases, warm-ups included.
  double seconds = 8.0;
  double rate = 10000.0;
  double reload_hz = 0.0;
  /// QUERY answers whose source is in this many seeded sources are scored.
  size_t sample_sources = 256;
  /// Every 8th KNN request of closed stream 0 is scored, up to this many.
  size_t knn_samples = 2000;
  size_t probes = 2000;
};

double Percentile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::clamp<size_t>(rank, 1, v.size()) - 1]);
}

class Client {
 public:
  explicit Client(const Options& options);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(std::string* error);
  /// One closed-loop segment: `warmup_seconds` unmeasured, then whole
  /// sub-windows filling `seconds`.
  void RunClosed(double warmup_seconds, double seconds);
  /// One open-loop segment; `cycle` seeds its arrival schedule.
  void RunOpen(size_t cycle, double seconds);
  void RunProbes();
  void ReadServerCounters();
  void Score(const rne::Graph& graph);
  std::string ResultJson() const;

 private:
  Conn& control() { return conns_.back(); }
  size_t DataConns() const { return conns_.size() - 1; }

  void Send(Conn* c, const Pending& p, const std::string& wire);
  void Refill(size_t index, int64_t now);
  void MaybeReload(int64_t now);
  void PollOnce(int64_t timeout_ns);
  void ReadConn(Conn* c);
  void FlushConn(Conn* c);
  void Drop(Conn* c);
  void Drain(double seconds);
  void OnLine(Conn* c, std::string_view line, int64_t now);
  bool CheckDist(const Req& req, std::string_view line);
  bool CheckKnn(const Req& req, std::string_view line, KnnSample* sample);
  void Fatal(const std::string& message) {
    if (fatal_.size() < 8) fatal_.push_back(message);
  }

  Options opt_;
  std::vector<Conn> conns_;
  std::vector<RequestStream> closed_streams_;
  uint64_t closed_generated_ = 0;

  // Closed loop: answers per sub-window.
  int64_t closed_start_ = 0, closed_end_ = 0, closed_window_ns_ = 1;
  size_t closed_base_ = 0;  // first window of the current segment
  std::vector<uint64_t> closed_counts_;
  std::vector<double> closed_steal_share_;
  // Open loop: latencies per sub-window of scheduled send time.
  RequestStream open_stream_;
  int64_t open_start_ = 0, open_window_ns_ = 1;
  size_t open_base_ = 0;
  std::vector<std::vector<int64_t>> open_latency_ns_;
  std::vector<double> open_steal_share_;
  std::vector<int64_t> open_late_ns_;
  uint64_t open_sent_ = 0;
  // Reloads.
  int64_t next_reload_ns_ = 0;
  std::vector<int64_t> reload_ns_;
  // Checks and totals.
  uint64_t attempted_ = 0;  // QUERY/KNN requests sent
  uint64_t answered_ = 0;   // DIST/KNN answers that passed the checks
  uint64_t err_lines_ = 0, missing_ = 0, out_of_order_ = 0, dropped_ = 0;
  uint64_t fell_back_ = 0, cached_ = 0;
  uint64_t lines_sent_ = 0, lines_before_metrics_ = 0;
  uint64_t bytes_sent_ = 0, bytes_received_ = 0;
  std::vector<std::string> fatal_;
  // Accuracy sample: QUERY answers from the seeded source set, one per
  // distinct (s, t); KNN answers by stride, plus KNN probes.
  std::vector<uint8_t> in_source_set_;
  std::vector<uint32_t> sources_;
  std::unordered_map<uint64_t, double> pair_dist_;
  std::vector<KnnSample> knn_samples_;
  std::string stats_json_ = "null", metrics_json_ = "null";
  // Oracle results.
  double rel_err_sum_ = 0.0;
  uint64_t rel_err_n_ = 0;
  double recall_sum_ = 0.0;
  uint64_t recall_n_ = 0;
};

Client::Client(const Options& options)
    : opt_(options),
      open_stream_(options.spec, options.seed, kOpenStream),
      in_source_set_(options.spec.vertices, 0) {
  closed_window_ns_ = static_cast<int64_t>(kClosedWindowSeconds * 1e9);
  open_window_ns_ = static_cast<int64_t>(kOpenWindowSeconds * 1e9);
  SplitMix64 rng(StreamSeed(opt_.seed, kSampleStream));
  const size_t want = std::min(opt_.sample_sources, opt_.spec.vertices);
  while (sources_.size() < want) {
    const auto s = static_cast<uint32_t>(rng.Below(opt_.spec.vertices));
    if (in_source_set_[s] != 0) continue;
    in_source_set_[s] = 1;
    sources_.push_back(s);
  }
}

Client::~Client() {
  for (const Conn& c : conns_) {
    if (c.fd >= 0) close(c.fd);
  }
}

bool Client::Connect(std::string* error) {
  for (size_t i = 0; i < kConns + 1; ++i) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      *error = std::string("socket: ") + strerror(errno);
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(opt_.port);
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
        0) {
      *error = std::string("connect: ") + strerror(errno);
      close(fd);
      return false;
    }
    const int one = 1;
    (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    (void)fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
    Conn c;
    c.fd = fd;
    conns_.push_back(std::move(c));
  }
  for (size_t i = 0; i < kConns; ++i) {
    closed_streams_.emplace_back(opt_.spec, opt_.seed, kClosedStream + i);
  }
  return true;
}

void Client::Send(Conn* c, const Pending& p, const std::string& wire) {
  const bool request = p.expect == Expect::kDist || p.expect == Expect::kKnn;
  if (request) ++attempted_;
  if (c->dead) {
    if (request) ++missing_;
    return;
  }
  c->out.append(wire);
  c->pending.push_back(p);
  ++lines_sent_;
  bytes_sent_ += wire.size();
}

void Client::Refill(size_t index, int64_t now) {
  Conn& c = conns_[index];
  std::string wire;
  while (!c.dead && c.pending.size() < kWindow) {
    Pending p;
    p.req = closed_streams_[index].Next();
    p.expect = p.req.kind == Kind::kQuery ? Expect::kDist : Expect::kKnn;
    p.phase = Phase::kClosed;
    p.t_ns = now;
    if (index == 0 && p.req.kind == Kind::kKnn) {
      if (closed_generated_ % 8 == 0 &&
          knn_samples_.size() < opt_.knn_samples) {
        p.sample = static_cast<int32_t>(knn_samples_.size());
        knn_samples_.push_back(KnnSample{p.req, {}});
      }
      ++closed_generated_;
    }
    wire.clear();
    AppendWire(p.req, &wire);
    Send(&c, p, wire);
  }
  FlushConn(&c);
}

void Client::MaybeReload(int64_t now) {
  if (opt_.reload_hz <= 0.0 || now < next_reload_ns_) return;
  Pending p;
  p.expect = Expect::kReload;
  p.t_ns = now;
  Send(&control(), p, "RELOAD\n");
  FlushConn(&control());
  const auto period = static_cast<int64_t>(1e9 / opt_.reload_hz);
  while (next_reload_ns_ <= now) next_reload_ns_ += period;
}

void Client::FlushConn(Conn* c) {
  while (!c->dead && c->out_off < c->out.size()) {
    const ssize_t n =
        write(c->fd, c->out.data() + c->out_off, c->out.size() - c->out_off);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      Drop(c);
      return;
    }
    c->out_off += static_cast<size_t>(n);
  }
  if (c->out_off == c->out.size()) {
    c->out.clear();
    c->out_off = 0;
  }
}

void Client::Drop(Conn* c) {
  if (c->dead) return;
  c->dead = true;
  ++dropped_;
  for (const Pending& p : c->pending) {
    if (p.expect == Expect::kDist || p.expect == Expect::kKnn) ++missing_;
  }
  c->pending.clear();
  close(c->fd);
  c->fd = -1;
}

void Client::PollOnce(int64_t timeout_ns) {
  std::vector<pollfd> fds;
  std::vector<Conn*> owners;
  for (Conn& c : conns_) {
    if (c.dead) continue;
    pollfd p{};
    p.fd = c.fd;
    p.events = POLLIN;
    if (c.out_off < c.out.size()) p.events |= POLLOUT;
    fds.push_back(p);
    owners.push_back(&c);
  }
  if (fds.empty()) return;
  timeout_ns = std::max<int64_t>(0, timeout_ns);
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000);
  const int n = ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (n <= 0) return;
  for (size_t i = 0; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      ReadConn(owners[i]);
    }
    if ((fds[i].revents & POLLOUT) != 0) FlushConn(owners[i]);
  }
}

void Client::ReadConn(Conn* c) {
  char buf[64 * 1024];
  for (;;) {
    if (c->dead) return;
    const ssize_t n = read(c->fd, buf, sizeof(buf));
    if (n > 0) {
      bytes_received_ += static_cast<uint64_t>(n);
      c->in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    Drop(c);  // EOF or error: the server closed a connection we still use
    break;
  }
  const int64_t now = NowNs();
  size_t start = 0;
  size_t nl;
  while ((nl = c->in.find('\n', start)) != std::string::npos) {
    OnLine(c, std::string_view(c->in).substr(start, nl - start), now);
    start = nl + 1;
  }
  c->in.erase(0, start);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool Client::CheckDist(const Req& req, std::string_view line) {
  // DIST <value> backend=<name> exact=<0|1> fallback=<0|1> cached=<0|1>
  const std::string text(line.substr(5));
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || !std::isfinite(v) || v < 0.0) {
    Fatal("non-finite or negative DIST: " + std::string(line));
    return false;
  }
  if (line.find(" cached=1") != std::string_view::npos) ++cached_;
  if (line.find(" fallback=1") != std::string_view::npos) {
    ++fell_back_;  // exact fallback answers are not the model's
    return true;
  }
  if (in_source_set_[req.s] == 0) return true;
  // The model is deterministic and RELOAD re-reads the same file, so one
  // pair always gets one value; another value means the answer belongs to
  // another request.
  const uint64_t key = (static_cast<uint64_t>(req.s) << 32) | req.t;
  const auto [it, inserted] = pair_dist_.emplace(key, v);
  if (!inserted && std::abs(it->second - v) > 1e-6) {
    ++out_of_order_;
    return false;
  }
  return true;
}

bool Client::CheckKnn(const Req& req, std::string_view line,
                      KnnSample* sample) {
  // KNN <v>:<dist> ... in ascending distance order, exactly k entries.
  std::vector<std::pair<uint32_t, double>> list;
  size_t pos = 3;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    if (pos >= line.size()) break;
    const size_t colon = line.find(':', pos);
    size_t next = line.find(' ', pos);
    if (next == std::string_view::npos) next = line.size();
    if (colon == std::string_view::npos || colon > next) {
      Fatal("malformed KNN entry: " + std::string(line.substr(0, 80)));
      return false;
    }
    const std::string v(line.substr(pos, colon - pos));
    const std::string d(line.substr(colon + 1, next - colon - 1));
    const double dist = std::strtod(d.c_str(), nullptr);
    if (!std::isfinite(dist) || dist < 0.0) {
      Fatal("non-finite or negative KNN distance: " + d);
      return false;
    }
    list.emplace_back(
        static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10)), dist);
    pos = next;
  }
  const size_t want = std::min<size_t>(req.t, opt_.spec.vertices);
  if (list.size() != want) {
    Fatal("KNN answer has " + std::to_string(list.size()) + " entries, want " +
          std::to_string(want));
    return false;
  }
  for (size_t i = 1; i < list.size(); ++i) {
    if (list[i].second < list[i - 1].second) {
      Fatal("KNN answer not sorted by distance");
      return false;
    }
  }
  // The source is at estimated distance 0 from itself, so an answer that
  // does not contain it belongs to another request.
  const bool has_source =
      std::any_of(list.begin(), list.end(),
                  [&](const auto& e) { return e.first == req.s; });
  if (!has_source) {
    ++out_of_order_;
    return false;
  }
  if (sample != nullptr) {
    for (const auto& e : list) sample->answer.push_back(e.first);
  }
  return true;
}

void Client::OnLine(Conn* c, std::string_view line, int64_t now) {
  if (c->pending.empty()) {
    ++out_of_order_;  // an answer nobody asked for
    return;
  }
  const Pending p = c->pending.front();
  c->pending.pop_front();
  switch (p.expect) {
    case Expect::kReload:
      if (StartsWith(line, "RELOAD OK")) {
        reload_ns_.push_back(now - p.t_ns);
      } else {
        Fatal("RELOAD failed: " + std::string(line));
      }
      return;
    case Expect::kStats:
      if (StartsWith(line, "STATS ")) {
        stats_json_ = std::string(line.substr(6));
      } else {
        Fatal("bad STATS answer: " + std::string(line.substr(0, 80)));
      }
      return;
    case Expect::kMetrics:
      if (StartsWith(line, "METRICS ")) {
        metrics_json_ = std::string(line.substr(8));
      } else {
        Fatal("bad METRICS answer: " + std::string(line.substr(0, 80)));
      }
      return;
    case Expect::kDist:
    case Expect::kKnn:
      break;
  }
  if (StartsWith(line, "ERR")) {
    ++err_lines_;
    return;
  }
  bool ok = false;
  if (p.expect == Expect::kDist) {
    if (!StartsWith(line, "DIST ")) {
      ++out_of_order_;
      return;
    }
    ok = CheckDist(p.req, line);
  } else {
    if (!StartsWith(line, "KNN")) {
      ++out_of_order_;
      return;
    }
    KnnSample* sample =
        p.sample >= 0 ? &knn_samples_[static_cast<size_t>(p.sample)] : nullptr;
    ok = CheckKnn(p.req, line, sample);
  }
  if (!ok) return;
  ++answered_;
  if (p.phase == Phase::kClosed && now >= closed_start_ &&
      now < closed_end_) {
    ++closed_counts_[closed_base_ + static_cast<size_t>((now - closed_start_) /
                                                        closed_window_ns_)];
  } else if (p.phase == Phase::kOpen) {
    const size_t w = open_base_ + static_cast<size_t>((p.t_ns - open_start_) /
                                                      open_window_ns_);
    if (w < open_latency_ns_.size()) {
      open_latency_ns_[w].push_back(now - p.t_ns);
    }
  }
}

void Client::Drain(double seconds) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (;;) {
    bool owed = false;
    for (const Conn& c : conns_) owed = owed || !c.pending.empty();
    const int64_t now = NowNs();
    if (!owed || now >= deadline) break;
    PollOnce(std::min<int64_t>(deadline - now, 100000000));
  }
  for (Conn& c : conns_) {
    for (const Pending& p : c.pending) {
      if (p.expect == Expect::kDist || p.expect == Expect::kKnn) {
        ++missing_;
      } else {
        Fatal("no answer to a control request");
      }
    }
    c.pending.clear();
  }
}

void Client::RunClosed(double warmup_seconds, double seconds) {
  const int64_t start = NowNs();
  const auto windows = static_cast<size_t>(
      std::max(1.0, std::floor(seconds / kClosedWindowSeconds)));
  closed_base_ = closed_counts_.size();
  closed_counts_.resize(closed_base_ + windows, 0);
  closed_start_ = start + static_cast<int64_t>(warmup_seconds * 1e9);
  closed_end_ = closed_start_ + static_cast<int64_t>(windows) * closed_window_ns_;
  next_reload_ns_ = start;
  StealMarks steal(closed_start_, closed_window_ns_, windows);
  for (size_t i = 0; i < DataConns(); ++i) Refill(i, start);
  for (;;) {
    int64_t now = NowNs();
    steal.Sample(now);
    if (now >= closed_end_) break;
    MaybeReload(now);
    int64_t wake = std::min(closed_end_, steal.NextBoundary());
    if (opt_.reload_hz > 0.0) wake = std::min(wake, next_reload_ns_);
    PollOnce(wake - now);
    now = NowNs();
    if (now < closed_end_) {
      for (size_t i = 0; i < DataConns(); ++i) Refill(i, now);
    }
  }
  steal.Finish(&closed_steal_share_);
  Drain(10.0);
}

void Client::RunOpen(size_t cycle, double seconds) {
  ArrivalClock clock(opt_.rate, opt_.seed, kArrivalStream + cycle);
  const auto windows = static_cast<size_t>(
      std::max(1.0, std::floor(seconds / kOpenWindowSeconds)));
  open_base_ = open_latency_ns_.size();
  open_latency_ns_.resize(open_base_ + windows);
  for (size_t w = open_base_; w < open_latency_ns_.size(); ++w) {
    open_latency_ns_[w].reserve(
        static_cast<size_t>(opt_.rate * kOpenWindowSeconds * 1.2));
  }
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(windows) * open_window_ns_;
  open_start_ = start;
  next_reload_ns_ = start;
  StealMarks steal(start, open_window_ns_, windows);
  int64_t next = start + static_cast<int64_t>(clock.Next() * 1e9);
  uint64_t index = 0;
  std::string wire;
  while (next < end) {
    int64_t now = NowNs();
    steal.Sample(now);
    if (next <= now) {
      while (next <= now && next < end) {
        Pending p;
        p.req = open_stream_.Next();
        p.expect = p.req.kind == Kind::kQuery ? Expect::kDist : Expect::kKnn;
        p.phase = Phase::kOpen;
        p.t_ns = next;
        wire.clear();
        AppendWire(p.req, &wire);
        Send(&conns_[index % DataConns()], p, wire);
        open_late_ns_.push_back(now - next);
        ++index;
        next = start + static_cast<int64_t>(clock.Next() * 1e9);
      }
      for (size_t i = 0; i < DataConns(); ++i) FlushConn(&conns_[i]);
    }
    MaybeReload(now);
    int64_t wake = std::min(next, steal.NextBoundary());
    if (opt_.reload_hz > 0.0) wake = std::min(wake, next_reload_ns_);
    PollOnce(wake - NowNs());
  }
  steal.Sample(NowNs());
  steal.Finish(&open_steal_share_);
  open_sent_ += index;
  Drain(10.0);
}

void Client::RunProbes() {
  // The workload's own answers score one accuracy metric (QUERY: relative
  // error, KNN: recall); probes of the other kind on the control connection
  // score the other, so both are reported on every workload. QUERY probes
  // start at the seeded sources, like the scored workload answers.
  Spec probe_spec = opt_.spec;
  probe_spec.kind = opt_.spec.kind == Kind::kQuery ? Kind::kKnn : Kind::kQuery;
  probe_spec.dist = Dist::kUniform;
  RequestStream stream(probe_spec, opt_.seed, kProbeStream);
  std::string wire;
  for (size_t i = 0; i < opt_.probes; ++i) {
    Pending p;
    p.req = stream.Next();
    p.phase = Phase::kControl;
    p.t_ns = NowNs();
    if (p.req.kind == Kind::kQuery) {
      p.expect = Expect::kDist;
      p.req.s = sources_[i % sources_.size()];
    } else {
      p.expect = Expect::kKnn;
      p.sample = static_cast<int32_t>(knn_samples_.size());
      knn_samples_.push_back(KnnSample{p.req, {}});
    }
    wire.clear();
    AppendWire(p.req, &wire);
    Send(&control(), p, wire);
  }
  FlushConn(&control());
  Drain(10.0);
}

void Client::ReadServerCounters() {
  Pending p;
  p.expect = Expect::kStats;
  Send(&control(), p, "STATS\n");
  FlushConn(&control());
  Drain(10.0);
  // The server counts a read burst's lines after handling it, so the
  // METRICS line itself is not yet in net.lines when METRICS answers.
  lines_before_metrics_ = lines_sent_;
  p.expect = Expect::kMetrics;
  Send(&control(), p, "METRICS\n");
  FlushConn(&control());
  Drain(10.0);
}

void Client::Score(const rne::Graph& graph) {
  rne::DijkstraSearch dijkstra(graph);
  std::unordered_map<uint32_t, std::vector<std::pair<uint32_t, double>>>
      by_source;
  for (const auto& [key, dist] : pair_dist_) {
    by_source[static_cast<uint32_t>(key >> 32)].emplace_back(
        static_cast<uint32_t>(key & 0xffffffffULL), dist);
  }
  for (const auto& [s, pairs] : by_source) {
    const std::vector<double>& exact = dijkstra.AllDistances(s);
    for (const auto& [t, dist] : pairs) {
      if (exact[t] <= 0.0 || !std::isfinite(exact[t])) continue;
      rel_err_sum_ += std::abs(dist - exact[t]) / exact[t];
      ++rel_err_n_;
    }
  }
  for (const KnnSample& sample : knn_samples_) {
    const size_t k = sample.answer.size();
    if (k == 0) continue;  // not answered
    const std::vector<double>& exact = dijkstra.AllDistances(sample.req.s);
    std::vector<double> sorted = exact;
    std::nth_element(sorted.begin(), sorted.begin() + (k - 1), sorted.end());
    const double kth = sorted[k - 1];
    size_t hits = 0;
    for (const uint32_t v : sample.answer) {
      // Ties at the k-th exact distance count as correct.
      if (exact[v] <= kth * (1.0 + 1e-9)) ++hits;
    }
    recall_sum_ += static_cast<double>(hits) / static_cast<double>(k);
    ++recall_n_;
  }
}

void Field(std::string* out, const char* key, double v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.6f, ", key, v);
  out->append(buf);
}

void Field(std::string* out, const char* key, uint64_t v) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %llu, ", key,
                static_cast<unsigned long long>(v));
  out->append(buf);
}

template <typename T>
void ListField(std::string* out, const char* key, const std::vector<T>& v) {
  out->append("\"");
  out->append(key);
  out->append("\": [");
  char buf[64];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.3f", i == 0 ? "" : ", ",
                  static_cast<double>(v[i]));
    out->append(buf);
  }
  out->append("], ");
}

std::string Client::ResultJson() const {
  // Per-window values go out raw, with the host steal time during each
  // window: run.py pools the windows of every server instance of a run,
  // drops the ones the host disturbed, and summarizes the rest.
  std::string j = "{";
  const double closed_window_s = static_cast<double>(closed_window_ns_) / 1e9;
  std::vector<double> window_qps, p50s, p99s;
  for (const uint64_t c : closed_counts_) {
    window_qps.push_back(static_cast<double>(c) / closed_window_s);
  }
  uint64_t open_samples = 0;
  for (const auto& lat : open_latency_ns_) {
    p50s.push_back(Percentile(lat, 0.50) / 1e3);
    p99s.push_back(Percentile(lat, 0.99) / 1e3);
    open_samples += lat.size();
  }
  ListField(&j, "closed_window_qps", window_qps);
  ListField(&j, "closed_window_steal_share", closed_steal_share_);
  ListField(&j, "open_window_p50_us", p50s);
  ListField(&j, "open_window_p99_us", p99s);
  ListField(&j, "open_window_steal_share", open_steal_share_);
  Field(&j, "open_samples", open_samples);
  Field(&j, "open_sent", open_sent_);
  Field(&j, "late_p50_us", Percentile(open_late_ns_, 0.50) / 1e3);
  Field(&j, "late_p99_us", Percentile(open_late_ns_, 0.99) / 1e3);
  Field(&j, "reloads", static_cast<uint64_t>(reload_ns_.size()));
  Field(&j, "reload_stall_ms_p50", Percentile(reload_ns_, 0.50) / 1e6);
  Field(&j, "attempted", attempted_);
  Field(&j, "answered", answered_);
  Field(&j, "err_lines", err_lines_);
  Field(&j, "missing", missing_);
  Field(&j, "out_of_order", out_of_order_);
  Field(&j, "dropped", dropped_);
  Field(&j, "fell_back", fell_back_);
  Field(&j, "cached", cached_);
  Field(&j, "lines_sent", lines_sent_);
  Field(&j, "lines_before_metrics", lines_before_metrics_);
  Field(&j, "bytes_sent", bytes_sent_);
  Field(&j, "bytes_received", bytes_received_);
  Field(&j, "rel_err_sum", rel_err_sum_);
  Field(&j, "rel_err_n", rel_err_n_);
  Field(&j, "recall_sum", recall_sum_);
  Field(&j, "recall_n", recall_n_);
  j.append("\"fatal\": [");
  for (size_t i = 0; i < fatal_.size(); ++i) {
    if (i > 0) j.append(", ");
    j.push_back('"');
    for (const char ch : fatal_[i]) {
      if (ch == '"' || ch == '\\') j.push_back('\\');
      j.push_back(ch == '\n' ? ' ' : ch);
    }
    j.push_back('"');
  }
  j.append("], \"stats\": ");
  j.append(stats_json_);
  j.append(", \"metrics\": ");
  j.append(metrics_json_);
  j.append("}");
  return j;
}

int DumpWire(const Options& opt, size_t count) {
  std::string wire;
  for (size_t c = 0; c < kConns; ++c) {
    RequestStream s(opt.spec, opt.seed, kClosedStream + c);
    for (size_t i = 0; i < count; ++i) AppendWire(s.Next(), &wire);
  }
  RequestStream open(opt.spec, opt.seed, kOpenStream);
  ArrivalClock clock(opt.rate, opt.seed, kArrivalStream);
  char buf[64];
  for (size_t i = 0; i < count; ++i) {
    std::snprintf(buf, sizeof(buf), "@%.9f ", clock.Next());
    wire.append(buf);
    AppendWire(open.Next(), &wire);
  }
  std::fwrite(wire.data(), 1, wire.size(), stdout);
  return 0;
}

int Main(int argc, char** argv) {
  auto parsed = rne::ArgParser::Parse(argc, argv, 1, {});
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
    return 2;
  }
  const rne::ArgParser& args = parsed.value();
  rne::FlagReader flags(args);
  Options opt;
  opt.port = static_cast<uint16_t>(flags.Int("port", 0));
  opt.seed = static_cast<uint64_t>(flags.Int("seed", 1));
  opt.seconds = flags.Real("seconds", 8.0);
  opt.rate = flags.Real("rate", 10000.0);
  opt.reload_hz = flags.Real("reload-hz", 0.0);
  opt.sample_sources =
      static_cast<size_t>(flags.Int("sample-sources", 256));
  opt.knn_samples = static_cast<size_t>(flags.Int("knn-samples", 2000));
  opt.probes = static_cast<size_t>(flags.Int("probes", 2000));
  opt.spec.vertices = static_cast<size_t>(flags.Int("vertices", 0));
  const long dump = flags.Int("dump-wire", 0);
  if (!flags.status().ok()) {
    std::fprintf(stderr, "error: %s\n", flags.status().ToString().c_str());
    return 2;
  }
  if (!ParseSpec(args.Get("kind", "query"), args.Get("dist", "uniform"),
                 &opt.spec) ||
      opt.rate <= 0.0 || opt.sample_sources == 0) {
    std::fprintf(stderr, "error: bad workload flags\n");
    return 2;
  }
  if (dump > 0) {
    if (opt.spec.vertices == 0) {
      std::fprintf(stderr, "error: --dump-wire needs --vertices\n");
      return 2;
    }
    return DumpWire(opt, static_cast<size_t>(dump));
  }
  auto graph = rne::LoadDimacs(args.Get("gr", ""), args.Get("co", ""));
  if (!graph.ok()) {
    std::fprintf(stderr, "error: %s\n", graph.status().ToString().c_str());
    return 2;
  }
  opt.spec.vertices = graph.value().NumVertices();
  // Sleep precisely: the open loop wakes on each scheduled arrival.
  (void)prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  Client client(opt);
  std::string error;
  if (!client.Connect(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const double segment =
      std::max(0.5, opt.seconds - kWarmupSeconds -
                        kRewarmSeconds * static_cast<double>(kCycles - 1)) /
      static_cast<double>(2 * kCycles);
  for (size_t cycle = 0; cycle < kCycles; ++cycle) {
    client.RunClosed(cycle == 0 ? kWarmupSeconds : kRewarmSeconds, segment);
    client.RunOpen(cycle, segment);
  }
  client.RunProbes();
  client.ReadServerCounters();
  client.Score(graph.value());
  std::printf("%s\n", client.ResultJson().c_str());
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
