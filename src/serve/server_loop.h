// Newline-delimited query protocol shared by rne_server (stdin and TCP
// front ends) and the protocol tests: the tool binary wires it to
// stdin/stdout or to net::TcpServer, tests drive it with string streams
// in-process.
//
// Verbs (answers in request order):
//   QUERY <s> <t>  ->  DIST <value> backend=<name> exact=<0|1>
//                      fallback=<0|1> cached=<0|1>
//   KNN <s> <k>    ->  KNN <v>:<dist> ... (one line, ascending distance)
//   STATS          ->  STATS <json>   (engine metrics plus a "cache" object
//                      — null when no cache is attached; its hits and
//                      misses count looked-up requests only, i.e. KNNs and
//                      QUERYs an exact backend answers — and an
//                      "active_connections" count; flushes pending batch)
//   METRICS        ->  METRICS <global registry json> (counters, gauges and
//                      histograms: the registry's own entries plus the live
//                      counters of every engine, server and cache in the
//                      process, same names summed; flushes pending batch)
//   RELOAD [path]  ->  RELOAD OK version=<v> vertices=<n> | ERR <status>
//                      (hot model swap via ModelManager; no argument re-runs
//                      the last path; flushes pending batch first and
//                      invalidates the result cache on success)
//   anything else  ->  ERR <message>
// Per-request failures print `ERR <status>`. Every QUERY and KNN gets one
// answer line; a handler has at most one batch (`batch` requests) in the
// engine at a time, which bounds what it holds.
//
// LineProtocolHandler is the per-connection state machine: it owns the
// pending batch and turns one input line at a time into zero or more output
// bytes. RunServerLoop wraps one handler around an istream/ostream pair
// (the legacy stdin mode); net::TcpServer keeps one handler per connection
// so pipelined requests batch into the engine without interleaving across
// connections.
#ifndef RNE_SERVE_SERVER_LOOP_H_
#define RNE_SERVE_SERVER_LOOP_H_

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "serve/model_manager.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"

namespace rne::serve {

struct ServerLoopOptions {
  /// Requests buffered before a batched engine call; STATS/METRICS, a
  /// malformed line, or EOF flush early so answers stay in request order.
  size_t batch = 64;
  /// Serves the RELOAD verb when set (not owned; must outlive the loop).
  /// Without it RELOAD answers ERR FAILED_PRECONDITION.
  ModelManager* model_manager = nullptr;
  /// Graceful-drain flag, checked between lines: once true the loop stops
  /// reading, flushes the pending batch, and returns (rne_server sets it
  /// from its SIGINT/SIGTERM handler).
  const std::atomic<bool>* stop = nullptr;
  /// Result cache consulted before the engine (not owned; may be null).
  /// A successful RELOAD invalidates it wholesale.
  ResultCache* cache = nullptr;
  /// Live connection count reported by STATS (not owned; null reads as 0 —
  /// the stdin loop has no connections). net::TcpServer points this at its
  /// own counter.
  const std::atomic<size_t>* active_connections = nullptr;
  /// Byte-stream framing limit for Consume(): once the buffered
  /// unterminated line exceeds this, the handler answers ERR and reports
  /// the stream poisoned. net::TcpServer overwrites this with its own
  /// max_line_bytes so both fronts share one limit.
  size_t max_line_bytes = 64 * 1024;
};

/// One protocol line as LineProtocolHandler reads it. The views point into
/// the parsed line.
struct ParsedLine {
  enum class Kind {
    /// Empty or whitespace only: ignored, not counted.
    kBlank,
    /// QUERY or KNN with valid arguments, in `request`.
    kRequest,
    /// QUERY or KNN with missing, malformed or out-of-range arguments;
    /// `request.kind` says which verb.
    kUsageError,
    kStats,
    kMetrics,
    /// `argument` is the path, empty for none.
    kReload,
    /// `verb` holds the token as written.
    kUnknownVerb,
  };
  Kind kind = Kind::kBlank;
  /// The first token.
  std::string_view verb;
  /// RELOAD's path token.
  std::string_view argument;
  Request request;
};

/// Parses one protocol line (no trailing newline) without allocating, with
/// the verdicts of `std::istringstream >> std::string >> long long` in the
/// C locale:
///   * tokens are separated by the C isspace set; verbs are case-sensitive;
///   * a number is decimal with an optional '+' or '-' and ends at the
///     first non-digit, so "QUERY 1 2x" reads t = 2, while "QUERY 1x 2"
///     fails at 'x'; text after the last token needed is ignored;
///   * overflow of long long, a negative value ("-0" is 0), or an id above
///     VertexId's range is a usage error; k has no upper bound.
void ParseRequestLine(std::string_view line, ParsedLine* out);

/// One protocol conversation: feed it lines, collect output bytes. Not
/// thread-safe — each connection (or stream) owns its handler and calls it
/// from one thread at a time.
class LineProtocolHandler {
 public:
  /// `engine` is not owned and must outlive the handler; the same goes for
  /// every pointer in `options`.
  LineProtocolHandler(QueryEngine& engine, const ServerLoopOptions& options);

  /// Processes one protocol line (no trailing newline), appending any
  /// answers to `*out`. Query answers may be deferred until the pending
  /// batch fills or Flush() is called; control verbs and errors flush
  /// first so answers never leave request order.
  void HandleLine(std::string_view line, std::string* out);

  /// Byte-stream entry point: appends `bytes` to the framing buffer, peels
  /// off every complete '\n'-terminated line (an optional trailing '\r' is
  /// stripped), and feeds each through HandleLine. Frames may be split or
  /// merged arbitrarily across calls — this is the seam the TCP front end
  /// and the protocol fuzzer share. Returns false when the buffered
  /// unterminated tail exceeded options.max_line_bytes: one ERR line was
  /// appended, the buffer was discarded, and the caller should stop feeding
  /// this stream (the TCP server closes the connection).
  bool Consume(std::string_view bytes, std::string* out);

  /// End of input: any buffered unterminated line is dropped — counted in
  /// net.partial_line_dropped — and the pending batch is flushed so no
  /// answer is owed. Idempotent.
  void Finish(std::string* out);

  /// Newline-terminated frames Consume() has peeled off so far (blank lines
  /// included — this is the wire-level count the TCP server reports as
  /// net.lines).
  size_t frames() const { return frames_; }

  /// Runs the pending batch through the (cached) engine and appends every
  /// answer to `*out`. Call at end-of-input, on drain, and when a read
  /// burst is exhausted (so pipelined clients are never left waiting on a
  /// half-full batch).
  void Flush(std::string* out);

  /// True when the pending batch is non-empty (answers are owed).
  bool HasPending() const { return !pending_.empty(); }

  /// Protocol lines processed so far (including errors, excluding blanks).
  size_t lines() const { return lines_; }

 private:
  void AppendStats(std::string* out);
  void Reload(std::string_view path, std::string* out);

  QueryEngine& engine_;
  const ServerLoopOptions options_;
  CachedEngine cached_;
  std::vector<Request> pending_;
  /// Flush()'s answers, reused across flushes.
  std::vector<Response> responses_;
  /// Bytes received by Consume() but not yet terminated by '\n'.
  std::string buffer_;
  size_t lines_ = 0;
  size_t frames_ = 0;
};

/// Appends `value` exactly as printf("%.2f") renders it (the DIST and KNN
/// answer format): +0.0 and positive normals below 2^52 by exact integer
/// rounding, everything else via std::to_chars; no format-string parsing
/// or locale.
void AppendDistance(double value, std::string* out);

/// Reads protocol lines from `in` until EOF (or `options.stop`), writing
/// every answer to `out`. Returns the number of protocol lines processed
/// (including errors).
size_t RunServerLoop(std::istream& in, std::ostream& out, QueryEngine& engine,
                     const ServerLoopOptions& options = {});

}  // namespace rne::serve

#endif  // RNE_SERVE_SERVER_LOOP_H_
