#include "serve/server_loop.h"

#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <system_error>
#include <vector>

#include "obs/metrics.h"

namespace rne::serve {
namespace {

void PrintResponse(const Request& request, const Response& response,
                   std::string* out) {
  if (!response.status.ok()) {
    out->append("ERR ");
    out->append(response.status.ToString());
    out->push_back('\n');
    return;
  }
  if (request.kind == RequestKind::kDistance) {
    out->append("DIST ");
    AppendDistance(response.distance, out);
    out->append(" backend=");
    out->append(response.backend);
    out->append(" exact=");
    out->append(response.exact ? "1" : "0");
    out->append(" fallback=");
    out->append(response.fell_back ? "1" : "0");
    out->append(" cached=");
    out->append(response.cached ? "1" : "0");
    out->push_back('\n');
    return;
  }
  out->append("KNN");
  char id[16];
  for (const auto& [v, d] : response.knn) {
    out->push_back(' ');
    out->append(id, std::to_chars(id, id + sizeof(id), v).ptr);
    out->push_back(':');
    AppendDistance(d, out);
  }
  out->push_back('\n');
}

bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

size_t SkipSpace(std::string_view line, size_t pos) {
  while (pos < line.size() && IsSpace(line[pos])) ++pos;
  return pos;
}

/// The next run of non-space characters from `*pos` (empty at the end).
std::string_view NextToken(std::string_view line, size_t* pos) {
  const size_t start = SkipSpace(line, *pos);
  size_t end = start;
  while (end < line.size() && !IsSpace(line[end])) ++end;
  *pos = end;
  return line.substr(start, end - start);
}

/// Reads a non-negative decimal at `*pos` as `istream >> long long` would
/// accept it: spaces, an optional sign, digits up to the first non-digit.
/// A negative value other than zero counts as a failure here, since every
/// protocol field rejects it.
bool ReadCount(std::string_view line, size_t* pos, uint64_t* value) {
  const char* p = line.data() + SkipSpace(line, *pos);
  const char* const end = line.data() + line.size();
  bool negative = false;
  if (p != end && (*p == '+' || *p == '-')) {
    negative = *p == '-';
    ++p;
  }
  uint64_t v = 0;
  const auto [next, ec] = std::from_chars(p, end, v);
  if (ec != std::errc()) return false;
  if (v > static_cast<uint64_t>(std::numeric_limits<long long>::max())) {
    return false;
  }
  if (negative && v != 0) return false;
  *pos = static_cast<size_t>(next - line.data());
  *value = v;
  return true;
}

}  // namespace

void ParseRequestLine(std::string_view line, ParsedLine* out) {
  using Kind = ParsedLine::Kind;
  // Ids are parsed into a wider type and range-checked before the narrowing
  // cast: without the check, "QUERY 4294967296 0" would silently alias
  // vertex 0 (found by the protocol fuzzer).
  constexpr uint64_t kMaxId = std::numeric_limits<VertexId>::max();
  size_t pos = 0;
  out->verb = NextToken(line, &pos);
  out->argument = {};
  out->request = Request();
  uint64_t s = 0;
  uint64_t second = 0;
  if (out->verb == "QUERY") {
    out->request.kind = RequestKind::kDistance;
    out->kind = Kind::kUsageError;
    if (!ReadCount(line, &pos, &s) || !ReadCount(line, &pos, &second)) return;
    if (s > kMaxId || second > kMaxId) return;
    out->kind = Kind::kRequest;
    out->request.s = static_cast<VertexId>(s);
    out->request.t = static_cast<VertexId>(second);
  } else if (out->verb == "KNN") {
    out->request.kind = RequestKind::kKnn;
    out->kind = Kind::kUsageError;
    if (!ReadCount(line, &pos, &s) || !ReadCount(line, &pos, &second)) return;
    if (s > kMaxId) return;
    out->kind = Kind::kRequest;
    out->request.s = static_cast<VertexId>(s);
    out->request.k = static_cast<size_t>(second);
  } else if (out->verb.empty()) {
    out->kind = Kind::kBlank;
  } else if (out->verb == "STATS") {
    out->kind = Kind::kStats;
  } else if (out->verb == "METRICS") {
    out->kind = Kind::kMetrics;
  } else if (out->verb == "RELOAD") {
    out->kind = Kind::kReload;
    out->argument = NextToken(line, &pos);
  } else {
    out->kind = Kind::kUnknownVerb;
  }
}

void AppendDistance(double value, std::string* out) {
  const auto bits = std::bit_cast<uint64_t>(value);
  // The sign bit shifts in above the 11 exponent bits, so a negative value
  // fails both tests below.
  const uint64_t biased_exponent = bits >> 52;
  if (bits == 0 || biased_exponent - 1 < 1074) {
    // +0.0, or a positive normal below 2^52: value = m / 2^s exactly, with
    // s >= 1. Print q = value * 100 rounded half to even as q / 100, a
    // point and two digits, which is what printf("%.2f") prints.
    // m * 100 < 2^60 cannot overflow; below 2^-11 (s >= 64) value * 100 is
    // under 0.05, so q = 0.
    const uint64_t m = (bits & ((uint64_t{1} << 52) - 1)) | (uint64_t{1} << 52);
    const uint64_t s = 1075 - biased_exponent;
    uint64_t q = 0;
    if (s < 64) {
      const uint64_t scaled = m * 100;
      q = scaled >> s;
      const uint64_t rest = scaled & ((uint64_t{1} << s) - 1);
      const uint64_t half = uint64_t{1} << (s - 1);
      if (rest > half || (rest == half && (q & 1) != 0)) ++q;
    }
    char buf[24];  // q / 100 < 2^52 has at most 16 digits
    char* end = std::to_chars(buf, buf + sizeof(buf), q / 100).ptr;
    *end++ = '.';
    *end++ = static_cast<char>('0' + q % 100 / 10);
    *end++ = static_cast<char>('0' + q % 10);
    out->append(buf, end);
    return;
  }
  // Negatives, subnormals, values from 2^52 up, inf and NaN. Sign, DBL_MAX's
  // 309 integer digits, the point and two decimals: every finite double
  // fits, so to_chars cannot fail with value_too_large.
  char buf[1 + 309 + 1 + 2];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value,
                                    std::chars_format::fixed, 2);
  out->append(buf, result.ptr);
}

LineProtocolHandler::LineProtocolHandler(QueryEngine& engine,
                                         const ServerLoopOptions& options)
    : engine_(engine),
      options_(options),
      cached_(&engine, options.cache) {
  pending_.reserve(options_.batch == 0 ? 1 : options_.batch);
}

void LineProtocolHandler::Flush(std::string* out) {
  if (pending_.empty()) return;
  // Discard OK: CachedEngine::QueryBatch always returns OK; each failure is
  // in its response and prints as an ERR line.
  (void)cached_.QueryBatch(pending_, &responses_);
  for (size_t i = 0; i < pending_.size(); ++i) {
    PrintResponse(pending_[i], responses_[i], out);
  }
  pending_.clear();
}

void LineProtocolHandler::AppendStats(std::string* out) {
  // Engine metrics stay the base object (existing consumers parse its
  // fields); cache and connection state graft on before the closing brace.
  std::string json = engine_.Metrics().ToJson();
  if (!json.empty() && json.back() == '}') json.pop_back();
  json.append(", \"cache\": ");
  if (options_.cache == nullptr) {
    json.append("null");
  } else {
    json.append(options_.cache->Stats().ToJson());
  }
  json.append(", \"active_connections\": ");
  const size_t active =
      options_.active_connections == nullptr
          ? 0
          : options_.active_connections->load(std::memory_order_acquire);
  json.append(std::to_string(active));
  json.append(", \"model\": ");
  const auto snapshot = options_.model_manager == nullptr
                            ? nullptr
                            : options_.model_manager->Current();
  if (snapshot == nullptr || snapshot->model == nullptr) {
    json.append("null");
  } else {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"version\": %llu, \"build_threads\": %u, "
                  "\"build_seconds\": %.3f}",
                  static_cast<unsigned long long>(snapshot->version),
                  snapshot->model->build_threads(),
                  snapshot->model->build_seconds());
    json.append(buf);
  }
  json.push_back('}');
  out->append("STATS ");
  out->append(json);
  out->push_back('\n');
}

void LineProtocolHandler::HandleLine(std::string_view line, std::string* out) {
  using Kind = ParsedLine::Kind;
  ParsedLine parsed;
  ParseRequestLine(line, &parsed);
  if (parsed.kind == Kind::kBlank) return;
  ++lines_;
  if (parsed.kind == Kind::kRequest) {
    pending_.push_back(parsed.request);
    const size_t batch = options_.batch == 0 ? 1 : options_.batch;
    if (pending_.size() >= batch) Flush(out);
    return;
  }
  // Every other line answers at once: flush first to keep answers in
  // request order.
  Flush(out);
  switch (parsed.kind) {
    case Kind::kUsageError:
      if (parsed.request.kind == RequestKind::kDistance) {
        out->append("ERR INVALID_ARGUMENT: usage: QUERY <s> <t>\n");
      } else {
        out->append("ERR INVALID_ARGUMENT: usage: KNN <s> <k>\n");
      }
      return;
    case Kind::kStats:
      AppendStats(out);
      return;
    case Kind::kMetrics:
      out->append("METRICS ");
      out->append(obs::MetricsRegistry::Global().ToJson());
      out->push_back('\n');
      return;
    case Kind::kReload:
      // The flush above also means no buffered request can straddle the
      // swap ambiguously (each in-flight query still pins its snapshot;
      // ordering here is for the protocol transcript).
      Reload(parsed.argument, out);
      return;
    default:
      out->append("ERR INVALID_ARGUMENT: unknown verb '");
      out->append(parsed.verb);
      out->append("'\n");
      return;
  }
}

void LineProtocolHandler::Reload(std::string_view path, std::string* out) {
  if (options_.model_manager == nullptr) {
    out->append(
        "ERR FAILED_PRECONDITION: no model manager attached "
        "(start rne_server with --model)\n");
    return;
  }
  ModelManager& manager = *options_.model_manager;
  const Status swapped =
      path.empty() ? manager.Reload() : manager.Load(std::string(path));
  if (!swapped.ok()) {
    out->append("ERR ");
    out->append(swapped.ToString());
    out->push_back('\n');
    return;
  }
  // After startup every model swap comes through this verb, so this is the
  // one place a swap invalidates the cache: no pre-swap answer stays
  // reachable.
  if (options_.cache != nullptr) options_.cache->Invalidate();
  const auto snapshot = manager.Current();
  out->append("RELOAD OK version=");
  out->append(std::to_string(snapshot->version));
  out->append(" vertices=");
  out->append(std::to_string(snapshot->model->NumVertices()));
  out->push_back('\n');
}

bool LineProtocolHandler::Consume(std::string_view bytes, std::string* out) {
  buffer_.append(bytes);
  size_t start = 0;
  size_t nl;
  while ((nl = buffer_.find('\n', start)) != std::string::npos) {
    std::string_view line(buffer_.data() + start, nl - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    ++frames_;
    HandleLine(line, out);
    start = nl + 1;
  }
  buffer_.erase(0, start);
  if (buffer_.size() > options_.max_line_bytes) {
    // Flush answers owed for earlier complete lines first so the transcript
    // stays in request order, then poison the stream.
    Flush(out);
    out->append("ERR INVALID_ARGUMENT: line exceeds ");
    out->append(std::to_string(options_.max_line_bytes));
    out->append(" bytes\n");
    buffer_.clear();
    return false;
  }
  return true;
}

void LineProtocolHandler::Finish(std::string* out) {
  if (!buffer_.empty()) {
    // A peer that closes without terminating its last line gets no answer
    // for it; that is deliberate (a truncated frame is not a request), but
    // it must be observable, not silent.
    RNE_COUNTER_ADD("net.partial_line_dropped", 1);
    buffer_.clear();
  }
  Flush(out);
}

size_t RunServerLoop(std::istream& in, std::ostream& out, QueryEngine& engine,
                     const ServerLoopOptions& options) {
  LineProtocolHandler handler(engine, options);
  std::string line;
  std::string answers;
  while ((options.stop == nullptr ||
          !options.stop->load(std::memory_order_acquire)) &&
         std::getline(in, line)) {
    answers.clear();
    handler.HandleLine(line, &answers);
    if (!answers.empty()) {
      out << answers;
      out.flush();
    }
  }
  answers.clear();
  handler.Flush(&answers);
  if (!answers.empty()) {
    out << answers;
    out.flush();
  }
  return handler.lines();
}

}  // namespace rne::serve
