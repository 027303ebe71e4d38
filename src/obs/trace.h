// Lightweight trace spans: RAII guards record named intervals (with
// thread-local nesting depth and a small dense thread id) into a bounded
// process-global ring buffer, exportable as plain JSON or as chrome://tracing
// "traceEvents" that load directly into chrome://tracing / Perfetto.
//
// Costs when enabled: two steady_clock reads plus one short mutex-guarded
// ring append per span — cheap enough for per-phase / per-level / per-round
// granularity. Spans are NOT meant for per-query granularity on the serve
// hot path; that is what LatencyStat histograms are for. When the ring is
// full the oldest events are overwritten (dropped_events() counts losses
// beyond capacity). Inactive when obs::Enabled() is false at span
// construction.
#ifndef RNE_OBS_TRACE_H_
#define RNE_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace rne::obs {

/// One completed span. Fixed-size name so the ring never allocates while
/// recording.
struct SpanEvent {
  static constexpr size_t kMaxName = 47;
  char name[kMaxName + 1];
  int64_t start_ns = 0;  // since process trace epoch (first obs use)
  int64_t dur_ns = 0;
  uint32_t tid = 0;   // dense per-thread id, 0-based
  uint16_t depth = 0;  // nesting depth at entry (0 = top-level)
};

/// RAII span: records [construction, destruction) into the global ring.
/// Use via RNE_SPAN, which names the guard.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name);
  /// Records under the name "<name>.<index>" (per-level / per-round spans).
  SpanGuard(const char* name, size_t index);
  ~SpanGuard();

  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  void Begin(const char* name, size_t index, bool indexed);

  char name_[SpanEvent::kMaxName + 1];
  int64_t start_ns_ = 0;
  uint16_t depth_ = 0;
  bool active_ = false;
};

/// Nanoseconds since the process trace epoch (monotonic).
int64_t TraceNowNanos();

/// Copies the ring's events (oldest first) into `out`; returns the number of
/// events ever dropped due to ring overflow.
uint64_t TraceSnapshot(std::vector<SpanEvent>* out);

/// {"dropped":N,"spans":[{"name":..,"start_ns":..,"dur_ns":..,
///                        "tid":..,"depth":..},...]}
std::string TraceJson();

/// chrome://tracing JSON object format: {"traceEvents":[{"name":..,
/// "ph":"X","ts":<us>,"dur":<us>,"pid":1,"tid":..},...]} — open via
/// chrome://tracing "Load" or https://ui.perfetto.dev.
std::string TraceChromeJson();

/// Clears the ring and the dropped count (capacity and the trace epoch are
/// unchanged). Tests and tools that export per-run traces.
void ResetTrace();

/// Maximum events held by the ring (default 16384).
size_t TraceRingCapacity();
void SetTraceRingCapacity(size_t capacity);

}  // namespace rne::obs

#define RNE_OBS_CONCAT_INNER(a, b) a##b
#define RNE_OBS_CONCAT(a, b) RNE_OBS_CONCAT_INNER(a, b)
/// Opens a span for the rest of the enclosing scope. One or two arguments:
///   RNE_SPAN("train.phase2");           -> "train.phase2"
///   RNE_SPAN("train.phase1.level", l);  -> "train.phase1.level.3"
#define RNE_SPAN(...) \
  ::rne::obs::SpanGuard RNE_OBS_CONCAT(rne_span_at_, __LINE__)(__VA_ARGS__)

#endif  // RNE_OBS_TRACE_H_
