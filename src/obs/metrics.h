// Process-global, lock-cheap metrics registry: named counters, gauges, and
// log-bucketed latency histograms shared by the training and serving paths.
//
// Design:
//   - Counter  : relaxed std::atomic<uint64_t>. Add() is one atomic RMW.
//   - Gauge    : relaxed std::atomic<double> (last-writer-wins Set()).
//   - LatencyStat : LatencyHistogram is documented not thread-safe, so the
//     stat stripes records across 8 mutex-guarded shards picked by thread id
//     and merges them on Snapshot(). Contention on the hot path is near zero
//     because concurrent recorders land on different shards.
//   - MetricsRegistry::Global() hands out pointers that stay valid for the
//     process lifetime: entries are never removed, only their values are
//     cleared by ResetForTest(). This is what makes the static-local handle
//     caching in the RNE_* macros safe.
//
// Instrumentation macros (RNE_COUNTER_ADD / RNE_GAUGE_SET / RNE_HIST_RECORD)
// resolve the registry entry once per call site (magic static), check the
// runtime obs::Enabled() toggle, and compile to nothing when the project is
// built with -DRNE_OBS_DISABLED. The registry types themselves always exist
// (QueryEngine uses obs::Counter for its functional per-engine counters even
// in disabled builds); only the named-registry side channels vanish.
#ifndef RNE_OBS_METRICS_H_
#define RNE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "util/annotations.h"
#include "util/histogram.h"

namespace rne::obs {

/// Runtime kill switch consulted by every instrumentation macro. Defaults to
/// enabled; bench_micro's A/B leg flips it to measure instrumentation
/// overhead inside one binary.
bool Enabled();
void SetEnabled(bool enabled);

/// Monotonically increasing event count. Relaxed atomics: totals are exact,
/// cross-counter ordering is not guaranteed (fine for metrics).
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-writer-wins instantaneous value (samples/sec, max bucket error, ...).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Thread-safe latency distribution built from sharded LatencyHistograms.
/// Record() locks only the recording thread's shard; Snapshot() merges all
/// shards into one histogram for percentile queries.
class LatencyStat {
 public:
  /// Records `count` samples of `nanos` (one shard lock however many).
  void Record(int64_t nanos, uint64_t count = 1);
  LatencyHistogram Snapshot() const;
  void Reset();

 private:
  static constexpr size_t kShards = 8;
  struct alignas(64) Shard {
    mutable Mutex mu;
    LatencyHistogram hist RNE_GUARDED_BY(mu);
  };
  Shard shards_[kShards];
};

/// Process-global name -> metric map. Get*() creates on first use and
/// returns a pointer that remains valid (and keeps its identity) for the
/// process lifetime.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyStat* GetLatency(const std::string& name);

  /// Single JSON object:
  ///   {"counters":{name:value,...},
  ///    "gauges":{name:value,...},
  ///    "histograms":{name:{"count":..,"mean_ns":..,"p50_ns":..,
  ///                        "p95_ns":..,"p99_ns":..,"max_ns":..},...}}
  /// Zero-count metrics are included so consumers see a stable schema.
  std::string ToJson() const;

  /// Clears every value but keeps all entries (handed-out pointers stay
  /// valid). Tests only — production code never resets.
  void ResetForTest();

 private:
  MetricsRegistry() = default;

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      RNE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ RNE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyStat>> latencies_
      RNE_GUARDED_BY(mu_);
};

/// Appends `v` to `out` in a JSON-safe format (finite -> shortest-ish
/// decimal, non-finite -> 0). Shared by the registry and trace exporters.
void AppendJsonDouble(std::string* out, double v);
/// Appends `s` as a quoted, escaped JSON string.
void AppendJsonString(std::string* out, const std::string& s);

}  // namespace rne::obs

#if defined(RNE_OBS_DISABLED)

#define RNE_COUNTER_ADD(name, n) \
  do {                           \
  } while (0)
#define RNE_GAUGE_SET(name, v) \
  do {                         \
  } while (0)
#define RNE_HIST_RECORD(name, nanos) \
  do {                               \
  } while (0)
#define RNE_HIST_RECORD_N(name, nanos, count) \
  do {                                        \
  } while (0)

#else  // !RNE_OBS_DISABLED

/// Adds `n` to the process-global counter `name` (string literal). The
/// registry lookup happens once per call site.
#define RNE_COUNTER_ADD(name, n)                                           \
  do {                                                                     \
    if (::rne::obs::Enabled()) {                                           \
      static ::rne::obs::Counter* const rne_obs_counter_handle =           \
          ::rne::obs::MetricsRegistry::Global().GetCounter(name);          \
      rne_obs_counter_handle->Add(static_cast<uint64_t>(n));               \
    }                                                                      \
  } while (0)

#define RNE_GAUGE_SET(name, v)                                             \
  do {                                                                     \
    if (::rne::obs::Enabled()) {                                           \
      static ::rne::obs::Gauge* const rne_obs_gauge_handle =               \
          ::rne::obs::MetricsRegistry::Global().GetGauge(name);            \
      rne_obs_gauge_handle->Set(static_cast<double>(v));                   \
    }                                                                      \
  } while (0)

#define RNE_HIST_RECORD(name, nanos)                                       \
  do {                                                                     \
    if (::rne::obs::Enabled()) {                                           \
      static ::rne::obs::LatencyStat* const rne_obs_hist_handle =          \
          ::rne::obs::MetricsRegistry::Global().GetLatency(name);          \
      rne_obs_hist_handle->Record(static_cast<int64_t>(nanos));            \
    }                                                                      \
  } while (0)

/// Records `count` samples of the same latency (one lock total; how a
/// batch loop records requests that share one completion time).
#define RNE_HIST_RECORD_N(name, nanos, count)                              \
  do {                                                                     \
    if (::rne::obs::Enabled()) {                                           \
      static ::rne::obs::LatencyStat* const rne_obs_hist_n_handle =        \
          ::rne::obs::MetricsRegistry::Global().GetLatency(name);          \
      rne_obs_hist_n_handle->Record(static_cast<int64_t>(nanos),           \
                                    static_cast<uint64_t>(count));         \
    }                                                                      \
  } while (0)

#endif  // RNE_OBS_DISABLED

#endif  // RNE_OBS_METRICS_H_
