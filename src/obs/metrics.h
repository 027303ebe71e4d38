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
//   - MetricsSource : a live object (a QueryEngine, a net::TcpServer, a
//     ResultCache) keeps its own counters and registers them as a source.
//     Its counters are the only copy of each count: ToJson() reads every
//     live source next to the registry's own entries, and a source that
//     goes away folds its counters and histograms into those entries.
//
// Instrumentation macros (RNE_COUNTER_ADD / RNE_GAUGE_SET / RNE_HIST_RECORD)
// are for metrics no instance owns. They resolve the registry entry once per
// call site (magic static) and check the runtime obs::Enabled() toggle;
// sources are read whatever the toggle says.
#ifndef RNE_OBS_METRICS_H_
#define RNE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/annotations.h"
#include "util/histogram.h"

namespace rne::obs {

/// Runtime kill switch consulted by every instrumentation macro, every trace
/// span and the engine's sampled per-backend timing; sources are not gated.
/// Defaults to enabled; bench_micro's A/B legs flip it to measure
/// instrumentation overhead inside one binary.
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
  /// Adds every sample of `hist` (one shard lock).
  void Merge(const LatencyHistogram& hist);
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

/// Values under registry names. A reporter adds to what is there (counters
/// and gauges summed, histograms merged), so same-named reports add up.
struct MetricsSample {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, LatencyHistogram> histograms;
};

/// Registers a live object's own counters with MetricsRegistry::Global() for
/// the lifetime of this handle. ToJson() calls `collect` under the registry
/// lock, so `collect` must not call the registry, nor take a lock under
/// which an RNE_* macro runs (the lock order is registry -> the source's
/// locks). On destruction the source's counters and histograms fold into the
/// registry's own entries, so process totals outlive the object; its gauges,
/// instantaneous values of a live object, are dropped.
///
/// Declare the handle as the owner's last member and build everything
/// `collect` reads in the member initialisers: it then registers after that
/// state exists and unregisters before any of it is destroyed.
class MetricsSource {
 public:
  explicit MetricsSource(std::function<void(MetricsSample*)> collect);
  ~MetricsSource();

  MetricsSource(const MetricsSource&) = delete;
  MetricsSource& operator=(const MetricsSource&) = delete;

 private:
  friend class MetricsRegistry;
  const std::function<void(MetricsSample*)> collect_;
};

/// Process-global name -> metric map plus the live sources. Get*() creates
/// on first use and returns a pointer that remains valid (and keeps its
/// identity) for the process lifetime.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  LatencyStat* GetLatency(const std::string& name);

  /// Single JSON object over the registry's own entries and every live
  /// source, same-named values summed (histograms merged):
  ///   {"counters":{name:value,...},
  ///    "gauges":{name:value,...},
  ///    "histograms":{name:{"count":..,"mean_ns":..,"p50_ns":..,
  ///                        "p95_ns":..,"p99_ns":..,"max_ns":..},...}}
  /// Zero-count metrics are included so consumers see a stable schema.
  std::string ToJson() const;

  /// Clears every value of the registry's own entries (folded totals of
  /// destroyed sources included) but keeps all entries, so handed-out
  /// pointers stay valid. Live sources keep their values. Tests only —
  /// production code never resets.
  void ResetForTest();

 private:
  friend class MetricsSource;

  MetricsRegistry() = default;

  void Register(const MetricsSource* source) RNE_EXCLUDES(mu_);
  /// Removes `source` and folds its counters and histograms into the
  /// registry's own entries.
  void Unregister(const MetricsSource* source) RNE_EXCLUDES(mu_);
  Counter* CounterLocked(const std::string& name) RNE_REQUIRES(mu_);
  LatencyStat* LatencyLocked(const std::string& name) RNE_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      RNE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ RNE_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyStat>> latencies_
      RNE_GUARDED_BY(mu_);
  std::vector<const MetricsSource*> sources_ RNE_GUARDED_BY(mu_);
};

/// Appends `v` to `out` in a JSON-safe format (finite -> shortest-ish
/// decimal, non-finite -> 0). Shared by the registry and trace exporters.
void AppendJsonDouble(std::string* out, double v);
/// Appends `s` as a quoted, escaped JSON string.
void AppendJsonString(std::string* out, const std::string& s);

}  // namespace rne::obs

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

#endif  // RNE_OBS_METRICS_H_
