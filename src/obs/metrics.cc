#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

namespace rne::obs {
namespace {

std::atomic<bool> g_enabled{true};

/// Small dense thread ids (0, 1, 2, ...) for shard selection; std::thread::id
/// hashes unevenly on some platforms.
uint32_t DenseThreadId() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

void LatencyStat::Record(int64_t nanos, uint64_t count) {
  Shard& s = shards_[DenseThreadId() % kShards];
  MutexLock lock(&s.mu);
  s.hist.Record(nanos, count);
}

void LatencyStat::Merge(const LatencyHistogram& hist) {
  Shard& s = shards_[DenseThreadId() % kShards];
  MutexLock lock(&s.mu);
  s.hist.Merge(hist);
}

LatencyHistogram LatencyStat::Snapshot() const {
  LatencyHistogram out;
  for (const Shard& s : shards_) {
    MutexLock lock(&s.mu);
    out.Merge(s.hist);
  }
  return out;
}

void LatencyStat::Reset() {
  for (Shard& s : shards_) {
    MutexLock lock(&s.mu);
    s.hist.Reset();
  }
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

MetricsSource::MetricsSource(std::function<void(MetricsSample*)> collect)
    : collect_(std::move(collect)) {
  MetricsRegistry::Global().Register(this);
}

MetricsSource::~MetricsSource() { MetricsRegistry::Global().Unregister(this); }

void MetricsRegistry::Register(const MetricsSource* source) {
  MutexLock lock(&mu_);
  sources_.push_back(source);
}

void MetricsRegistry::Unregister(const MetricsSource* source) {
  MutexLock lock(&mu_);
  sources_.erase(std::find(sources_.begin(), sources_.end(), source));
  MetricsSample last;
  source->collect_(&last);
  for (const auto& [name, value] : last.counters) {
    CounterLocked(name)->Add(value);
  }
  for (const auto& [name, hist] : last.histograms) {
    LatencyLocked(name)->Merge(hist);
  }
}

Counter* MetricsRegistry::CounterLocked(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

LatencyStat* MetricsRegistry::LatencyLocked(const std::string& name) {
  auto& slot = latencies_[name];
  if (!slot) slot = std::make_unique<LatencyStat>();
  return slot.get();
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  return CounterLocked(name);
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

LatencyStat* MetricsRegistry::GetLatency(const std::string& name) {
  MutexLock lock(&mu_);
  return LatencyLocked(name);
}

void AppendJsonDouble(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("0");
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to a friendlier representation when it round-trips exactly.
  char shorter[40];
  std::snprintf(shorter, sizeof(shorter), "%.6g", v);
  double back = 0.0;
  std::sscanf(shorter, "%lf", &back);
  out->append(back == v ? shorter : buf);
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\r':
        out->append("\\r");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string MetricsRegistry::ToJson() const {
  MetricsSample all;
  {
    MutexLock lock(&mu_);
    for (const auto& [name, c] : counters_) all.counters[name] += c->Value();
    for (const auto& [name, g] : gauges_) all.gauges[name] += g->Value();
    for (const auto& [name, h] : latencies_) {
      all.histograms[name].Merge(h->Snapshot());
    }
    for (const MetricsSource* source : sources_) source->collect_(&all);
  }
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : all.counters) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    char buf[32];
    std::snprintf(buf, sizeof(buf), ":%" PRIu64, value);
    out.append(buf);
  }
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& [name, value] : all.gauges) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    AppendJsonDouble(&out, value);
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& [name, hist] : all.histograms) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    char buf[64];
    std::snprintf(buf, sizeof(buf), ":{\"count\":%zu,\"mean_ns\":",
                  hist.TotalCount());
    out.append(buf);
    AppendJsonDouble(&out, hist.MeanNanos());
    out.append(",\"p50_ns\":");
    AppendJsonDouble(&out, hist.PercentileNanos(50));
    out.append(",\"p95_ns\":");
    AppendJsonDouble(&out, hist.PercentileNanos(95));
    out.append(",\"p99_ns\":");
    AppendJsonDouble(&out, hist.PercentileNanos(99));
    std::snprintf(buf, sizeof(buf), ",\"max_ns\":%" PRId64 "}",
                  hist.MaxNanos());
    out.append(buf);
  }
  out.append("}}");
  return out;
}

void MetricsRegistry::ResetForTest() {
  MutexLock lock(&mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : latencies_) h->Reset();
}

}  // namespace rne::obs
