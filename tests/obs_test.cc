// Observability layer: registry semantics (create-on-first-use, pointer
// stability across ResetForTest, JSON shape), live sources (same names
// summed, folded into the registry on destruction, registering while
// ToJson() renders), multi-threaded counter and histogram recording (also
// exercised under TSan in CI), the runtime enable toggle, and trace spans
// (nesting depth, indexed names, ring overwrite accounting, plain and
// chrome://tracing JSON exports).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace rne::obs {
namespace {

/// A live object with its own counter, gauge and histogram, reported
/// under "<prefix>.count" / ".gauge" / ".hist" as a metrics source.
struct FakeSource {
  explicit FakeSource(std::string name_prefix)
      : prefix(std::move(name_prefix)) {}

  const std::string prefix;
  Counter count;
  Gauge level;
  LatencyStat latency;
  MetricsSource source{[this](MetricsSample* out) {
    out->counters[prefix + ".count"] += count.Value();
    out->gauges[prefix + ".gauge"] += level.Value();
    out->histograms[prefix + ".hist"].Merge(latency.Snapshot());
  }};
};

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Global().ResetForTest();
    ResetTrace();
    SetEnabled(true);
  }
  void TearDown() override { SetEnabled(true); }
};

TEST_F(ObsTest, RegistryCreatesOnFirstUseAndKeepsPointerIdentity) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* c = registry.GetCounter("test.counter");
  ASSERT_NE(c, nullptr);
  c->Add(3);
  EXPECT_EQ(registry.GetCounter("test.counter"), c);
  EXPECT_EQ(c->Value(), 3u);

  registry.ResetForTest();
  // Reset clears the value but never invalidates or replaces the entry —
  // this is what makes the macros' static-local handles safe.
  EXPECT_EQ(registry.GetCounter("test.counter"), c);
  EXPECT_EQ(c->Value(), 0u);

  Gauge* g = registry.GetGauge("test.gauge");
  g->Set(2.5);
  EXPECT_EQ(registry.GetGauge("test.gauge"), g);
  EXPECT_DOUBLE_EQ(g->Value(), 2.5);

  LatencyStat* h = registry.GetLatency("test.hist");
  h->Record(1000);
  EXPECT_EQ(registry.GetLatency("test.hist"), h);
  EXPECT_EQ(h->Snapshot().TotalCount(), 1u);
}

TEST_F(ObsTest, CountersAreExactUnderConcurrency) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.mt.counter");
  LatencyStat* h = MetricsRegistry::Global().GetLatency("test.mt.hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Add(1);
        h->Record(100 * (t + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(h->Snapshot().TotalCount(),
            static_cast<size_t>(kThreads * kPerThread));
}

TEST_F(ObsTest, LatencyStatRecordsWeightedSamples) {
  LatencyStat stat;
  stat.Record(1000, 99);  // a chunk of 99 requests finishing together
  stat.Record(999000);
  stat.Record(5000000, 0);  // no samples: moves nothing, not even the max
  const LatencyHistogram merged = stat.Snapshot();
  EXPECT_EQ(merged.TotalCount(), 100u);
  EXPECT_EQ(merged.MaxNanos(), 999000);
  EXPECT_DOUBLE_EQ(merged.MeanNanos(), (99 * 1000.0 + 999000.0) / 100);
  EXPECT_NEAR(merged.PercentileNanos(50.0), 1000.0, 50.0);
  stat.Reset();
  EXPECT_EQ(stat.Snapshot().TotalCount(), 0u);
}

TEST_F(ObsTest, MacrosRespectRuntimeToggle) {
  Counter* c = MetricsRegistry::Global().GetCounter("test.toggle.count");
  RNE_COUNTER_ADD("test.toggle.count", 2);
  SetEnabled(false);
  RNE_COUNTER_ADD("test.toggle.count", 40);
  RNE_GAUGE_SET("test.toggle.gauge", 7.0);
  RNE_HIST_RECORD("test.toggle.hist", 123);
  SetEnabled(true);
  RNE_COUNTER_ADD("test.toggle.count", 1);
  EXPECT_EQ(c->Value(), 3u);
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::Global().GetGauge("test.toggle.gauge")->Value(), 0.0);
  EXPECT_EQ(
      MetricsRegistry::Global().GetLatency("test.toggle.hist")->Snapshot()
          .TotalCount(),
      0u);
}

TEST_F(ObsTest, ToJsonHasStableSchema) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.json.count")->Add(7);
  registry.GetGauge("test.json.gauge")->Set(1.5);
  registry.GetLatency("test.json.hist")->Record(2000);
  const std::string json = registry.ToJson();
  for (const char* expected :
       {"\"counters\"", "\"gauges\"", "\"histograms\"",
        "\"test.json.count\":7", "\"test.json.gauge\":1.5",
        "\"test.json.hist\"", "\"count\":1", "\"p50_ns\"", "\"p95_ns\"",
        "\"p99_ns\"", "\"mean_ns\"", "\"max_ns\":2000"}) {
    EXPECT_NE(json.find(expected), std::string::npos)
        << expected << " missing from " << json;
  }
}

TEST_F(ObsTest, LiveSourcesWithOneNameAreSummed) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  FakeSource a("test.src");
  FakeSource b("test.src");
  a.count.Add(3);
  b.count.Add(4);
  registry.GetCounter("test.src.count")->Add(10);  // the registry's own
  a.level.Set(1.5);
  b.level.Set(2.0);
  a.latency.Record(1000, 2);
  b.latency.Record(3000);
  const std::string json = registry.ToJson();
  for (const char* expected :
       {"\"test.src.count\":17", "\"test.src.gauge\":3.5",
        "\"test.src.hist\":{\"count\":3", "\"max_ns\":3000"}) {
    EXPECT_NE(json.find(expected), std::string::npos)
        << expected << " missing from " << json;
  }
}

TEST_F(ObsTest, DestroyedSourceFoldsIntoTheRegistry) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  {
    FakeSource gone("test.fold");
    gone.count.Add(5);
    gone.level.Set(9.0);
    gone.latency.Record(2000, 2);
  }
  EXPECT_EQ(registry.GetCounter("test.fold.count")->Value(), 5u);
  EXPECT_EQ(registry.GetLatency("test.fold.hist")->Snapshot().TotalCount(),
            2u);
  // A second source of the same name adds to the folded total.
  FakeSource live("test.fold");
  live.count.Add(1);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"test.fold.count\":6"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.fold.hist\":{\"count\":2"), std::string::npos)
      << json;
  // A gauge is a live object's instantaneous value: it is not folded.
  EXPECT_NE(json.find("\"test.fold.gauge\":0"), std::string::npos) << json;
  // ResetForTest clears folded totals; the live source keeps its count.
  registry.ResetForTest();
  EXPECT_NE(registry.ToJson().find("\"test.fold.count\":1"),
            std::string::npos);
}

TEST_F(ObsTest, ToJsonRacesSourceConstructionAndDestruction) {
  constexpr int kThreads = 3;
  constexpr int kPerThread = 200;
  std::atomic<bool> done{false};
  std::thread reader([&done] {
    while (!done.load()) {
      const std::string json = MetricsRegistry::Global().ToJson();
      EXPECT_EQ(json.rfind("{\"counters\":{", 0), 0u);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        FakeSource source("test.race");
        source.count.Add(1);
        source.latency.Record(100);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("test.race.count")->Value(),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(MetricsRegistry::Global()
                .GetLatency("test.race.hist")
                ->Snapshot()
                .TotalCount(),
            static_cast<size_t>(kThreads * kPerThread));
}

TEST_F(ObsTest, JsonStringEscaping) {
  std::string out;
  AppendJsonString(&out, "a\"b\\c\n\td");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\td\"");
  out.clear();
  AppendJsonDouble(&out, 0.25);
  EXPECT_EQ(out, "0.25");
}

TEST_F(ObsTest, SpansRecordNamesDepthsAndNesting) {
  {
    RNE_SPAN("outer");
    {
      RNE_SPAN("inner.level", 3);
    }
  }
  std::vector<SpanEvent> events;
  EXPECT_EQ(TraceSnapshot(&events), 0u);
  ASSERT_EQ(events.size(), 2u);
  // Inner closes (and records) first.
  EXPECT_STREQ(events[0].name, "inner.level.3");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_GE(events[0].start_ns, events[1].start_ns);
  EXPECT_LE(events[0].dur_ns, events[1].dur_ns);
}

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  SetEnabled(false);
  {
    RNE_SPAN("ghost");
  }
  SetEnabled(true);
  std::vector<SpanEvent> events;
  TraceSnapshot(&events);
  EXPECT_TRUE(events.empty());
}

TEST_F(ObsTest, RingOverwritesOldestAndCountsDrops) {
  const size_t original = TraceRingCapacity();
  SetTraceRingCapacity(4);
  for (size_t i = 0; i < 10; ++i) {
    RNE_SPAN("span.n", i);
  }
  std::vector<SpanEvent> events;
  const uint64_t dropped = TraceSnapshot(&events);
  EXPECT_EQ(events.size(), 4u);
  EXPECT_EQ(dropped, 6u);
  // Oldest-first snapshot of the newest four events.
  EXPECT_STREQ(events.front().name, "span.n.6");
  EXPECT_STREQ(events.back().name, "span.n.9");
  SetTraceRingCapacity(original);
  ResetTrace();
}

TEST_F(ObsTest, TraceJsonShapes) {
  {
    RNE_SPAN("json.span");
  }
  const std::string plain = TraceJson();
  EXPECT_NE(plain.find("\"dropped\":0"), std::string::npos) << plain;
  EXPECT_NE(plain.find("\"name\":\"json.span\""), std::string::npos);
  EXPECT_NE(plain.find("\"dur_ns\""), std::string::npos);

  const std::string chrome = TraceChromeJson();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos) << chrome;
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"json.span\""), std::string::npos);
  EXPECT_NE(chrome.find("\"pid\":1"), std::string::npos);
}

TEST_F(ObsTest, LongSpanNamesAreTruncatedNotOverflowed) {
  const std::string longname(200, 'x');
  {
    SpanGuard guard(longname.c_str());
  }
  std::vector<SpanEvent> events;
  TraceSnapshot(&events);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name), std::string(SpanEvent::kMaxName, 'x'));
}

TEST_F(ObsTest, ConcurrentSpansGetDistinctThreadIds) {
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      RNE_SPAN("mt.span");
    });
  }
  for (auto& t : threads) t.join();
  std::vector<SpanEvent> events;
  TraceSnapshot(&events);
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads));
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].depth, 0);
    EXPECT_STREQ(events[i].name, "mt.span");
    for (size_t j = 0; j < i; ++j) {
      EXPECT_NE(events[i].tid, events[j].tid);
    }
  }
}

}  // namespace
}  // namespace rne::obs
