// Line-protocol fuzzer: arbitrary byte streams through
// serve::LineProtocolHandler::Consume against a real in-memory engine
// (exact Dijkstra on a small generator graph) — the exact seam the TCP
// reactor feeds. The input's own bytes schedule the chunking, so frames
// arrive split and merged every way: mid-verb, mid-number, CR and LF in
// separate reads, oversized unterminated tails, interleaved verbs. A small
// max_line_bytes and batch keep the oversize and batching machinery in
// constant rotation, and Finish() runs at end of stream so the
// partial-line-drop accounting is on the fuzzed path too. A 4-entry,
// 2-shard ResultCache sits in front of the engine, so repeated queries
// drive its batch lookups, inserts, refreshes and evictions.
#include <cstdint>
#include <string>
#include <string_view>

#include "graph/generators.h"
#include "serve/query_engine.h"
#include "serve/result_cache.h"
#include "serve/server_loop.h"

#include "fuzz_target.h"

namespace rne::serve {
namespace {

QueryEngine& FuzzEngine() {
  static QueryEngine* engine = [] {
    RoadNetworkConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.seed = 7;
    static const Graph graph = MakeRoadNetwork(cfg);
    EngineOptions options;
    options.num_threads = 1;
    auto* e = new QueryEngine(options);
    BackendContext ctx;
    ctx.graph = &graph;
    // Built in place rather than through AddBackend, whose loader thread
    // would still be unjoined when the process exits (the engine is never
    // destroyed).
    e->AddReadyBackend(MakeBackend("dijkstra", ctx).value());
    return e;
  }();
  return *engine;
}

void DriveStream(const uint8_t* data, size_t size) {
  ResultCacheOptions cache_options;
  cache_options.capacity = 4;
  cache_options.num_shards = 2;
  ResultCache cache(cache_options);
  ServerLoopOptions options;
  options.batch = 3;           // exercise batching + order-preserving flushes
  options.max_line_bytes = 200;  // reachable oversize limit
  options.cache = &cache;
  LineProtocolHandler handler(FuzzEngine(), options);
  std::string out;
  size_t pos = 0;
  bool open = true;
  while (open && pos < size) {
    // Self-scheduled chunking: the byte at the cut point sizes the next
    // chunk, so mutations reshape frame boundaries as well as content.
    const size_t chunk_len =
        static_cast<size_t>(data[pos] % 23) + 1 > size - pos
            ? size - pos
            : static_cast<size_t>(data[pos] % 23) + 1;
    open = handler.Consume(
        std::string_view(reinterpret_cast<const char*>(data + pos),
                         chunk_len),
        &out);
    pos += chunk_len;
    // Bound the transcript: answers are not the interesting output here.
    if (out.size() > (1u << 20)) out.clear();
  }
  if (open) handler.Finish(&out);
}

}  // namespace
}  // namespace rne::serve

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  rne::serve::DriveStream(data, size);
  return 0;
}
