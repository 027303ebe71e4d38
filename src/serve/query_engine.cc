#include "serve/query_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <utility>

#include "obs/trace.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace rne::serve {
namespace {

obs::LatencyStat* BackendLatencyStat(const std::string& name) {
  return obs::MetricsRegistry::Global().GetLatency("serve.backend." + name +
                                                   ".latency_ns");
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"served\": %llu, \"rejected\": %llu, \"failed\": %llu, "
      "\"fell_back_load\": %llu, \"fell_back_deadline\": %llu, "
      "\"fell_back_breaker\": %llu, \"retries\": %llu, "
      "\"fast_fails\": %llu, "
      "\"qps\": %.1f, \"uptime_seconds\": %.3f, \"latency_ns\": "
      "{\"p50\": %.0f, \"p95\": %.0f, \"p99\": %.0f, \"mean\": %.0f, "
      "\"max\": %lld}}",
      static_cast<unsigned long long>(served),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(fell_back_load),
      static_cast<unsigned long long>(fell_back_deadline),
      static_cast<unsigned long long>(fell_back_breaker),
      static_cast<unsigned long long>(retries),
      static_cast<unsigned long long>(fast_fails), qps, uptime_seconds,
      p50_ns, p95_ns, p99_ns, mean_ns, static_cast<long long>(max_ns));
  return buf;
}

QueryEngine::QueryEngine(const EngineOptions& options, ThreadPool* pool)
    : options_(options),
      owned_pool_(pool == nullptr
                      ? std::make_unique<ThreadPool>(options.num_threads)
                      : nullptr),
      pool_(pool == nullptr ? owned_pool_.get() : pool),
      start_(Clock::now()) {}

std::unique_ptr<QueryEngine::BackendSlot> QueryEngine::MakeSlot(
    const std::string& name) {
  auto slot = std::make_unique<BackendSlot>();
  slot->name = name;
  slot->fault_point = "serve.backend." + name;
  slot->latency = BackendLatencyStat(name);
  return slot;
}

void QueryEngine::AddBackend(const std::string& name, BackendContext ctx) {
  ctx.num_workers = pool_->num_threads();
  auto slot = MakeSlot(name);
  auto made = MakeBackend(name, ctx);
  if (made.ok()) {
    slot->backend = std::move(made).value();
    slot->answer_name = InternBackendName(slot->backend->Name());
  } else {
    slot->load_status = made.status();
  }
  MutexLock lock(&chain_mu_);
  chain_.push_back(std::move(slot));
}

void QueryEngine::AddReadyBackend(std::unique_ptr<QueryBackend> backend) {
  auto slot = MakeSlot(backend->Name());
  slot->answer_name = InternBackendName(slot->name);
  slot->backend = std::move(backend);
  MutexLock lock(&chain_mu_);
  chain_.push_back(std::move(slot));
}

Status QueryEngine::WaitUntilLoaded() {
  MutexLock lock(&chain_mu_);
  for (const auto& slot : chain_) {
    if (slot->backend == nullptr) return slot->load_status;
  }
  return Status::Ok();
}

size_t QueryEngine::num_backends() const {
  MutexLock lock(&chain_mu_);
  return chain_.size();
}

void QueryEngine::ResolveChain(std::vector<SlotView>* chain) {
  {
    MutexLock lock(&chain_mu_);
    chain->resize(chain_.size());
    for (size_t i = 0; i < chain_.size(); ++i) {
      (*chain)[i].slot = chain_[i].get();
    }
  }
  // Pinned outside the lock: a slot in the chain never changes, and a
  // managed backend's Pin() takes its manager's lock.
  for (SlotView& view : *chain) {
    if (view.slot->backend == nullptr) continue;
    view.backend = view.slot->backend->Pin();
    view.num_vertices = view.backend->NumVertices();
    view.exact = view.backend->IsExact();
    view.supports_knn = view.backend->SupportsKnn();
  }
}

QueryEngine::SlotView* QueryEngine::ChooseBackend(std::span<SlotView> chain,
                                                  RequestKind kind,
                                                  size_t start,
                                                  bool* skipped_failed,
                                                  size_t* index) {
  for (size_t i = start; i < chain.size(); ++i) {
    SlotView& view = chain[i];
    if (view.backend == nullptr) {
      *skipped_failed = true;
      continue;
    }
    if (kind == RequestKind::kKnn && !view.supports_knn) continue;
    *index = i;
    return &view;
  }
  return nullptr;
}

void QueryEngine::ExecuteChunk(std::span<const Request> requests,
                               std::span<Response> out,
                               Clock::time_point started,
                               Clock::time_point deadline) {
  std::vector<SlotView> chain;
  ResolveChain(&chain);
  const bool bounded = deadline != Clock::time_point::max();
  uint64_t served = 0, failed = 0, fb_load = 0;
  uint64_t retries = 0, fast_fails = 0;
  bool exact_distance = false, learned_distance = false;
  // Per-backend call timing is SAMPLED 1-in-256 dispatches per thread: two
  // clock reads (~50 ns each on a KVM guest) plus a shard-mutex Record
  // would cost more than a ~60 ns learned-backend request if paid every
  // time, and even 1-in-32 adds ~4 ns to one. Sampled, the amortized cost
  // is a counter increment and a branch, and the latency distribution
  // estimate is statistically unchanged under load.
  thread_local uint32_t backend_sample_tick = 0;
  const bool sampling = obs::Enabled();
  uint32_t sample_tick = backend_sample_tick;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    // Reused from the caller's previous batch: reset every answer field in
    // place.
    Response& response = out[i];
    response.status = Status::Ok();
    response.distance = kInfDistance;
    response.knn.clear();
    response.backend = {};
    response.exact = false;
    response.fell_back = false;
    response.cached = false;
    if (bounded && Clock::now() >= deadline) {
      // Deadline burned entirely by queue wait: fail fast without touching
      // any backend — the answer would be useless and the dispatch would
      // only add load while the engine is already behind.
      response.status =
          Status::DeadlineExceeded("deadline expired while queued");
      ++fast_fails;
    } else {
      bool skipped_failed = false;
      size_t next = 0;
      bool attempted = false;
      while (true) {
        size_t index = 0;
        SlotView* view = ChooseBackend(chain, request.kind, next,
                                       &skipped_failed, &index);
        if (view == nullptr) {
          // Out of chain. Keep the last attempt's failure status if there
          // was one — it names the actual error.
          if (!attempted) {
            response.status =
                Status::Unavailable("no backend can serve this request");
          }
          break;
        }
        if (attempted) ++retries;
        const BackendSlot& slot = *view->slot;
        QueryBackend* backend = view->backend.get();
        const size_t n = view->num_vertices;
        const bool needs_t = request.kind == RequestKind::kDistance;
        // n == 0 means the backend cannot vouch for the id space (e.g. a
        // managed slot before its first publish); dispatch anyway and let
        // the failure path walk the chain. The pinned backend answers from
        // the index n was read from, so a checked id stays in range.
        if (n > 0 && (request.s >= n || (needs_t && request.t >= n))) {
          response.status = Status::InvalidArgument(
              "vertex id out of range [0, " + std::to_string(n) + ")");
          break;
        }
        bool attempt_ok = false;
        const bool timed = sampling && (sample_tick++ & 255u) == 0;
        const Clock::time_point backend_start =
            timed ? Clock::now() : Clock::time_point();
        try {
          // The chaos harness's hook: may sleep, throw, or hand back an
          // error Status — all indistinguishable from a sick backend.
          const Status injected =
              fault::MaybeInjectRuntimeFault(slot.fault_point);
          if (!injected.ok()) {
            response.status = injected;
          } else {
            if (request.kind == RequestKind::kDistance) {
              response.distance = backend->Distance(request.s, request.t);
            } else {
              response.knn = backend->Knn(request.s, request.k);
            }
            // Backend-call time only: together with the batch-start-to-
            // completion histogram this splits queue wait from compute.
            if (timed) {
              slot.latency->Record(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - backend_start)
                      .count());
            }
            response.status = Status::Ok();  // clear any prior attempt's error
            response.backend = slot.answer_name;
            response.exact = view->exact;
            if (request.kind == RequestKind::kDistance) {
              (view->exact ? exact_distance : learned_distance) = true;
            }
            // A skipped failed slot, like a failed attempt, lies before
            // `index`.
            response.fell_back = index > 0;
            attempt_ok = true;
          }
        } catch (const std::exception& e) {
          response.status = Status::FailedPrecondition(
              std::string("backend '").append(slot.answer_name) +
              "' threw: " + e.what());
        } catch (...) {
          // A non-std::exception must not escape: it would unwind through
          // the pool's TaskGroup and rethrow from QueryBatch — every
          // per-request failure becomes a Response, never an exception.
          response.status = Status::FailedPrecondition(
              std::string("backend '").append(slot.answer_name) +
              "' threw a non-standard exception");
        }
        if (attempt_ok) {
          if (skipped_failed) ++fb_load;
          break;
        }
        // Retry down the chain while deadline budget remains; the last
        // failure status stands if the budget (or the chain) runs out.
        attempted = true;
        next = index + 1;
        if (bounded && Clock::now() >= deadline) break;
      }
    }
    if (response.status.ok()) {
      ++served;
    } else {
      ++failed;
    }
  }
  backend_sample_tick = sample_tick;
  // One clock read per chunk: no caller sees an answer before its whole
  // chunk (and batch) is done, so that is when every request completes.
  const int64_t latency_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           started)
          .count();
  if ((exact_distance || learned_distance) &&
      exact_distances_.load(std::memory_order_relaxed) != exact_distance) {
    exact_distances_.store(exact_distance, std::memory_order_relaxed);
  }
  latency_.Record(latency_ns, out.size());
  served_.Add(served);
  failed_.Add(failed);
  fell_back_load_.Add(fb_load);
  retries_.Add(retries);
  fast_fails_.Add(fast_fails);
}

Status QueryEngine::QueryBatch(std::span<const Request> requests,
                               std::vector<Response>* out) {
  out->resize(requests.size());
  if (requests.empty()) return Status::Ok();
  const Clock::time_point started = Clock::now();
  const Clock::time_point deadline =
      options_.default_deadline.count() > 0
          ? started + options_.default_deadline
          : Clock::time_point::max();
  const size_t chunk = std::max<size_t>(1, options_.batch_chunk);
  // Requests that cost a search: every kNN request, and every distance
  // request while distance answers come from an exact backend (an exact
  // chain, or a learned primary that is failing).
  const size_t searches =
      exact_distances_.load(std::memory_order_relaxed)
          ? requests.size()
          : static_cast<size_t>(std::count_if(
                requests.begin(), requests.end(), [](const Request& r) {
                  return r.kind == RequestKind::kKnn;
                }));
  if (searches <= chunk) {
    // A learned distance answer costs tens of nanoseconds, so a hand-off
    // to a worker and the wake-up back would cost more than the batch; at
    // most one chunk of searches is not worth splitting either.
    ExecuteChunk(requests, *out, started, deadline);
    return Status::Ok();
  }
  // Fan out by claiming: the caller and up to one helper per pool worker
  // take kClaimBlock-request blocks off one counter until the batch runs
  // out, so the caller searches too and nobody waits on a worker that wakes
  // late (a helper that finds the counter spent returns at once). The
  // counter starts past block 0, which is the caller's before any helper
  // exists. It and the claim loop are declared before the TaskGroup, whose
  // destructor waits for every helper.
  const size_t blocks = (requests.size() + kClaimBlock - 1) / kClaimBlock;
  std::atomic<size_t> next_block{1};
  const auto run_block = [&](size_t block) {
    const size_t begin = block * kClaimBlock;
    const size_t count = std::min(kClaimBlock, requests.size() - begin);
    ExecuteChunk(requests.subspan(begin, count),
                 std::span<Response>(*out).subspan(begin, count), started,
                 deadline);
  };
  const auto claim = [&] {
    for (size_t block = next_block.fetch_add(1, std::memory_order_relaxed);
         block < blocks;
         block = next_block.fetch_add(1, std::memory_order_relaxed)) {
      run_block(block);
    }
  };
  TaskGroup group(pool_);
  const size_t helpers = std::min(pool_->num_threads(), blocks - 1);
  for (size_t i = 0; i < helpers; ++i) group.Submit(claim);
  run_block(0);
  claim();
  group.Wait();
  return Status::Ok();
}

Response QueryEngine::Query(const Request& request) {
  std::vector<Response> out;
  // Discard OK: QueryBatch always returns OK; the answer's own status is in
  // out[0].
  (void)QueryBatch(std::span<const Request>(&request, 1), &out);
  return std::move(out[0]);
}

MetricsSnapshot QueryEngine::Metrics() const {
  MetricsSnapshot snapshot;
  snapshot.uptime_seconds =
      std::chrono::duration<double>(Clock::now() - start_).count();
  snapshot.served = served_.Value();
  snapshot.failed = failed_.Value();
  snapshot.fell_back_load = fell_back_load_.Value();
  snapshot.retries = retries_.Value();
  snapshot.fast_fails = fast_fails_.Value();
  snapshot.qps =
      snapshot.uptime_seconds > 0.0
          ? static_cast<double>(snapshot.served) / snapshot.uptime_seconds
          : 0.0;
  const LatencyHistogram latency = latency_.Snapshot();
  snapshot.p50_ns = latency.PercentileNanos(50.0);
  snapshot.p95_ns = latency.PercentileNanos(95.0);
  snapshot.p99_ns = latency.PercentileNanos(99.0);
  snapshot.mean_ns = latency.MeanNanos();
  snapshot.max_ns = latency.MaxNanos();
  return snapshot;
}

void QueryEngine::CollectMetrics(obs::MetricsSample* out) const {
  out->counters["serve.served"] += served_.Value();
  out->counters["serve.failed"] += failed_.Value();
  out->counters["serve.fallback_load"] += fell_back_load_.Value();
  out->counters["serve.retries"] += retries_.Value();
  out->counters["serve.fast_fails"] += fast_fails_.Value();
  out->histograms["serve.latency_ns"].Merge(latency_.Snapshot());
}

}  // namespace rne::serve
