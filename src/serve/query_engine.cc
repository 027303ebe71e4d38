#include "serve/query_engine.h"

#include <algorithm>
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

QueryEngine::~QueryEngine() {
  std::vector<std::thread> loaders;
  {
    MutexLock lock(&chain_mu_);
    loaders.swap(loaders_);
  }
  for (auto& t : loaders) t.join();
}

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
  BackendSlot* raw = slot.get();
  MutexLock lock(&chain_mu_);
  chain_.push_back(std::move(slot));
  // Loads run on dedicated threads, never on the serving pool: a query task
  // blocked on a loading backend must not be able to starve the load itself.
  loaders_.emplace_back([this, raw, name, ctx] {
    auto result = MakeBackend(name, ctx);
    {
      MutexLock inner(&chain_mu_);
      if (result.ok()) {
        raw->backend = std::move(result).value();
        raw->state = SlotState::kReady;
      } else {
        raw->load_status = result.status();
        raw->state = SlotState::kFailed;
      }
    }
    chain_changed_.NotifyAll();
  });
}

void QueryEngine::AddReadyBackend(std::unique_ptr<QueryBackend> backend) {
  auto slot = MakeSlot(backend->Name());
  slot->backend = std::move(backend);
  slot->state = SlotState::kReady;
  {
    MutexLock lock(&chain_mu_);
    chain_.push_back(std::move(slot));
  }
  chain_changed_.NotifyAll();
}

bool QueryEngine::AnyBackendLoading() const {
  for (const auto& slot : chain_) {
    if (slot->state == SlotState::kLoading) return true;
  }
  return false;
}

Status QueryEngine::WaitUntilLoaded() {
  MutexLock lock(&chain_mu_);
  while (AnyBackendLoading()) chain_changed_.Wait(&lock);
  for (const auto& slot : chain_) {
    if (slot->state == SlotState::kFailed) return slot->load_status;
  }
  return Status::Ok();
}

size_t QueryEngine::num_backends() const {
  MutexLock lock(&chain_mu_);
  return chain_.size();
}

QueryEngine::BackendSlot* QueryEngine::ChooseBackend(
    RequestKind kind, Clock::time_point deadline, size_t start,
    FallbackFlags* flags, size_t* index) {
  const bool bounded = deadline != Clock::time_point::max();
  MutexLock lock(&chain_mu_);
  for (size_t i = start; i < chain_.size(); ++i) {
    BackendSlot& slot = *chain_[i];
    // A still-loading backend is worth waiting for only until the request's
    // deadline; past it, the request falls down the chain (learned ->
    // exact) instead of stalling.
    while (slot.state == SlotState::kLoading) {
      if (!bounded) {
        chain_changed_.Wait(&lock);
      } else if (chain_changed_.WaitUntil(&lock, deadline) ==
                     std::cv_status::timeout &&
                 slot.state == SlotState::kLoading) {
        break;
      }
    }
    if (slot.state == SlotState::kLoading) {
      flags->any = true;
      flags->deadline = true;
      continue;
    }
    if (slot.state == SlotState::kFailed) {
      flags->any = true;
      flags->load = true;
      continue;
    }
    if (kind == RequestKind::kKnn && !slot.backend->SupportsKnn()) continue;
    *index = i;
    return &slot;
  }
  return nullptr;
}

void QueryEngine::ExecuteChunk(std::span<const Request> requests,
                               std::span<Response> out,
                               Clock::time_point admitted,
                               Clock::time_point deadline_default) {
  LatencyHistogram local_latency;
  uint64_t served = 0, failed = 0, fb_load = 0, fb_deadline = 0;
  uint64_t retries = 0, fast_fails = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    Clock::time_point deadline = deadline_default;
    if (request.deadline.count() > 0) deadline = admitted + request.deadline;
    const bool bounded = deadline != Clock::time_point::max();
    Response response;
    if (bounded && Clock::now() >= deadline) {
      // Deadline burned entirely by queue wait: fail fast without touching
      // any backend — the answer would be useless and the dispatch would
      // only add load while the engine is already behind.
      response.status =
          Status::DeadlineExceeded("deadline expired while queued");
      ++fast_fails;
    } else {
      FallbackFlags flags;
      size_t next = 0;
      bool attempted = false;
      while (true) {
        size_t index = 0;
        BackendSlot* slot =
            ChooseBackend(request.kind, deadline, next, &flags, &index);
        if (slot == nullptr) {
          // Out of chain. Keep the last attempt's failure status if there
          // was one — it names the actual error.
          if (!attempted) {
            response.status =
                flags.deadline
                    ? Status::DeadlineExceeded(
                          "deadline expired before any backend became ready")
                    : Status::Unavailable(
                          "no backend can serve this request");
          }
          break;
        }
        if (attempted) ++retries;
        QueryBackend* backend = slot->backend.get();
        const size_t n = backend->NumVertices();
        const bool needs_t = request.kind == RequestKind::kDistance;
        // n == 0 means the backend cannot vouch for the id space (e.g. a
        // managed slot before its first publish); dispatch anyway and let
        // the failure path walk the chain.
        if (n > 0 && (request.s >= n || (needs_t && request.t >= n))) {
          response.status = Status::InvalidArgument(
              "vertex id out of range [0, " + std::to_string(n) + ")");
          break;
        }
        bool attempt_ok = false;
#if !defined(RNE_OBS_DISABLED)
        // Per-backend call timing is SAMPLED 1-in-32: two clock reads plus
        // a shard-mutex Record would cost ~25% of a fast learned-backend
        // query if paid every time; sampled, the amortized cost is a
        // thread-local increment and a branch (<1%), and the latency
        // distribution estimate is statistically unchanged under load.
        thread_local uint32_t backend_sample_tick = 0;
        const bool timed =
            obs::Enabled() && (backend_sample_tick++ & 31u) == 0;
        const Clock::time_point backend_start =
            timed ? Clock::now() : Clock::time_point();
#endif
        try {
          // The chaos harness's hook: may sleep, throw, or hand back an
          // error Status — all indistinguishable from a sick backend.
          const Status injected =
              fault::MaybeInjectRuntimeFault(slot->fault_point);
          if (!injected.ok()) {
            response.status = injected;
          } else {
            if (request.kind == RequestKind::kDistance) {
              response.distance = backend->Distance(request.s, request.t);
            } else {
              response.knn = backend->Knn(request.s, request.k);
            }
#if !defined(RNE_OBS_DISABLED)
            // Backend-call time only: together with the admission-to-
            // completion histogram this splits queue wait from compute.
            if (timed) {
              slot->latency->Record(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - backend_start)
                      .count());
            }
#endif
            response.status = Status::Ok();  // clear any prior attempt's error
            response.backend = backend->Name();
            response.exact = backend->IsExact();
            response.fell_back = flags.any || index > 0;
            attempt_ok = true;
          }
        } catch (const std::exception& e) {
          response.status = Status::FailedPrecondition(
              std::string("backend '") + backend->Name() + "' threw: " +
              e.what());
        } catch (...) {
          // A non-std::exception must not escape: it would unwind through
          // the pool's TaskGroup, rethrow from QueryBatch, and skip the
          // admission release — every per-request failure becomes a
          // Response, never an exception.
          response.status = Status::FailedPrecondition(
              std::string("backend '") + backend->Name() +
              "' threw a non-standard exception");
        }
        if (attempt_ok) {
          if (flags.load) ++fb_load;
          if (flags.deadline) ++fb_deadline;
          break;
        }
        // Retry down the chain while deadline budget remains; the last
        // failure status stands if the budget (or the chain) runs out.
        attempted = true;
        next = index + 1;
        if (bounded && Clock::now() >= deadline) break;
      }
    }
    response.latency_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             admitted)
            .count();
    if (response.status.ok()) {
      ++served;
    } else {
      ++failed;
    }
    local_latency.Record(response.latency_ns);
    out[i] = std::move(response);
  }
  {
    MutexLock lock(&metrics_mu_);
    latency_.Merge(local_latency);
  }
  served_.Add(served);
  failed_.Add(failed);
  fell_back_load_.Add(fb_load);
  fell_back_deadline_.Add(fb_deadline);
  retries_.Add(retries);
  fast_fails_.Add(fast_fails);
  // Process-global aggregates (across all engines) for the METRICS verb.
  RNE_COUNTER_ADD("serve.served", served);
  RNE_COUNTER_ADD("serve.failed", failed);
  RNE_COUNTER_ADD("serve.fallback_load", fb_load);
  RNE_COUNTER_ADD("serve.fallback_deadline", fb_deadline);
  RNE_COUNTER_ADD("serve.retries", retries);
  RNE_COUNTER_ADD("serve.fast_fails", fast_fails);
  RNE_HIST_RECORD_MERGE("serve.latency_ns", local_latency);
}

Status QueryEngine::QueryBatch(std::span<const Request> requests,
                               std::vector<Response>* out) {
  out->clear();
  out->resize(requests.size());
  if (requests.empty()) return Status::Ok();
  const Clock::time_point admitted = Clock::now();
  {
    MutexLock lock(&admission_mu_);
    if (outstanding_ + requests.size() > options_.queue_capacity) {
      rejected_.Add(requests.size());
      RNE_COUNTER_ADD("serve.rejected", requests.size());
      return Status::Unavailable(
          "admission queue full: " + std::to_string(outstanding_) + " + " +
          std::to_string(requests.size()) + " > capacity " +
          std::to_string(options_.queue_capacity));
    }
    outstanding_ += requests.size();
  }
  // Admitted count must be released on EVERY exit path. Before this guard a
  // chunk task that threw past ExecuteChunk (rethrown from TaskGroup::Wait)
  // skipped the decrement, permanently shrinking admission capacity until
  // the engine rejected all traffic.
  struct AdmissionRelease {
    QueryEngine* engine;
    size_t count;
    ~AdmissionRelease() {
      MutexLock lock(&engine->admission_mu_);
      engine->outstanding_ -= count;
    }
  } release{this, requests.size()};
  const Clock::time_point deadline_default =
      options_.default_deadline.count() > 0
          ? admitted + options_.default_deadline
          : Clock::time_point::max();
  const size_t chunk = std::max<size_t>(1, options_.batch_chunk);
  if (requests.size() <= chunk) {
    // One chunk: handing it to a worker and blocking on it would only add
    // two thread wake-ups.
    ExecuteChunk(requests, *out, admitted, deadline_default);
    return Status::Ok();
  }
  {
    TaskGroup group(pool_);
    for (size_t begin = 0; begin < requests.size(); begin += chunk) {
      const size_t end = std::min(requests.size(), begin + chunk);
      group.Submit([this, requests, out, begin, end, admitted,
                    deadline_default] {
        ExecuteChunk(requests.subspan(begin, end - begin),
                     std::span<Response>(*out).subspan(begin, end - begin),
                     admitted, deadline_default);
      });
    }
    group.Wait();
  }
  return Status::Ok();
}

Response QueryEngine::Query(const Request& request) {
  std::vector<Response> out;
  const Status admitted = QueryBatch(std::span<const Request>(&request, 1),
                                     &out);
  if (!admitted.ok()) {
    Response response;
    response.status = admitted;
    return response;
  }
  return std::move(out[0]);
}

MetricsSnapshot QueryEngine::Metrics() const {
  MetricsSnapshot snapshot;
  snapshot.uptime_seconds =
      std::chrono::duration<double>(Clock::now() - start_).count();
  snapshot.served = served_.Value();
  snapshot.rejected = rejected_.Value();
  snapshot.failed = failed_.Value();
  snapshot.fell_back_load = fell_back_load_.Value();
  snapshot.fell_back_deadline = fell_back_deadline_.Value();
  snapshot.retries = retries_.Value();
  snapshot.fast_fails = fast_fails_.Value();
  snapshot.qps =
      snapshot.uptime_seconds > 0.0
          ? static_cast<double>(snapshot.served) / snapshot.uptime_seconds
          : 0.0;
  MutexLock lock(&metrics_mu_);
  snapshot.p50_ns = latency_.PercentileNanos(50.0);
  snapshot.p95_ns = latency_.PercentileNanos(95.0);
  snapshot.p99_ns = latency_.PercentileNanos(99.0);
  snapshot.mean_ns = latency_.MeanNanos();
  snapshot.max_ns = latency_.MaxNanos();
  return snapshot;
}

}  // namespace rne::serve
