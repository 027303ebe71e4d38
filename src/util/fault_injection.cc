#include "util/fault_injection.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>

#include "util/annotations.h"

namespace rne::fault {
namespace {

std::atomic<bool> g_fail_writes_armed{false};
std::atomic<uint64_t> g_fail_writes_after{0};
std::atomic<bool> g_crash_before_rename{false};
std::atomic<uint64_t> g_max_allocation{0};

// --- runtime fault state ---------------------------------------------------

/// Fast-path gate: MaybeInjectRuntimeFault is on the serving hot path, so a
/// disarmed process pays one relaxed load and returns.
std::atomic<bool> g_runtime_armed{false};
/// Global decision ordinal; combined with the seed it makes every decision
/// a pure function of (seed, ordinal), independent of thread interleaving.
std::atomic<uint64_t> g_runtime_ordinal{0};
std::atomic<uint64_t> g_runtime_injected{0};

constexpr size_t kFaultLogCap = 65536;

// One injected fault, as recorded in the schedule log.
struct RuntimeFaultEvent {
  uint64_t ordinal = 0;     // global decision index (deterministic per seed)
  std::string point;
  char kind = '?';          // 'T' throw, 'E' error, 'L' latency
  uint32_t latency_us = 0;  // latency faults only
};

struct RuntimeFaultState {
  Mutex mu;
  uint64_t seed RNE_GUARDED_BY(mu) = 0;
  bool seed_set RNE_GUARDED_BY(mu) = false;
  bool default_armed RNE_GUARDED_BY(mu) = false;
  RuntimeFaultConfig default_config RNE_GUARDED_BY(mu);
  std::map<std::string, RuntimeFaultConfig> overrides RNE_GUARDED_BY(mu);
  std::vector<RuntimeFaultEvent> log RNE_GUARDED_BY(mu);
  uint64_t dropped RNE_GUARDED_BY(mu) = 0;
};

RuntimeFaultState& RuntimeState() {
  static RuntimeFaultState* state = new RuntimeFaultState();
  return *state;
}

/// splitmix64 finalizer: stateless hash of (seed, ordinal) — deterministic
/// and thread-safe without a shared engine (raw std engines are banned by
/// the raw-random lint rule anyway).
uint64_t MixRandom(uint64_t seed, uint64_t ordinal) {
  uint64_t z = seed + ordinal * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double UnitFromBits(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

void LogEvent(RuntimeFaultEvent event) {
  RuntimeFaultState& state = RuntimeState();
  MutexLock lock(&state.mu);
  if (state.log.size() >= kFaultLogCap) {
    ++state.dropped;
    return;
  }
  state.log.push_back(std::move(event));
}

}  // namespace

void Reset() {
  g_fail_writes_armed.store(false, std::memory_order_relaxed);
  g_fail_writes_after.store(0, std::memory_order_relaxed);
  g_crash_before_rename.store(false, std::memory_order_relaxed);
  g_max_allocation.store(0, std::memory_order_relaxed);
  DisarmRuntimeFaults();
  RuntimeFaultState& state = RuntimeState();
  MutexLock lock(&state.mu);
  state.seed = 0;
  state.seed_set = false;
  state.log.clear();
  state.dropped = 0;
  g_runtime_ordinal.store(0, std::memory_order_relaxed);
  g_runtime_injected.store(0, std::memory_order_relaxed);
}

void FailWritesAfter(uint64_t bytes) {
  g_fail_writes_after.store(bytes, std::memory_order_relaxed);
  g_fail_writes_armed.store(true, std::memory_order_relaxed);
}

void CrashBeforeRename() {
  g_crash_before_rename.store(true, std::memory_order_relaxed);
}

bool WriteShouldFail(uint64_t total_bytes) {
  return g_fail_writes_armed.load(std::memory_order_relaxed) &&
         total_bytes > g_fail_writes_after.load(std::memory_order_relaxed);
}

bool RenameSuppressed() {
  return g_crash_before_rename.load(std::memory_order_relaxed);
}

void OnAllocation(uint64_t bytes) {
  uint64_t seen = g_max_allocation.load(std::memory_order_relaxed);
  while (bytes > seen &&
         !g_max_allocation.compare_exchange_weak(seen, bytes,
                                                 std::memory_order_relaxed)) {
  }
}

uint64_t MaxAllocationObserved() {
  return g_max_allocation.load(std::memory_order_relaxed);
}

void ArmRuntimeFaults(uint64_t seed, const RuntimeFaultConfig& config) {
  RuntimeFaultState& state = RuntimeState();
  {
    MutexLock lock(&state.mu);
    if (!state.seed_set) {
      state.seed = seed;
      state.seed_set = true;
    }
    state.default_config = config;
    state.default_armed = true;
  }
  g_runtime_armed.store(true, std::memory_order_release);
}

void ArmRuntimeFaultsAt(const std::string& point,
                        const RuntimeFaultConfig& config) {
  RuntimeFaultState& state = RuntimeState();
  {
    MutexLock lock(&state.mu);
    if (!state.seed_set) {
      state.seed = 1;
      state.seed_set = true;
    }
    state.overrides[point] = config;
  }
  g_runtime_armed.store(true, std::memory_order_release);
}

void DisarmRuntimeFaults() {
  g_runtime_armed.store(false, std::memory_order_release);
  RuntimeFaultState& state = RuntimeState();
  MutexLock lock(&state.mu);
  state.default_armed = false;
  state.overrides.clear();
}

Status MaybeInjectRuntimeFault(const std::string& point) {
  if (!g_runtime_armed.load(std::memory_order_acquire)) return Status::Ok();
  RuntimeFaultConfig config;
  uint64_t seed = 0;
  {
    RuntimeFaultState& state = RuntimeState();
    MutexLock lock(&state.mu);
    const auto it = state.overrides.find(point);
    if (it != state.overrides.end()) {
      config = it->second;
    } else if (state.default_armed) {
      config = state.default_config;
    } else {
      return Status::Ok();  // armed for other points only
    }
    seed = state.seed;
  }
  const uint64_t ordinal =
      g_runtime_ordinal.fetch_add(1, std::memory_order_relaxed);
  const uint64_t bits = MixRandom(seed, ordinal);
  const double u = UnitFromBits(bits);
  // One draw, banded by priority: throw | error | latency | none.
  if (u < config.throw_probability) {
    g_runtime_injected.fetch_add(1, std::memory_order_relaxed);
    LogEvent({ordinal, point, 'T', 0});
    if ((bits & 1u) != 0) throw InjectedThrow();
    throw InjectedChaos();
  }
  if (u < config.throw_probability + config.error_probability) {
    g_runtime_injected.fetch_add(1, std::memory_order_relaxed);
    LogEvent({ordinal, point, 'E', 0});
    return (bits & 1u) != 0
               ? Status::Unavailable("injected fault at " + point)
               : Status::IoError("injected fault at " + point);
  }
  if (u < config.throw_probability + config.error_probability +
              config.latency_probability) {
    const auto span_us = static_cast<uint64_t>(
        std::max<int64_t>(0, (config.latency_max - config.latency_min)
                                 .count()));
    // Second independent draw for the latency magnitude.
    const uint64_t amount =
        span_us == 0 ? 0 : MixRandom(seed ^ 0xc0ffee, ordinal) % (span_us + 1);
    const auto delay =
        config.latency_min + std::chrono::microseconds(amount);
    g_runtime_injected.fetch_add(1, std::memory_order_relaxed);
    LogEvent({ordinal, point, 'L',
              static_cast<uint32_t>(
                  std::chrono::duration_cast<std::chrono::microseconds>(delay)
                      .count())});
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
  }
  return Status::Ok();
}

uint64_t RuntimeFaultCount() {
  return g_runtime_injected.load(std::memory_order_relaxed);
}

std::string RuntimeFaultLogJson() {
  RuntimeFaultState& state = RuntimeState();
  MutexLock lock(&state.mu);
  std::string out = "{\"seed\": " + std::to_string(state.seed) +
                    ", \"injected\": " +
                    std::to_string(RuntimeFaultCount()) +
                    ", \"dropped\": " + std::to_string(state.dropped) +
                    ", \"events\": [";
  for (size_t i = 0; i < state.log.size(); ++i) {
    const RuntimeFaultEvent& e = state.log[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ordinal\": %llu, \"point\": \"%s\", \"kind\": "
                  "\"%c\", \"latency_us\": %u}",
                  i == 0 ? "" : ", ",
                  static_cast<unsigned long long>(e.ordinal),
                  e.point.c_str(), e.kind, e.latency_us);
    out += buf;
  }
  out += "]}";
  return out;
}

Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open " + path);
  const std::streamoff size = in.tellg();
  in.seekg(0);
  out->resize(static_cast<size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(out->data()), size);
  }
  if (!in) return Status::IoError("short read from " + path);
  return Status::Ok();
}

Status WriteFileBytes(const std::string& path,
                      const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path);
  if (!bytes.empty()) {
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  out.flush();
  if (!out) return Status::IoError("write failed for " + path);
  return Status::Ok();
}

Status TruncateCopy(const std::string& src, const std::string& dst,
                    uint64_t length) {
  std::vector<uint8_t> bytes;
  RNE_RETURN_IF_ERROR(ReadFileBytes(src, &bytes));
  if (length > bytes.size()) {
    return Status::InvalidArgument("truncation length exceeds file size");
  }
  bytes.resize(static_cast<size_t>(length));
  return WriteFileBytes(dst, bytes);
}

Status FlipBitCopy(const std::string& src, const std::string& dst,
                   uint64_t byte_index, int bit) {
  std::vector<uint8_t> bytes;
  RNE_RETURN_IF_ERROR(ReadFileBytes(src, &bytes));
  if (byte_index >= bytes.size() || bit < 0 || bit > 7) {
    return Status::InvalidArgument("flip position out of range");
  }
  bytes[static_cast<size_t>(byte_index)] ^= static_cast<uint8_t>(1u << bit);
  return WriteFileBytes(dst, bytes);
}

std::vector<uint64_t> TruncationSweep(uint64_t file_size, uint64_t stride) {
  std::vector<uint64_t> lengths;
  for (uint64_t i = 0; i < std::min<uint64_t>(64, file_size); ++i) {
    lengths.push_back(i);
  }
  if (stride > 0) {
    for (uint64_t i = 64; i < file_size; i += stride) lengths.push_back(i);
  }
  for (uint64_t i = file_size > 16 ? file_size - 16 : 0; i < file_size; ++i) {
    lengths.push_back(i);
  }
  std::sort(lengths.begin(), lengths.end());
  lengths.erase(std::unique(lengths.begin(), lengths.end()), lengths.end());
  return lengths;
}

}  // namespace rne::fault
