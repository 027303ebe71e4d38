// Fault injection for the persistence layer and the serving runtime, plus
// file-mutation helpers for the corruption test harness
// (tests/fault_injection_test.cc, tests/chaos_test.cc).
//
// Three halves:
//   1. Process-wide injection points consulted by BinaryWriter, simulating a
//      crash mid-save: fail all writes after N payload bytes (leaving the
//      partial `<path>.tmp` on disk, as a SIGKILL would), or complete the
//      temp file but suppress the final rename (killed between fsync and
//      rename). Disarmed by default; every hook is a single relaxed atomic
//      load on the hot path.
//   2. Seeded *runtime* fault points consulted by the serving dispatch path
//      (QueryEngine calls MaybeInjectRuntimeFault("serve.backend.<name>")
//      right before each backend call): injected latency, injected Status
//      errors, and injected throws, with per-point overrides and a bounded
//      schedule log so a failing chaos run can be replayed and attached to
//      a CI artifact. Decisions derive from splitmix64(seed, ordinal), so a
//      fixed seed yields the same fault sequence.
//   3. Pure helpers to produce corrupted copies of a good index file
//      (truncations, bit flips) and an allocation probe that records the
//      largest single buffer the deserializer tried to allocate, so tests can
//      assert corrupt length fields never trigger huge allocations.
//
// Persistence-point arming (half 1) is not thread-safe; tests arm, run one
// save/load, then Reset(). Runtime points (half 2) ARE thread-safe: chaos
// tests arm/disarm from the driver thread while pool workers serve.
#ifndef RNE_UTIL_FAULT_INJECTION_H_
#define RNE_UTIL_FAULT_INJECTION_H_

#include <chrono>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "util/status.h"

namespace rne::fault {

/// Disarms all injection points (persistence and runtime) and clears the
/// allocation probe and the runtime schedule log.
void Reset();

/// Arms a write fault: once a BinaryWriter has streamed more than `bytes`
/// payload bytes, every subsequent write fails and the partial temp file is
/// left behind (simulating a kill mid-save).
void FailWritesAfter(uint64_t bytes);

/// Arms a crash between fsync and rename: BinaryWriter::Finish() completes
/// the temp file but never renames it over the target.
void CrashBeforeRename();

// --- hooks called by the serialization layer -------------------------------

/// True if a write that would bring the payload to `total_bytes` must fail.
bool WriteShouldFail(uint64_t total_bytes);

/// True if Finish() must skip the rename step.
bool RenameSuppressed();

/// Records an allocation request of `bytes` made while deserializing.
void OnAllocation(uint64_t bytes);

/// Largest single allocation recorded since the last Reset().
uint64_t MaxAllocationObserved();

// --- runtime fault points (serving-path chaos) -----------------------------

/// What a runtime fault point may inject, with independent probabilities.
/// The classes are mutually exclusive per call: one uniform draw lands in
/// the throw, error, or latency band (in that priority order) or in none.
struct RuntimeFaultConfig {
  /// P(throw an exception). Alternates between a std::exception-derived
  /// InjectedThrow and a non-std InjectedChaos payload so both catch paths
  /// in the engine stay exercised.
  double throw_probability = 0.0;
  /// P(return an error Status) — Unavailable or IoError, alternating.
  double error_probability = 0.0;
  /// P(sleep before proceeding), uniform in [latency_min, latency_max].
  double latency_probability = 0.0;
  std::chrono::microseconds latency_min{0};
  std::chrono::microseconds latency_max{0};
};

/// Thrown by MaybeInjectRuntimeFault (std::exception flavor).
class InjectedThrow : public std::exception {
 public:
  const char* what() const noexcept override { return "injected fault"; }
};

/// Thrown by MaybeInjectRuntimeFault (non-std flavor; exercises catch(...)).
struct InjectedChaos {};

/// Arms `config` as the default for every runtime fault point. Replaces any
/// previous default; per-point overrides survive.
void ArmRuntimeFaults(uint64_t seed, const RuntimeFaultConfig& config);

/// Arms `config` for one named point only (e.g. "serve.backend.rne"),
/// overriding the default. The seed is shared with ArmRuntimeFaults (set by
/// whichever armed first).
void ArmRuntimeFaultsAt(const std::string& point,
                        const RuntimeFaultConfig& config);

/// Disarms all runtime fault points (default and overrides). The schedule
/// log is kept until Reset() so post-mortems can still read it.
void DisarmRuntimeFaults();

/// True when any runtime fault point is armed.
bool RuntimeFaultsArmed();

/// The serving-path hook. Returns Ok and does nothing when disarmed (one
/// relaxed atomic load). When armed: may sleep (latency fault, then Ok),
/// may throw InjectedThrow or InjectedChaos, or may return an error Status
/// the caller must treat as a backend failure.
Status MaybeInjectRuntimeFault(const std::string& point);

/// One injected fault, as recorded in the schedule log.
struct RuntimeFaultEvent {
  uint64_t ordinal = 0;     // global decision index (deterministic per seed)
  std::string point;
  char kind = '?';          // 'T' throw, 'E' error, 'L' latency
  uint32_t latency_us = 0;  // latency faults only
};

/// Total faults injected since the last Reset().
uint64_t RuntimeFaultCount();

/// Snapshot of the (bounded) schedule log; oldest events are dropped past
/// the cap, with the drop count reported in the JSON export.
std::vector<RuntimeFaultEvent> RuntimeFaultLog();

/// JSON object: {"seed":..,"injected":..,"dropped":..,"events":[...]} — the
/// artifact a failing chaos CI run uploads.
std::string RuntimeFaultLogJson();

// --- corruption helpers for tests ------------------------------------------

/// Reads a whole file into `out`. Status on I/O failure.
Status ReadFileBytes(const std::string& path, std::vector<uint8_t>* out);

/// Writes `bytes` to `path`, replacing any existing file (plain write — the
/// point is to produce broken files, so no atomic-rename protocol here).
Status WriteFileBytes(const std::string& path,
                      const std::vector<uint8_t>& bytes);

/// Copies the first `length` bytes of `src` to `dst`.
Status TruncateCopy(const std::string& src, const std::string& dst,
                    uint64_t length);

/// Copies `src` to `dst` with bit `bit` (0-7) of byte `byte_index` flipped.
Status FlipBitCopy(const std::string& src, const std::string& dst,
                   uint64_t byte_index, int bit);

/// Truncation lengths to sweep for a file of `file_size` bytes: every prefix
/// of the first 64 bytes (header + first length fields), every `stride`-th
/// byte after that, and each of the last 16 byte positions (trailer region).
/// Sorted, deduplicated, all strictly less than `file_size`.
std::vector<uint64_t> TruncationSweep(uint64_t file_size, uint64_t stride);

}  // namespace rne::fault

#endif  // RNE_UTIL_FAULT_INJECTION_H_
