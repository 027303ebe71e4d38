// Read-only memory-mapped files and mmap-backed envelope serving.
//
// This header is the single audited home for the raw mmap/munmap/madvise
// syscalls (enforced by the `raw-mmap` lint rule): everything else in the
// tree works through MmapFile's RAII wrapper or MappedEnvelope's verified
// view of an index file.
//
// MappedEnvelope is the zero-copy load path: it maps an index file, runs
// the same structural validation as BinaryReader (header, section table,
// metadata checksum, exact file length), and then verifies section data
// checksums either eagerly (LoadMode::kMmap) or on first access
// (LoadMode::kMmapCold, for sections flagged kSectionFlagLazyVerify).
// Because the open-time validation pins every section extent inside the
// real file length, later zero-copy accesses can never run off the end of
// the mapping — a truncated file fails at open with Status::Corruption
// instead of SIGBUS at query time.
#ifndef RNE_UTIL_MMAP_FILE_H_
#define RNE_UTIL_MMAP_FILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "util/serialize.h"
#include "util/status.h"

namespace rne {

/// Thrown by hot query paths that discover deferred section corruption
/// (cold-map lazy verification) and have no Status channel to report it.
/// The serving layer converts in-flight exceptions into backend errors, so
/// a corrupt cold map degrades to fallback answers instead of crashing.
class CorruptionError : public std::runtime_error {
 public:
  explicit CorruptionError(const std::string& what)
      : std::runtime_error(what) {}
};

/// RAII read-only mapping of a whole file.
class MmapFile {
 public:
  enum class Advice { kNormal, kSequential, kRandom, kWillNeed, kDontNeed };

  static StatusOr<std::shared_ptr<MmapFile>> Map(const std::string& path);
  ~MmapFile();

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const uint8_t* data() const { return data_; }
  uint64_t size() const { return size_; }

  /// Best-effort madvise over the whole mapping (or a byte range; offsets
  /// are rounded out to page boundaries). Failures are ignored — advice is
  /// a hint, never a correctness dependency.
  void Advise(Advice advice) const;
  void AdviseRange(uint64_t offset, uint64_t length, Advice advice) const;

 private:
  MmapFile(uint8_t* data, uint64_t size) : data_(data), size_(size) {}

  uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
};

/// An index file served from a read-only mapping, with checksum state.
class MappedEnvelope {
 public:
  /// Maps `path` and validates it exactly as BinaryReader would: header,
  /// section table structure, metadata payload checksum. Section data
  /// checksums are verified now (kMmap) or deferred to first access for
  /// sections flagged lazy-verify (kMmapCold).
  static StatusOr<std::shared_ptr<const MappedEnvelope>> Open(
      const std::string& path, uint32_t index_magic, LoadMode mode);

  const EnvelopeInfo& info() const { return info_; }
  const std::string& path() const { return path_; }
  const MmapFile& file() const { return *file_; }

  const SectionInfo* FindSection(uint32_t tag) const;
  /// Pointer to a section's data inside the mapping (valid for the life of
  /// this object), or nullptr if the tag is absent.
  const uint8_t* SectionData(uint32_t tag) const;

  /// Verifies every not-yet-verified section checksum; memoized, safe to
  /// call concurrently. Returns the first Corruption found (sticky).
  Status EnsureAllVerified() const;
  /// Exception form for hot query paths; no-op once verification passed.
  void EnsureAllVerifiedOrThrow() const;

 private:
  struct VerifyState {
    std::once_flag once;
    Status status;
  };

  MappedEnvelope() = default;
  Status VerifySection(size_t i) const;

  std::shared_ptr<MmapFile> file_;
  std::string path_;
  EnvelopeInfo info_;
  mutable std::unique_ptr<VerifyState[]> verify_;
  mutable std::atomic<bool> all_verified_{false};
};

}  // namespace rne

#endif  // RNE_UTIL_MMAP_FILE_H_
