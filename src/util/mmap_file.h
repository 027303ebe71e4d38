// Read-only memory-mapped files and mmap-backed envelope serving.
//
// This header is the single audited home for the raw mmap/munmap/madvise
// syscalls (enforced by the `raw-mmap` lint rule): everything else in the
// tree works through MmapFile's RAII wrapper or MappedEnvelope's verified
// view of an index file.
//
// MappedEnvelope is the zero-copy load path: it maps an index file, runs
// the same structural validation as BinaryReader (header, section table,
// metadata checksum, exact file length), and then verifies every section
// data checksum before Open returns, so a mapped model is a verified model.
// Because the open-time validation pins every section extent inside the
// real file length, later zero-copy accesses can never run off the end of
// the mapping — a truncated file fails at open with Status::Corruption
// instead of SIGBUS at query time.
#ifndef RNE_UTIL_MMAP_FILE_H_
#define RNE_UTIL_MMAP_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "util/serialize.h"
#include "util/status.h"

namespace rne {

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

/// An index file served from a read-only mapping.
class MappedEnvelope {
 public:
  /// Maps `path` and validates it exactly as BinaryReader would: header,
  /// section table structure, metadata payload checksum and every section
  /// data checksum.
  static StatusOr<std::shared_ptr<const MappedEnvelope>> Open(
      const std::string& path, uint32_t index_magic);

  const EnvelopeInfo& info() const { return info_; }
  const MmapFile& file() const { return *file_; }

  const SectionInfo* FindSection(uint32_t tag) const;
  /// Pointer to a section's data inside the mapping (valid for the life of
  /// this object), or nullptr if the tag is absent.
  const uint8_t* SectionData(uint32_t tag) const;

 private:
  MappedEnvelope() = default;

  std::shared_ptr<MmapFile> file_;
  EnvelopeInfo info_;
};

}  // namespace rne

#endif  // RNE_UTIL_MMAP_FILE_H_
