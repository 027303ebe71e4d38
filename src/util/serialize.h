// Binary (de)serialization with a crash-safe, corruption-resistant envelope.
//
// Every persisted index file is wrapped in one versioned envelope layout:
//
//   offset  0  uint32  envelope magic "RNEV" (shared by all index kinds)
//   offset  4  uint32  format version (2; any other value is rejected)
//   offset  8  uint32  index-kind magic (which Load may parse the payload)
//   offset 12  uint32  flags (reserved, 0)
//   offset 16  uint64  metadata payload size in bytes
//   offset 24  uint32  CRC32C of header bytes [0, 24)
//   offset 28  uint32  section count (0 for index kinds without sections)
//   offset 32  count × 32-byte section entries:
//                {u32 tag, u32 flags, u64 offset, u64 size, u32 crc, u32 0}
//   ...        uint32  CRC32C of the section table (count + entries)
//   ...        metadata payload (`payload size` bytes): little-endian PODs,
//              length-prefixed vectors/strings
//   ...        uint32  CRC32C of the metadata payload
//   ...        per section, in table order: zero padding up to the entry's
//              aligned `offset`, then `size` raw data bytes
//
// Each section entry's CRC covers the padding bytes *and* the data, and the
// reader requires the file to end exactly at the last section's end (or the
// payload CRC when there are no sections), so every byte of a file is
// covered by some checksum and any truncation is structurally detectable
// before a single section byte is touched — this is what makes the layout
// safe to serve via mmap (no SIGBUS on a short file, no silently corrupt gap
// bytes). Section data starts on an aligned offset (kSectionAlignment or a
// caller-chosen larger power of two) so matrices can be addressed in place
// with naturally aligned rows.
//
// Saves are atomic: BinaryWriter streams into `<path>.tmp`, patches the
// header, fsyncs, then rename(2)s over `path` — a reader never observes a
// partial file. BinaryReader validates the header against the actual file
// size before parsing a single payload byte, bounds every vector length by
// the bytes remaining in the payload (a flipped length bit fails fast
// instead of triggering a multi-gigabyte allocation), and Finish() verifies
// the payload CRC. Any mismatch yields Status::Corruption; a missing file is
// Status::NotFound.
#ifndef RNE_UTIL_SERIALIZE_H_
#define RNE_UTIL_SERIALIZE_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace rne {

/// First four bytes of every envelope file ("RNEV" little-endian).
inline constexpr uint32_t kEnvelopeMagic = 0x56454e52;
/// The one envelope format version this build writes and reads.
inline constexpr uint32_t kFormatVersion = 2;
inline constexpr size_t kEnvelopeHeaderSize = 28;
inline constexpr size_t kEnvelopeTrailerSize = 4;
/// Minimum (and default) alignment of section data offsets.
inline constexpr uint64_t kSectionAlignment = 64;
/// Largest alignment a section may request; bounds the pad run a reader
/// will accept between consecutive sections.
inline constexpr uint64_t kMaxSectionAlignment = 1ull << 20;
/// On-disk size of one section-table entry.
inline constexpr size_t kSectionEntrySize = 32;

// Registered index-kind magics (the third header field). Keep unique.
// The model is the only persisted artefact: the exact comparators build
// from the graph in process.
inline constexpr uint32_t kRneMagic = 0x524e4531;    // "RNE1" RNE model
inline constexpr uint32_t kQuantMagic = 0x524e5138;  // "RNQ8" quantized RNE
// Retired, never to be reused: 0x524e4348 "RNCH" (CH), 0x524e4832 "RNH2"
// (H2H), 0x524e414c "RNAL" (ALT), 0x524e4754 "RNGT" (G-tree) and
// 0x524e4548 "RNEH" (standalone partition hierarchy) index kinds, and the
// G-tree matrix-pool section tag 0x04. Old files of those kinds are
// rejected as unknown kinds.

// Registered section tags. Unique across index kinds so a section can be
// identified without knowing which loader wrote it.
inline constexpr uint32_t kSecRneVertexEmb = 0x01;
inline constexpr uint32_t kSecRneNodeEmb = 0x02;
inline constexpr uint32_t kSecQuantCodes = 0x03;

// Section flags. Retired: 0x1, the lazy-verify bit of the deleted cold
// mapped load; writers no longer set it, readers accept and ignore it.
inline constexpr uint32_t kSectionFlagRetiredLazyVerify = 0x1;

/// Human-readable name for a registered index-kind magic ("unknown" else).
const char* IndexKindName(uint32_t magic);

/// How a loader materializes an index file.
enum class LoadMode {
  /// Deserialize everything into owned heap storage (default).
  kHeap,
  /// mmap the file read-only; large sections are served zero-copy from the
  /// mapping. All section checksums are verified at open.
  kMmap,
};

/// One section as parsed from the table. `pad_start` is derived at open
/// time (the file offset where this section's zero padding — and its CRC'd
/// region — begins).
struct SectionInfo {
  uint32_t tag = 0;
  uint32_t flags = 0;
  uint64_t offset = 0;  // file offset of the data (aligned)
  uint64_t size = 0;    // data bytes (padding excluded)
  uint32_t crc = 0;     // CRC32C over [pad_start, offset + size)
  uint64_t pad_start = 0;
};

/// Envelope metadata, as reported by InspectEnvelope.
struct EnvelopeInfo {
  uint32_t format_version = 0;
  uint32_t index_magic = 0;
  uint32_t flags = 0;
  uint64_t payload_size = 0;
  /// Section table entries; empty for sectionless index kinds.
  std::vector<SectionInfo> sections;
};

/// Validates the envelope of `path` — header fields, file size, header,
/// payload and every section checksum — without deserializing the
/// payload. Accepts any index-kind magic; returns its metadata on success.
StatusOr<EnvelopeInfo> InspectEnvelope(const std::string& path);

/// Streaming binary writer implementing the atomic-save protocol: bytes go
/// to `<path>.tmp`; Finish() seals the envelope, fsyncs and renames. If the
/// writer is destroyed without a successful Finish(), the temp file is
/// removed and `path` is untouched.
///
/// A writer that declares no sections (AddSection) emits an empty section
/// table (count = 0) followed by the payload.
class BinaryWriter {
 public:
  /// Opens `<path>.tmp` for writing and reserves the envelope header.
  BinaryWriter(const std::string& path, uint32_t index_magic);
  ~BinaryWriter();

  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  bool ok() const { return ok_; }

  /// Declares a section. Must be called before the first payload write
  /// (the section table sits between the header and the payload, so its
  /// size must be final by then). `data` is not copied and must stay alive
  /// until Finish(), which streams it after the metadata payload.
  /// A `size` of 0 is a no-op: empty sections are never written (the reader
  /// rejects zero-size table entries), so loaders must treat a missing tag
  /// as an empty extent when their metadata says so.
  void AddSection(uint32_t tag, const void* data, uint64_t size,
                  uint32_t flags = 0, uint64_t alignment = kSectionAlignment);

  template <typename T>
  void WritePod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteRaw(&value, sizeof(T));
  }

  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WritePod<uint64_t>(v.size());
    if (!v.empty()) WriteRaw(v.data(), v.size() * sizeof(T));
  }

  void WriteString(const std::string& s);

  /// Length-prefixed write of a raw buffer; wire-compatible with
  /// WriteVector<T> of the same bytes.
  void WriteLengthPrefixed(const void* data, uint64_t count,
                           size_t elem_size);

  /// Seals the envelope (appends payload CRC, streams any declared sections,
  /// patches the section table and header), fsyncs and atomically renames
  /// the temp file into place. On any failure the target path is left
  /// untouched and the temp file is cleaned up.
  Status Finish();

 private:
  struct PendingSection {
    uint32_t tag;
    uint32_t flags;
    const void* data;
    uint64_t size;
    uint64_t alignment;
    uint64_t offset = 0;  // filled during Finish
    uint32_t crc = 0;     // filled during Finish
  };

  void WriteRaw(const void* data, size_t n);
  /// Raw write that participates in fault injection but not the payload CRC
  /// (section streaming, padding).
  bool WriteFileBytes(const void* data, size_t n);
  void ReserveTable();
  size_t TableBytes() const;
  void Discard();  // closes and removes the temp file

  std::ofstream out_;
  std::string path_;
  std::string tmp_path_;
  uint32_t index_magic_;
  uint64_t payload_bytes_ = 0;
  uint64_t total_bytes_ = 0;  // all payload+section bytes, for fault sched
  uint32_t payload_crc_ = 0;
  std::vector<PendingSection> sections_;
  bool table_reserved_ = false;
  bool ok_ = false;
  bool finished_ = false;
  bool injected_fault_ = false;  // leave the partial temp file, like a kill
};

/// Streaming binary reader; validates the envelope header and the section
/// table structure on open and the payload checksum in Finish().
/// Section *data* checksums are verified by ReadSectionInto /
/// VerifyAllSections, not by Finish().
class BinaryReader {
 public:
  BinaryReader(const std::string& path, uint32_t index_magic);

  /// Memory-mode reader over an already-loaded envelope image (e.g. an
  /// mmap'd file). Performs the same validation as the file constructor;
  /// `name` is used in error messages. The buffer must outlive the reader.
  BinaryReader(const void* data, size_t size, std::string name,
               uint32_t index_magic);

  const Status& status() const { return status_; }
  bool ok() const { return status_.ok(); }

  /// Payload bytes not yet consumed.
  uint64_t remaining() const { return remaining_; }

  /// Envelope metadata parsed from the header (zeroed if open failed).
  const EnvelopeInfo& info() const { return info_; }

  /// Section entries in table order.
  const std::vector<SectionInfo>& sections() const { return info_.sections; }

  /// Table entry for `tag`, or nullptr if absent.
  const SectionInfo* FindSection(uint32_t tag) const;

  template <typename T>
  [[nodiscard]] bool ReadPod(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadRaw(value, sizeof(T));
  }

  template <typename T>
  [[nodiscard]] bool ReadVector(std::vector<T>* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = 0;
    if (!ReadPod(&n)) return false;
    // A valid length can never exceed the bytes left in the payload, so a
    // corrupt length field fails here instead of in a giant resize().
    if (n > remaining_ / sizeof(T)) {
      return FailLength("vector", n);
    }
    RecordAllocation(n * sizeof(T));
    v->resize(n);
    return n == 0 || ReadRaw(v->data(), n * sizeof(T));
  }

  [[nodiscard]] bool ReadString(std::string* s);

  /// Drains any unread payload and verifies the payload CRC trailer. Call
  /// after the last Read; Status::Corruption on checksum mismatch. Only the
  /// metadata payload is verified; section data is not.
  Status Finish();

  /// Reads section `tag`'s data into `dst` (which must hold exactly
  /// `size == entry.size` bytes) and verifies the section checksum,
  /// including the zero padding preceding the data. Call after Finish().
  Status ReadSectionInto(uint32_t tag, void* dst, uint64_t size);

  /// Verifies every section's checksum without retaining the data. Call
  /// after Finish(). No-op for sectionless files.
  Status VerifyAllSections();

  /// The reader's error status if a Read failed, else Corruption(context).
  /// For loaders: `if (!r.ReadPod(&x)) return r.ReadError("bad foo file");`
  Status ReadError(std::string context) const {
    return status_.ok() ? Status::Corruption(std::move(context)) : status_;
  }

 private:
  void Open(uint64_t file_size, uint32_t index_magic);
  bool ParseSectionTable(uint64_t file_size);
  bool ReadRaw(void* data, size_t n);
  /// Reads from the underlying source without touching the payload CRC or
  /// `remaining_` bookkeeping (header/table/trailer/section bytes).
  bool SourceRead(void* data, size_t n);
  bool SourceSeek(uint64_t pos);
  bool FailLength(const char* what, uint64_t n);
  static void RecordAllocation(uint64_t bytes);

  std::ifstream in_;
  const uint8_t* mem_ = nullptr;  // memory mode when non-null
  size_t mem_size_ = 0;
  size_t mem_pos_ = 0;
  std::string path_;
  EnvelopeInfo info_;
  uint64_t remaining_ = 0;
  uint32_t payload_crc_ = 0;
  Status status_;
};

}  // namespace rne

#endif  // RNE_UTIL_SERIALIZE_H_
