#include "util/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "obs/metrics.h"
#include "util/crc32c.h"
#include "util/fault_injection.h"
#include "util/macros.h"
#include "util/timer.h"

namespace rne {
namespace {

static_assert(kSectionEntrySize == 32, "on-disk section entry layout");

void EncodeHeader(uint32_t index_magic, uint64_t payload_size,
                  char out[kEnvelopeHeaderSize]) {
  const uint32_t flags = 0;
  std::memcpy(out + 0, &kEnvelopeMagic, 4);
  std::memcpy(out + 4, &kFormatVersion, 4);
  std::memcpy(out + 8, &index_magic, 4);
  std::memcpy(out + 12, &flags, 4);
  std::memcpy(out + 16, &payload_size, 8);
  const uint32_t header_crc = Crc32c(out, 24);
  std::memcpy(out + 24, &header_crc, 4);
}

uint64_t AlignUp(uint64_t value, uint64_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

bool IsPow2(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// fsyncs `path`; returns false on any failure.
bool SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Best-effort fsync of the directory containing `path`, so the rename
/// itself is durable. Failure is ignored: some filesystems reject directory
/// fds and the data file is already synced.
void SyncParentDir(const std::string& path) {
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

const char* IndexKindName(uint32_t magic) {
  switch (magic) {
    case kRneMagic:
      return "RNE model";
    case kQuantMagic:
      return "quantized RNE model";
    default:
      return "unknown";
  }
}

const char* LoadModeName(LoadMode mode) {
  switch (mode) {
    case LoadMode::kHeap:
      return "heap";
    case LoadMode::kMmap:
      return "mmap";
    case LoadMode::kMmapCold:
      return "mmap-cold";
  }
  return "unknown";
}

// ----------------------------------------------------------- BinaryWriter

BinaryWriter::BinaryWriter(const std::string& path, uint32_t index_magic)
    : path_(path), tmp_path_(path + ".tmp"), index_magic_(index_magic) {
  out_.open(tmp_path_, std::ios::binary | std::ios::trunc);
  if (!out_) return;
  // Reserve the header; Finish() patches it once the payload size is known.
  const char zeros[kEnvelopeHeaderSize] = {};
  out_.write(zeros, kEnvelopeHeaderSize);
  ok_ = static_cast<bool>(out_);
}

BinaryWriter::~BinaryWriter() {
  if (!finished_) Discard();
}

size_t BinaryWriter::TableBytes() const {
  return 4 + sections_.size() * kSectionEntrySize + 4;
}

void BinaryWriter::AddSection(uint32_t tag, const void* data, uint64_t size,
                              uint32_t flags, uint64_t alignment) {
  RNE_CHECK_MSG(!table_reserved_,
                "AddSection must precede the first payload write");
  RNE_CHECK_MSG(IsPow2(alignment) && alignment >= kSectionAlignment &&
                    alignment <= kMaxSectionAlignment,
                "section alignment must be a power of two in [64, 1<<20]");
  RNE_CHECK_MSG(data != nullptr || size == 0, "null section data");
  for (const PendingSection& s : sections_) {
    RNE_CHECK_MSG(s.tag != tag, "duplicate section tag");
  }
  // Empty sections are dropped rather than written: the reader rejects
  // zero-size table entries as corrupt (they would alias the next extent),
  // so loaders treat an absent tag as "zero bytes" instead.
  if (size == 0) return;
  sections_.push_back(PendingSection{tag, flags, data, size, alignment});
}

void BinaryWriter::ReserveTable() {
  if (table_reserved_) return;
  table_reserved_ = true;
  if (!ok_) return;
  const size_t n = TableBytes();
  // Placeholder; Finish() seeks back and writes the real table.
  const std::vector<char> zeros(n, 0);
  out_.write(zeros.data(), static_cast<std::streamsize>(n));
  if (!out_) ok_ = false;
}

bool BinaryWriter::WriteFileBytes(const void* data, size_t n) {
  if (!ok_ || n == 0) return ok_;
  if (fault::WriteShouldFail(total_bytes_ + n)) {
    ok_ = false;
    injected_fault_ = true;
    return false;
  }
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(n));
  if (!out_) {
    ok_ = false;
    return false;
  }
  total_bytes_ += n;
  return true;
}

void BinaryWriter::WriteRaw(const void* data, size_t n) {
  if (n == 0) return;
  ReserveTable();
  if (!WriteFileBytes(data, n)) return;
  payload_crc_ = Crc32cExtend(payload_crc_, data, n);
  payload_bytes_ += n;
}

void BinaryWriter::WriteString(const std::string& s) {
  WritePod<uint64_t>(s.size());
  if (!s.empty()) WriteRaw(s.data(), s.size());
}

void BinaryWriter::WriteLengthPrefixed(const void* data, uint64_t count,
                                       size_t elem_size) {
  WritePod<uint64_t>(count);
  if (count != 0) WriteRaw(data, count * elem_size);
}

void BinaryWriter::Discard() {
  if (out_.is_open()) out_.close();
  // An injected fault simulates a kill: the partial temp file stays behind,
  // and correctness relies on the rename never having happened.
  if (!injected_fault_) std::remove(tmp_path_.c_str());
}

Status BinaryWriter::Finish() {
  if (finished_) return Status::Ok();
  ReserveTable();  // a pure-section file may have had no payload writes
  if (!ok_) {
    Discard();
    return Status::IoError("write failed for " + path_ +
                           (injected_fault_ ? " (injected fault)" : ""));
  }
  // Seal the metadata payload with its CRC trailer.
  out_.write(reinterpret_cast<const char*>(&payload_crc_),
             kEnvelopeTrailerSize);
  // Stream the declared sections: zero padding up to each aligned offset,
  // then the data. Each section's CRC covers its padding and data so every
  // file byte sits under some checksum.
  uint64_t pos = kEnvelopeHeaderSize + TableBytes() + payload_bytes_ +
                 kEnvelopeTrailerSize;
  const char pad_zeros[256] = {};
  for (PendingSection& s : sections_) {
    s.offset = AlignUp(pos, s.alignment);
    uint64_t pad = s.offset - pos;
    uint32_t crc = 0;
    while (pad > 0 && ok_) {
      const size_t chunk =
          static_cast<size_t>(std::min<uint64_t>(pad, sizeof(pad_zeros)));
      if (!WriteFileBytes(pad_zeros, chunk)) break;
      crc = Crc32cExtend(crc, pad_zeros, chunk);
      pad -= chunk;
    }
    if (ok_ && s.size > 0 && WriteFileBytes(s.data, s.size)) {
      crc = Crc32cExtend(crc, s.data, s.size);
    }
    if (!ok_) {
      Discard();
      return Status::IoError("write failed for " + path_ +
                             (injected_fault_ ? " (injected fault)" : ""));
    }
    s.crc = crc;
    pos = s.offset + s.size;
  }
  // Patch the section table (possibly empty), then the real header.
  std::vector<char> table(4 + sections_.size() * kSectionEntrySize);
  const uint32_t count = static_cast<uint32_t>(sections_.size());
  std::memcpy(table.data(), &count, 4);
  char* entry = table.data() + 4;
  for (const PendingSection& s : sections_) {
    const uint32_t reserved = 0;
    std::memcpy(entry + 0, &s.tag, 4);
    std::memcpy(entry + 4, &s.flags, 4);
    std::memcpy(entry + 8, &s.offset, 8);
    std::memcpy(entry + 16, &s.size, 8);
    std::memcpy(entry + 24, &s.crc, 4);
    std::memcpy(entry + 28, &reserved, 4);
    entry += kSectionEntrySize;
  }
  const uint32_t table_crc = Crc32c(table.data(), table.size());
  out_.seekp(static_cast<std::streamoff>(kEnvelopeHeaderSize));
  out_.write(table.data(), static_cast<std::streamsize>(table.size()));
  out_.write(reinterpret_cast<const char*>(&table_crc), 4);
  char header[kEnvelopeHeaderSize];
  EncodeHeader(index_magic_, payload_bytes_, header);
  out_.seekp(0);
  out_.write(header, kEnvelopeHeaderSize);
  out_.flush();
  if (!out_) {
    Discard();
    return Status::IoError("write failed for " + path_);
  }
  out_.close();
  {
    const Timer fsync_timer;
    const bool synced = SyncFile(tmp_path_);
    RNE_HIST_RECORD("persist.fsync_ns", fsync_timer.ElapsedNanos());
    if (!synced) {
      Discard();
      return Status::IoError("fsync failed for " + tmp_path_);
    }
  }
  if (fault::RenameSuppressed()) {
    injected_fault_ = true;
    return Status::IoError("write failed for " + path_ +
                           " (injected crash before rename)");
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    Discard();
    return Status::IoError("rename failed for " + path_);
  }
  SyncParentDir(path_);
  finished_ = true;
  RNE_COUNTER_ADD("persist.writes", 1);
  RNE_COUNTER_ADD("persist.bytes_written",
                  kEnvelopeHeaderSize + TableBytes() + total_bytes_ +
                      kEnvelopeTrailerSize);
  return Status::Ok();
}

// ----------------------------------------------------------- BinaryReader

BinaryReader::BinaryReader(const std::string& path, uint32_t index_magic)
    : path_(path) {
  std::error_code ec;
  const auto fs_status = std::filesystem::status(path, ec);
  if (ec || !std::filesystem::exists(fs_status)) {
    status_ = Status::NotFound("no such file: " + path);
    return;
  }
  in_.open(path, std::ios::binary);
  if (!in_) {
    status_ = Status::IoError("cannot open " + path);
    return;
  }
  const uint64_t file_size = std::filesystem::file_size(path, ec);
  if (ec) {
    status_ = Status::IoError("cannot stat " + path);
    return;
  }
  Open(file_size, index_magic);
}

BinaryReader::BinaryReader(const void* data, size_t size, std::string name,
                           uint32_t index_magic)
    : mem_(static_cast<const uint8_t*>(data)),
      mem_size_(size),
      path_(std::move(name)) {
  Open(size, index_magic);
}

bool BinaryReader::SourceRead(void* data, size_t n) {
  if (mem_ != nullptr) {
    if (n > mem_size_ - mem_pos_) return false;
    std::memcpy(data, mem_ + mem_pos_, n);
    mem_pos_ += n;
    return true;
  }
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  return static_cast<bool>(in_);
}

bool BinaryReader::SourceSeek(uint64_t pos) {
  if (mem_ != nullptr) {
    if (pos > mem_size_) return false;
    mem_pos_ = static_cast<size_t>(pos);
    return true;
  }
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(pos));
  return static_cast<bool>(in_);
}

void BinaryReader::Open(uint64_t file_size, uint32_t index_magic) {
  if (file_size < kEnvelopeHeaderSize + kEnvelopeTrailerSize) {
    status_ = Status::Corruption(
        (file_size == 0 ? "empty index file: "
                        : "file too short to hold an envelope: ") +
        path_);
    return;
  }
  char header[kEnvelopeHeaderSize];
  if (!SourceRead(header, kEnvelopeHeaderSize)) {
    status_ = Status::IoError("cannot read header of " + path_);
    return;
  }
  uint32_t env_magic = 0, header_crc = 0;
  std::memcpy(&env_magic, header + 0, 4);
  std::memcpy(&info_.format_version, header + 4, 4);
  std::memcpy(&info_.index_magic, header + 8, 4);
  std::memcpy(&info_.flags, header + 12, 4);
  std::memcpy(&info_.payload_size, header + 16, 8);
  std::memcpy(&header_crc, header + 24, 4);
  if (env_magic != kEnvelopeMagic) {
    status_ = Status::Corruption(
        env_magic == index_magic
            ? "legacy unversioned index file (re-save to upgrade): " + path_
            : "bad magic in " + path_);
    return;
  }
  if (header_crc != Crc32c(header, 24)) {
    status_ = Status::Corruption("header checksum mismatch in " + path_);
    return;
  }
  if (info_.format_version != kFormatVersion) {
    status_ = Status::Corruption(
        "unsupported format version " + std::to_string(info_.format_version) +
        " in " + path_ + " (this build reads version " +
        std::to_string(kFormatVersion) + "; re-save the index)");
    return;
  }
  if (index_magic != 0 && info_.index_magic != index_magic) {
    status_ = Status::Corruption(
        "wrong index kind in " + path_ + ": file holds a " +
        IndexKindName(info_.index_magic) + ", expected a " +
        IndexKindName(index_magic));
    return;
  }
  if (!ParseSectionTable(file_size)) return;
  remaining_ = info_.payload_size;
}

bool BinaryReader::ParseSectionTable(uint64_t file_size) {
  // Structural validation of the layout happens here, before any payload
  // or section byte is consumed: the section table checksum, monotone
  // aligned extents, and — critically for mmap serving — that the file ends
  // exactly at the last section's end, so no later access can run off a
  // truncated mapping.
  uint64_t avail = file_size - kEnvelopeHeaderSize;
  uint32_t count = 0;
  if (avail < 4 + 4 || !SourceRead(&count, 4)) {
    status_ = Status::Corruption("cannot read section table of " + path_);
    return false;
  }
  avail -= 8;  // count + table CRC
  if (count > avail / kSectionEntrySize) {
    status_ = Status::Corruption("corrupt section count " +
                                 std::to_string(count) + " in " + path_);
    return false;
  }
  RecordAllocation(uint64_t{count} * kSectionEntrySize);
  std::vector<char> entries(size_t{count} * kSectionEntrySize);
  uint32_t stored_table_crc = 0;
  if ((!entries.empty() && !SourceRead(entries.data(), entries.size())) ||
      !SourceRead(&stored_table_crc, 4)) {
    status_ = Status::Corruption("cannot read section table of " + path_);
    return false;
  }
  uint32_t table_crc = Crc32c(&count, 4);
  table_crc = Crc32cExtend(table_crc, entries.data(), entries.size());
  if (table_crc != stored_table_crc) {
    status_ =
        Status::Corruption("section table checksum mismatch in " + path_);
    RNE_COUNTER_ADD("persist.crc_failures", 1);
    return false;
  }
  const uint64_t table_end =
      kEnvelopeHeaderSize + 4 + uint64_t{count} * kSectionEntrySize + 4;
  if (info_.payload_size > file_size - table_end ||
      file_size - table_end - info_.payload_size < kEnvelopeTrailerSize) {
    status_ = Status::Corruption("payload size mismatch (truncated?) in " +
                                 path_);
    return false;
  }
  uint64_t expected = table_end + info_.payload_size + kEnvelopeTrailerSize;
  info_.sections.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    const char* e = entries.data() + size_t{i} * kSectionEntrySize;
    SectionInfo s;
    uint32_t reserved = 0;
    std::memcpy(&s.tag, e + 0, 4);
    std::memcpy(&s.flags, e + 4, 4);
    std::memcpy(&s.offset, e + 8, 8);
    std::memcpy(&s.size, e + 16, 8);
    std::memcpy(&s.crc, e + 24, 4);
    std::memcpy(&reserved, e + 28, 4);
    if (reserved != 0 || (s.flags & ~kSectionFlagLazyVerify) != 0) {
      status_ = Status::Corruption("unknown section flags in " + path_);
      return false;
    }
    for (const SectionInfo& prev : info_.sections) {
      if (prev.tag == s.tag) {
        status_ = Status::Corruption("duplicate section tag in " + path_);
        return false;
      }
    }
    if (s.size == 0) {
      // Writers never emit empty sections (AddSection drops them); a
      // zero-size entry only appears in hand-crafted or corrupted tables,
      // and accepting it would hand loaders a degenerate extent whose
      // data pointer aliases the next section.
      status_ = Status::Corruption("zero-size section " +
                                   std::to_string(s.tag) + " in " + path_);
      return false;
    }
    if (s.offset % kSectionAlignment != 0 || s.offset < expected ||
        s.offset - expected >= kMaxSectionAlignment ||
        s.offset > file_size || s.size > file_size - s.offset) {
      status_ = Status::Corruption("section " + std::to_string(s.tag) +
                                   " extent out of bounds in " + path_);
      return false;
    }
    s.pad_start = expected;
    expected = s.offset + s.size;
    info_.sections.push_back(s);
  }
  if (expected != file_size) {
    status_ = Status::Corruption(
        "file does not end at the last section (truncated?): " + path_);
    return false;
  }
  return true;
}

const SectionInfo* BinaryReader::FindSection(uint32_t tag) const {
  for (const SectionInfo& s : info_.sections) {
    if (s.tag == tag) return &s;
  }
  return nullptr;
}

bool BinaryReader::ReadRaw(void* data, size_t n) {
  if (!status_.ok()) return false;
  if (n > remaining_) {
    status_ = Status::Corruption("unexpected end of payload in " + path_);
    return false;
  }
  if (!SourceRead(data, n)) {
    status_ = Status::IoError("read failed for " + path_);
    return false;
  }
  payload_crc_ = Crc32cExtend(payload_crc_, data, n);
  remaining_ -= n;
  return true;
}

bool BinaryReader::FailLength(const char* what, uint64_t n) {
  status_ = Status::Corruption(
      "corrupt " + std::string(what) + " length " + std::to_string(n) +
      " exceeds remaining payload (" + std::to_string(remaining_) +
      " bytes) in " + path_);
  return false;
}

void BinaryReader::RecordAllocation(uint64_t bytes) {
  fault::OnAllocation(bytes);
}

bool BinaryReader::ReadString(std::string* s) {
  uint64_t n = 0;
  if (!ReadPod(&n)) return false;
  if (n > remaining_) return FailLength("string", n);
  RecordAllocation(n);
  s->resize(n);
  return n == 0 || ReadRaw(s->data(), n);
}

Status BinaryReader::Finish() {
  if (!status_.ok()) return status_;
  // Checksum any payload the loader did not consume, then check the trailer.
  // The drain + trailer comparison is the CRC verification cost of a load
  // (incremental Crc32cExtend during ReadRaw is inseparable from the reads
  // themselves, so the histogram covers the residual-verify step).
  const Timer verify_timer;
  char buf[1 << 16];
  while (remaining_ > 0) {
    const size_t chunk =
        static_cast<size_t>(std::min<uint64_t>(remaining_, sizeof(buf)));
    if (!ReadRaw(buf, chunk)) return status_;
  }
  uint32_t stored_crc = 0;
  if (!SourceRead(&stored_crc, kEnvelopeTrailerSize)) {
    status_ = Status::IoError("cannot read checksum trailer of " + path_);
    return status_;
  }
  if (stored_crc != payload_crc_) {
    status_ = Status::Corruption("payload checksum mismatch in " + path_);
    RNE_COUNTER_ADD("persist.crc_failures", 1);
  } else {
    RNE_HIST_RECORD("persist.crc_verify_ns", verify_timer.ElapsedNanos());
    RNE_COUNTER_ADD("persist.reads", 1);
    RNE_COUNTER_ADD("persist.bytes_read", kEnvelopeHeaderSize +
                                              info_.payload_size +
                                              kEnvelopeTrailerSize);
  }
  return status_;
}

Status BinaryReader::ReadSectionInto(uint32_t tag, void* dst, uint64_t size) {
  if (!status_.ok()) return status_;
  const SectionInfo* s = FindSection(tag);
  if (s == nullptr) {
    return Status::Corruption("missing section " + std::to_string(tag) +
                              " in " + path_);
  }
  if (s->size != size) {
    return Status::Corruption(
        "section " + std::to_string(tag) + " size mismatch in " + path_ +
        ": table holds " + std::to_string(s->size) + " bytes, loader needs " +
        std::to_string(size));
  }
  RecordAllocation(size);
  if (!SourceSeek(s->pad_start)) {
    return Status::IoError("seek failed for " + path_);
  }
  // The CRC covers the zero padding in front of the data, so a flipped pad
  // bit is as detectable as a flipped data bit.
  uint32_t crc = 0;
  char pad_buf[256];
  uint64_t pad = s->offset - s->pad_start;
  while (pad > 0) {
    const size_t chunk =
        static_cast<size_t>(std::min<uint64_t>(pad, sizeof(pad_buf)));
    if (!SourceRead(pad_buf, chunk)) {
      return Status::IoError("read failed for " + path_);
    }
    crc = Crc32cExtend(crc, pad_buf, chunk);
    pad -= chunk;
  }
  if (size > 0 && !SourceRead(dst, size)) {
    return Status::IoError("read failed for " + path_);
  }
  crc = Crc32cExtend(crc, dst, size);
  if (crc != s->crc) {
    RNE_COUNTER_ADD("persist.crc_failures", 1);
    return Status::Corruption("section " + std::to_string(tag) +
                              " checksum mismatch in " + path_);
  }
  RNE_COUNTER_ADD("persist.bytes_read", (s->offset - s->pad_start) + size);
  return Status::Ok();
}

Status BinaryReader::VerifyAllSections() {
  if (!status_.ok()) return status_;
  const Timer verify_timer;
  char buf[1 << 16];
  for (const SectionInfo& s : info_.sections) {
    if (!SourceSeek(s.pad_start)) {
      return Status::IoError("seek failed for " + path_);
    }
    uint32_t crc = 0;
    uint64_t left = (s.offset - s.pad_start) + s.size;
    while (left > 0) {
      const size_t chunk =
          static_cast<size_t>(std::min<uint64_t>(left, sizeof(buf)));
      if (!SourceRead(buf, chunk)) {
        return Status::IoError("read failed for " + path_);
      }
      crc = Crc32cExtend(crc, buf, chunk);
      left -= chunk;
    }
    if (crc != s.crc) {
      RNE_COUNTER_ADD("persist.crc_failures", 1);
      return Status::Corruption("section " + std::to_string(s.tag) +
                                " checksum mismatch in " + path_);
    }
  }
  if (!info_.sections.empty()) {
    RNE_HIST_RECORD("persist.crc_verify_ns", verify_timer.ElapsedNanos());
  }
  return Status::Ok();
}

StatusOr<EnvelopeInfo> InspectEnvelope(const std::string& path) {
  BinaryReader r(path, /*index_magic=*/0);  // 0 accepts any index kind
  if (!r.ok()) return r.status();
  RNE_RETURN_IF_ERROR(r.Finish());
  RNE_RETURN_IF_ERROR(r.VerifyAllSections());
  return r.info();
}

}  // namespace rne
