#include "util/mmap_file.h"

// rne-lint: allow(raw-mmap) — this file is the audited home of the mmap
// syscalls; everything else goes through MmapFile.
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "obs/metrics.h"

namespace rne {

StatusOr<std::shared_ptr<MmapFile>> MmapFile::Map(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat " + path);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  uint8_t* data = nullptr;
  if (size > 0) {
    void* addr = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
    if (addr == MAP_FAILED) {
      ::close(fd);
      return Status::IoError("mmap failed for " + path + ": " +
                             std::strerror(errno));
    }
    data = static_cast<uint8_t*>(addr);
  }
  ::close(fd);  // the mapping keeps the inode alive
  RNE_COUNTER_ADD("mmap.maps", 1);
  RNE_COUNTER_ADD("mmap.mapped_bytes", size);
  return std::shared_ptr<MmapFile>(new MmapFile(data, size));
}

MmapFile::~MmapFile() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

namespace {

int ToMadvise(MmapFile::Advice advice) {
  switch (advice) {
    case MmapFile::Advice::kNormal:
      return MADV_NORMAL;
    case MmapFile::Advice::kSequential:
      return MADV_SEQUENTIAL;
    case MmapFile::Advice::kRandom:
      return MADV_RANDOM;
    case MmapFile::Advice::kWillNeed:
      return MADV_WILLNEED;
    case MmapFile::Advice::kDontNeed:
      return MADV_DONTNEED;
  }
  return MADV_NORMAL;
}

}  // namespace

void MmapFile::Advise(Advice advice) const {
  AdviseRange(0, size_, advice);
}

void MmapFile::AdviseRange(uint64_t offset, uint64_t length,
                           Advice advice) const {
  if (data_ == nullptr || length == 0 || offset >= size_) return;
  const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  const uint64_t begin = offset / page * page;
  uint64_t end = offset + std::min<uint64_t>(length, size_ - offset);
  end = (end + page - 1) / page * page;
  if (end > size_) end = (size_ / page) * page;  // never advise past the map
  if (end <= begin) return;
  ::madvise(data_ + begin, end - begin, ToMadvise(advice));
}

// --------------------------------------------------------- MappedEnvelope

StatusOr<std::shared_ptr<const MappedEnvelope>> MappedEnvelope::Open(
    const std::string& path, uint32_t index_magic) {
  auto mapped = MmapFile::Map(path);
  if (!mapped.ok()) return mapped.status();
  std::shared_ptr<MmapFile> file = std::move(mapped).value();
  // Same validation as the streaming loader, run against the mapping: the
  // header, section table, metadata checksum and every section checksum
  // are verified before Open returns.
  BinaryReader r(file->data(), file->size(), path, index_magic);
  if (!r.ok()) return r.status();
  RNE_RETURN_IF_ERROR(r.Finish());
  RNE_RETURN_IF_ERROR(r.VerifyAllSections());
  // Verification just streamed every page; drop them from the resident set
  // so a freshly-opened mmap model starts near zero RSS and pages back in
  // on demand.
  file->Advise(MmapFile::Advice::kDontNeed);
  auto env = std::shared_ptr<MappedEnvelope>(new MappedEnvelope());
  env->file_ = std::move(file);
  env->info_ = r.info();
  return std::shared_ptr<const MappedEnvelope>(std::move(env));
}

const SectionInfo* MappedEnvelope::FindSection(uint32_t tag) const {
  for (const SectionInfo& s : info_.sections) {
    if (s.tag == tag) return &s;
  }
  return nullptr;
}

const uint8_t* MappedEnvelope::SectionData(uint32_t tag) const {
  const SectionInfo* s = FindSection(tag);
  return s == nullptr ? nullptr : file_->data() + s->offset;
}

}  // namespace rne
