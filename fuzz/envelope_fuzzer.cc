// Envelope fuzzer: arbitrary bytes through BinaryReader (header, section
// table, CRC paths), MappedEnvelope::Open, and both typed Loads — Rne
// (which embeds the PartitionHierarchy stream) and QuantizedRne — across
// heap / mmap / cold-mmap modes.
//
// Input layout: byte 0 selects the index kind (byte % kNumKinds) and the
// load modes (byte / kNumKinds); the rest is the file image. The image is
// exercised twice: once raw (header rejection paths stay covered) and once
// after FixupEnvelope() re-seals the outer
// magic, version, payload size, and the three CRC layers — so mutations of
// the *inner* metadata survive the envelope's checksums and reach the typed
// parsers, which is where the depth is. The libFuzzer build applies the
// same fixup inside a custom mutator; the replay build applies it here so
// corpus entries behave identically in both.
//
// Statuses are ignored by design: a corrupt file must load as an error, not
// as a crash, a sanitizer report, or an allocation proportional to a forged
// length field.
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/quantized.h"
#include "core/rne.h"
#include "util/crc32c.h"
#include "util/mmap_file.h"
#include "util/serialize.h"

#include "fuzz_target.h"

namespace rne {
namespace {

// The selector layout is committed input data: byte 0 of every corpus and
// regression input is kind + kNumKinds * modes, so a change to this list
// must re-encode those bytes.
constexpr uint32_t kKindMagics[] = {kRneMagic, kQuantMagic};
constexpr size_t kNumKinds = sizeof(kKindMagics) / sizeof(kKindMagics[0]);

// One scratch file per process, overwritten per input (the file-based
// loaders and mmap need a real path).
const std::string& ScratchPath() {
  static const std::string* path = [] {
    return new std::string("/tmp/rne_envelope_fuzz." +
                           std::to_string(::getpid()) + ".bin");
  }();
  return *path;
}

bool WriteScratch(const uint8_t* data, size_t size) {
  std::ofstream out(ScratchPath(), std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(size));
  return static_cast<bool>(out);
}

// Re-seals the envelope around whatever the mutation produced: outer magic,
// the supported version, the selected index kind's magic, a payload size
// that fits the file, and the header / section-table / payload CRCs. Inner
// metadata stays untouched — that is the attack surface. Returns false when
// the image is too small to hold a header and a section table.
bool FixupEnvelope(uint8_t* file, size_t size, uint32_t index_magic) {
  if (size < kEnvelopeHeaderSize + kEnvelopeTrailerSize) return false;
  std::memcpy(file + 0, &kEnvelopeMagic, 4);
  std::memcpy(file + 4, &kFormatVersion, 4);
  std::memcpy(file + 8, &index_magic, 4);
  const uint32_t flags = 0;
  std::memcpy(file + 12, &flags, 4);
  // Keep whatever section count the mutation chose, clamped so the table
  // fits, then re-seal the table CRC. Entry contents stay as mutated.
  uint64_t avail = size - kEnvelopeHeaderSize;
  if (avail < 8) return false;
  avail -= 8;  // count + table CRC
  uint32_t count = 0;
  std::memcpy(&count, file + kEnvelopeHeaderSize, 4);
  if (count > avail / kSectionEntrySize) {
    count %= static_cast<uint32_t>(avail / kSectionEntrySize + 1);
    std::memcpy(file + kEnvelopeHeaderSize, &count, 4);
  }
  const uint64_t table_bytes = 4 + uint64_t{count} * kSectionEntrySize + 4;
  uint32_t table_crc = Crc32c(file + kEnvelopeHeaderSize, 4);
  table_crc = Crc32cExtend(table_crc, file + kEnvelopeHeaderSize + 4,
                           uint64_t{count} * kSectionEntrySize);
  std::memcpy(file + kEnvelopeHeaderSize + table_bytes - 4, &table_crc, 4);
  const uint64_t payload_off = kEnvelopeHeaderSize + table_bytes;
  const uint64_t after_table = size - payload_off;
  if (after_table < kEnvelopeTrailerSize) return false;
  // Respect a mutated payload size when it fits (sections may follow the
  // trailer); otherwise claim everything up to the trailer.
  uint64_t payload_size = 0;
  std::memcpy(&payload_size, file + 16, 8);
  if (payload_size > after_table - kEnvelopeTrailerSize) {
    payload_size = after_table - kEnvelopeTrailerSize;
  }
  std::memcpy(file + 16, &payload_size, 8);
  const uint32_t header_crc = Crc32c(file, 24);
  std::memcpy(file + 24, &header_crc, 4);
  const uint32_t payload_crc = Crc32c(file + payload_off, payload_size);
  std::memcpy(file + payload_off + payload_size, &payload_crc, 4);
  return true;
}

void DriveTypedLoads(size_t kind, uint8_t modes) {
  const std::string& path = ScratchPath();
  switch (kind) {
    case 0:
      (void)Rne::Load(path);
      if (modes & 1) (void)Rne::Load(path, LoadMode::kMmap);
      if (modes & 2) (void)Rne::Load(path, LoadMode::kMmapCold);
      break;
    default:
      (void)QuantizedRne::Load(path);
      if (modes & 1) (void)QuantizedRne::Load(path, LoadMode::kMmap);
      if (modes & 2) (void)QuantizedRne::Load(path, LoadMode::kMmapCold);
      break;
  }
}

void DriveOneImage(const uint8_t* file, size_t size, size_t kind,
                   uint8_t modes) {
  // Memory-mode reader first: header/table validation, payload drain, CRC
  // trailer, and streamed section verification with no file involved.
  {
    BinaryReader r(file, size, "fuzz-mem", kKindMagics[kind]);
    if (r.ok()) {
      (void)r.Finish();
      (void)r.VerifyAllSections();
    }
  }
  if (!WriteScratch(file, size)) return;
  // Envelope inspection (any-kind magic) and the mmap open path.
  (void)InspectEnvelope(ScratchPath());
  {
    auto env = MappedEnvelope::Open(ScratchPath(), kKindMagics[kind],
                                    LoadMode::kMmap);
    if (env.ok()) (void)env.value()->EnsureAllVerified();
  }
  DriveTypedLoads(kind, modes);
}

}  // namespace
}  // namespace rne

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 2) return 0;
  const size_t kind = data[0] % rne::kNumKinds;
  const uint8_t modes = data[0] / rne::kNumKinds;
  const uint8_t* file = data + 1;
  const size_t file_size = size - 1;
  rne::DriveOneImage(file, file_size, kind, modes);
  // Second pass with the envelope re-sealed so inner-metadata mutations get
  // past the CRCs. Skipped when the image cannot hold a header.
  std::vector<uint8_t> fixed(file, file + file_size);
  if (rne::FixupEnvelope(fixed.data(), fixed.size(),
                         rne::kKindMagics[kind])) {
    rne::DriveOneImage(fixed.data(), fixed.size(), kind, modes);
  }
  return 0;
}

#ifdef RNE_LIBFUZZER
// Structure-aware mutator: mutate freely, then re-seal the envelope so the
// interesting bytes (section tables, typed metadata) survive the checksum
// gauntlet instead of dying at the header. A fraction of outputs is left
// raw so the rejection paths stay explored too.
extern "C" size_t LLVMFuzzerCustomMutator(uint8_t* data, size_t size,
                                          size_t max_size, unsigned seed) {
  const size_t n = LLVMFuzzerMutate(data, size, max_size);
  if (n >= 2 && seed % 4 != 0) {
    (void)rne::FixupEnvelope(data + 1, n - 1,
                             rne::kKindMagics[data[0] % rne::kNumKinds]);
  }
  return n;
}
#endif
