// Corruption and crash-safety harness for index persistence.
//
// For every persistable index kind this suite takes a known-good saved file
// and (a) truncates it at every interesting length, (b) flips bits across
// header, payload and checksum trailer, asserting that every Load returns a
// non-OK Status — never a crash, hang, or large allocation — and (c)
// simulates a kill mid-Save via the injection layer in util/fault_injection,
// asserting a reader only ever observes the old file or a clean
// NotFound/Corruption, never a loadable-but-wrong file.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <vector>

#include "graph/generators.h"
#include "index_kinds.h"
#include "util/fault_injection.h"
#include "util/serialize.h"

namespace rne {
namespace {

constexpr uint64_t k64MiB = uint64_t{64} << 20;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class FaultInjectionTest : public ::testing::TestWithParam<IndexKindParam> {
 protected:
  static void SetUpTestSuite() { graph_ = new Graph(MakeGridNetwork(8, 8)); }
  static void TearDownTestSuite() {
    delete graph_;
    graph_ = nullptr;
  }

  void SetUp() override {
    fault::Reset();
    good_path_ = TempPath(std::string("rne_fault_") + GetParam().name +
                          "_good.bin");
    mutated_path_ = TempPath(std::string("rne_fault_") + GetParam().name +
                             "_mut.bin");
    ASSERT_TRUE(GetParam().build_and_save(*graph_, good_path_).ok());
    ASSERT_TRUE(fault::ReadFileBytes(good_path_, &good_bytes_).ok());
    ASSERT_GT(good_bytes_.size(),
              kEnvelopeHeaderSize + kEnvelopeTrailerSize);
  }

  void TearDown() override {
    fault::Reset();
    std::filesystem::remove(good_path_);
    std::filesystem::remove(good_path_ + ".tmp");
    std::filesystem::remove(mutated_path_);
  }

  Status Load(const std::string& path) {
    return GetParam().load(path, *graph_);
  }

  /// True when the heap loader AND the cold-map loader both reject `path`.
  /// The cold path defers lazy-section CRCs to the VerifyMapped() step
  /// inside load_mapped, so a flip inside a lazily-mapped section must
  /// still surface as a non-OK Status here — never a crash or a
  /// silently-wrong index.
  bool EveryLoaderRejects(const std::string& path) {
    return !Load(path).ok() &&
           !GetParam().load_mapped(path, *graph_, LoadMode::kMmapCold).ok();
  }

  static Graph* graph_;
  std::string good_path_;
  std::string mutated_path_;
  std::vector<uint8_t> good_bytes_;
};
Graph* FaultInjectionTest::graph_ = nullptr;

TEST_P(FaultInjectionTest, GoodFileLoads) {
  const Status st = Load(good_path_);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST_P(FaultInjectionTest, EveryTruncationIsRejected) {
  const auto lengths = fault::TruncationSweep(good_bytes_.size(),
                                              /*stride=*/97);
  for (const uint64_t len : lengths) {
    ASSERT_TRUE(fault::TruncateCopy(good_path_, mutated_path_, len).ok());
    EXPECT_TRUE(EveryLoaderRejects(mutated_path_))
        << "truncation to " << len << " bytes (of " << good_bytes_.size()
        << ") was accepted";
  }
  EXPECT_LT(fault::MaxAllocationObserved(), k64MiB);
}

TEST_P(FaultInjectionTest, EveryBitFlipIsRejected) {
  const uint64_t size = good_bytes_.size();
  std::vector<uint64_t> positions;
  // Whole header (magic, version, kind, flags, payload size, header CRC)...
  for (uint64_t b = 0; b < kEnvelopeHeaderSize; ++b) positions.push_back(b);
  // ...a stride through the payload (covers length fields and raw data)...
  for (uint64_t b = kEnvelopeHeaderSize; b < size - kEnvelopeTrailerSize;
       b += 43) {
    positions.push_back(b);
  }
  // ...and the checksum trailer itself.
  for (uint64_t b = size - kEnvelopeTrailerSize; b < size; ++b) {
    positions.push_back(b);
  }
  for (const uint64_t pos : positions) {
    for (int bit = 0; bit < 8; ++bit) {
      ASSERT_TRUE(
          fault::FlipBitCopy(good_path_, mutated_path_, pos, bit).ok());
      EXPECT_TRUE(EveryLoaderRejects(mutated_path_))
          << "bit " << bit << " of byte " << pos
          << " flipped without detection";
    }
  }
  EXPECT_LT(fault::MaxAllocationObserved(), k64MiB);
}

TEST_P(FaultInjectionTest, CorruptLengthFieldNeverTriggersHugeAllocation) {
  // Overwrite each plausible 8-byte length prefix position in the first
  // metadata-payload bytes (after the section table) with an absurd value;
  // Load must fail fast.
  uint32_t count = 0;
  std::memcpy(&count, good_bytes_.data() + kEnvelopeHeaderSize, 4);
  const uint64_t payload_start =
      kEnvelopeHeaderSize + 4 + uint64_t{count} * kSectionEntrySize + 4;
  for (uint64_t offset = 0; offset < 64; offset += 8) {
    if (payload_start + offset + 8 > good_bytes_.size()) break;
    std::vector<uint8_t> bytes = good_bytes_;
    for (int i = 0; i < 8; ++i) {
      bytes[payload_start + offset + i] = 0x7F;
    }
    ASSERT_TRUE(fault::WriteFileBytes(mutated_path_, bytes).ok());
    const Status st = Load(mutated_path_);
    EXPECT_FALSE(st.ok());
  }
  EXPECT_LT(fault::MaxAllocationObserved(), k64MiB);
}

TEST_P(FaultInjectionTest, KillMidSaveLeavesOldFileIntact) {
  for (const uint64_t threshold : {uint64_t{0}, uint64_t{64}, uint64_t{512}}) {
    fault::FailWritesAfter(threshold);
    const Status save = GetParam().build_and_save(*graph_, good_path_);
    fault::Reset();
    EXPECT_FALSE(save.ok()) << "save succeeded despite injected fault";
    // The old file must be byte-identical — the failed save only ever
    // touched the temp file.
    std::vector<uint8_t> after;
    ASSERT_TRUE(fault::ReadFileBytes(good_path_, &after).ok());
    EXPECT_EQ(after, good_bytes_);
    const Status st = Load(good_path_);
    EXPECT_TRUE(st.ok()) << st.ToString();
    std::filesystem::remove(good_path_ + ".tmp");
  }
}

TEST_P(FaultInjectionTest, KillMidSaveWithNoOldFileYieldsNotFound) {
  const std::string path = TempPath(std::string("rne_fault_") +
                                    GetParam().name + "_fresh.bin");
  std::filesystem::remove(path);
  fault::FailWritesAfter(64);
  const Status save = GetParam().build_and_save(*graph_, path);
  fault::Reset();
  EXPECT_FALSE(save.ok());
  const Status st = Load(path);
  EXPECT_EQ(st.code(), StatusCode::kNotFound) << st.ToString();
  std::filesystem::remove(path + ".tmp");
}

TEST_P(FaultInjectionTest, CrashBetweenFsyncAndRenameKeepsOldFile) {
  fault::CrashBeforeRename();
  const Status save = GetParam().build_and_save(*graph_, good_path_);
  fault::Reset();
  EXPECT_FALSE(save.ok());
  std::vector<uint8_t> after;
  ASSERT_TRUE(fault::ReadFileBytes(good_path_, &after).ok());
  EXPECT_EQ(after, good_bytes_);
  EXPECT_TRUE(Load(good_path_).ok());
  std::filesystem::remove(good_path_ + ".tmp");
}

INSTANTIATE_TEST_SUITE_P(AllIndexKinds, FaultInjectionTest,
                         ::testing::ValuesIn(AllIndexKinds()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace rne
