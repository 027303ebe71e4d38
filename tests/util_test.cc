// Unit tests for the util substrate: Status/StatusOr, Rng, Histogram,
// TableWriter, binary serialization, the MmapFile wrapper, ThreadPool, and
// stats helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <set>
#include <stdexcept>

#include "util/arg_parser.h"
#include "util/crc32c.h"
#include "util/fault_injection.h"
#include "util/histogram.h"
#include "util/mmap_file.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table_writer.h"
#include "util/thread_pool.h"

namespace rne {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::IoError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.ToString(), "IO_ERROR: disk on fire");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::IoError("").code(),         Status::Corruption("").code(),
      Status::FailedPrecondition("").code()};
  EXPECT_EQ(codes.size(), 5u);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(7));
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> taken = std::move(v).value();
  EXPECT_EQ(*taken, 7);
}

// ------------------------------------------------------------------ Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int64_t x = rng.UniformInt(-5, 5);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 5);
  }
}

TEST(RngTest, UniformIndexCoversRange) {
  Rng rng(2);
  std::set<size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformIndex(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, WeightedIndexFavorsHeavyWeight) {
  Rng rng(3);
  const std::vector<double> weights = {0.0, 1.0, 9.0};
  size_t counts[3] = {0, 0, 0};
  for (int i = 0; i < 5000; ++i) counts[rng.WeightedIndex(weights)]++;
  EXPECT_EQ(counts[0], 0u);
  EXPECT_GT(counts[2], counts[1] * 5);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(4);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork();
  // The fork consumed state; the two streams should diverge.
  bool differs = false;
  for (int i = 0; i < 16 && !differs; ++i) {
    differs = a.UniformInt(0, 1 << 30) != child.UniformInt(0, 1 << 30);
  }
  EXPECT_TRUE(differs);
}

// ------------------------------------------------------------- Histogram

TEST(HistogramTest, BucketBoundaries) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.BucketLower(0), 0.0);
  EXPECT_DOUBLE_EQ(h.BucketUpper(0), 2.0);
  EXPECT_DOUBLE_EQ(h.BucketLower(4), 8.0);
}

TEST(HistogramTest, AddAndMeans) {
  Histogram h(0.0, 10.0, 5);
  h.Add(1.0, 4.0, 0.5);
  h.Add(1.5, 6.0, 1.5);
  h.Add(9.0, 2.0);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_DOUBLE_EQ(h.MeanValue(0), 5.0);
  EXPECT_DOUBLE_EQ(h.MeanAux(0), 1.0);
  EXPECT_EQ(h.count(4), 1u);
}

TEST(HistogramTest, OutOfRangeClamped) {
  Histogram h(0.0, 10.0, 5);
  h.Add(-3.0, 1.0);
  h.Add(42.0, 1.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(4), 1u);
}

TEST(HistogramTest, ArgMaxMeanValue) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.ArgMaxMeanValue(), 5u);  // empty
  h.Add(1.0, 1.0);
  h.Add(5.0, 10.0);
  EXPECT_EQ(h.ArgMaxMeanValue(), 2u);
}

// ----------------------------------------------------------- TableWriter

TEST(TableWriterTest, RendersAlignedTable) {
  TableWriter t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
}

TEST(TableWriterTest, CsvRoundTrip) {
  TableWriter t({"a", "b"});
  t.AddRow({"x,y", "2"});
  const std::string path = TempPath("rne_table_test.csv");
  ASSERT_TRUE(t.WriteCsv(path).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "\"x,y\",2");
  std::filesystem::remove(path);
}

TEST(TableWriterTest, FmtHelpers) {
  EXPECT_EQ(TableWriter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TableWriter::FmtSci(0.0000012), "1.200e-06");
}

// ------------------------------------------------------------- serialize

/// Where the payload of a file without sections starts: the header, then
/// an empty section table (count = 0) and its CRC.
constexpr size_t kSectionlessPayloadStart = kEnvelopeHeaderSize + 4 + 4;

TEST(SerializeTest, PodVectorStringRoundTrip) {
  const std::string path = TempPath("rne_serialize_test.bin");
  {
    BinaryWriter w(path, 0xABCD1234);
    ASSERT_TRUE(w.ok());
    w.WritePod<int64_t>(-17);
    w.WriteVector(std::vector<double>{1.0, 2.5, -3.0});
    w.WriteString("hello");
    ASSERT_TRUE(w.Finish().ok());
  }
  BinaryReader r(path, 0xABCD1234);
  ASSERT_TRUE(r.ok());
  int64_t i = 0;
  std::vector<double> v;
  std::string s;
  ASSERT_TRUE(r.ReadPod(&i));
  ASSERT_TRUE(r.ReadVector(&v));
  ASSERT_TRUE(r.ReadString(&s));
  EXPECT_EQ(i, -17);
  EXPECT_EQ(v, (std::vector<double>{1.0, 2.5, -3.0}));
  EXPECT_EQ(s, "hello");
  std::filesystem::remove(path);
}

TEST(SerializeTest, BadMagicRejected) {
  const std::string path = TempPath("rne_serialize_magic.bin");
  {
    BinaryWriter w(path, 0x11111111);
    ASSERT_TRUE(w.Finish().ok());
  }
  BinaryReader r(path, 0x22222222);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  std::filesystem::remove(path);
}

TEST(SerializeTest, MissingFileIsNotFound) {
  BinaryReader r("/nonexistent/definitely/missing.bin", 1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(SerializeTest, EmptyFileIsCorruption) {
  const std::string path = TempPath("rne_serialize_empty.bin");
  { std::ofstream out(path, std::ios::binary | std::ios::trunc); }
  BinaryReader r(path, 1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  std::filesystem::remove(path);
}

TEST(SerializeTest, TruncatedReadFails) {
  const std::string path = TempPath("rne_serialize_trunc.bin");
  {
    BinaryWriter w(path, 7);
    w.WritePod<uint32_t>(5);
    ASSERT_TRUE(w.Finish().ok());
  }
  BinaryReader r(path, 7);
  ASSERT_TRUE(r.ok());
  uint64_t big = 0;
  EXPECT_FALSE(r.ReadPod(&big));  // only 4 payload bytes available
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  std::filesystem::remove(path);
}

TEST(SerializeTest, SaveIsAtomicAndLeavesNoTempFile) {
  const std::string path = TempPath("rne_serialize_atomic.bin");
  {
    BinaryWriter w(path, 7);
    w.WritePod<uint32_t>(5);
    // Until Finish(), only the temp file exists — a concurrent reader of
    // `path` can never observe a partial save.
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(path + ".tmp"));
    ASSERT_TRUE(w.Finish().ok());
  }
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(SerializeTest, PayloadBitFlipFailsChecksum) {
  const std::string path = TempPath("rne_serialize_flip.bin");
  {
    BinaryWriter w(path, 7);
    w.WriteVector(std::vector<uint32_t>{1, 2, 3, 4});
    ASSERT_TRUE(w.Finish().ok());
  }
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(fault::ReadFileBytes(path, &bytes).ok());
  // Skip the 8-byte length prefix and element [0]: flip a bit inside [1].
  bytes[kSectionlessPayloadStart + 12] ^= 0x10;
  ASSERT_TRUE(fault::WriteFileBytes(path, bytes).ok());
  BinaryReader r(path, 7);
  ASSERT_TRUE(r.ok());
  std::vector<uint32_t> v;
  EXPECT_TRUE(r.ReadVector(&v));  // the flip is only caught by the CRC
  EXPECT_EQ(r.Finish().code(), StatusCode::kCorruption);
  std::filesystem::remove(path);
}

TEST(SerializeTest, CorruptVectorLengthFailsWithoutHugeAllocation) {
  const std::string path = TempPath("rne_serialize_len.bin");
  {
    BinaryWriter w(path, 7);
    w.WriteVector(std::vector<uint64_t>(8, 42));
    ASSERT_TRUE(w.Finish().ok());
  }
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(fault::ReadFileBytes(path, &bytes).ok());
  bytes[kSectionlessPayloadStart + 5] = 0xFF;  // length becomes ~2^45
  ASSERT_TRUE(fault::WriteFileBytes(path, bytes).ok());
  fault::Reset();
  BinaryReader r(path, 7);
  ASSERT_TRUE(r.ok());
  std::vector<uint64_t> v;
  EXPECT_FALSE(r.ReadVector(&v));
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_LT(fault::MaxAllocationObserved(), uint64_t{64} << 20);
  std::filesystem::remove(path);
}

TEST(SerializeTest, WrongIndexKindNamesBothKinds) {
  const std::string path = TempPath("rne_serialize_kind.bin");
  {
    BinaryWriter w(path, kQuantMagic);
    w.WritePod<uint32_t>(1);
    ASSERT_TRUE(w.Finish().ok());
  }
  BinaryReader r(path, kRneMagic);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("quantized RNE model"),
            std::string::npos);
  EXPECT_NE(r.status().message().find("expected a RNE model"),
            std::string::npos);
  std::filesystem::remove(path);
}

TEST(SerializeTest, InspectEnvelopeReportsMetadata) {
  const std::string path = TempPath("rne_serialize_inspect.bin");
  {
    BinaryWriter w(path, kRneMagic);
    w.WritePod<uint64_t>(99);
    ASSERT_TRUE(w.Finish().ok());
  }
  auto info = InspectEnvelope(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info.value().index_magic, kRneMagic);
  // A writer with no registered sections still emits version 2, with an
  // empty section table (see
  // EnvelopeFuzzTest.SectionlessWriterEmitsV2WithEmptyTable).
  EXPECT_EQ(info.value().format_version, 2u);
  EXPECT_TRUE(info.value().sections.empty());
  EXPECT_EQ(info.value().payload_size, 8u);
  std::filesystem::remove(path);
}

// --------------------------------------------------------------- MmapFile

TEST(MmapFileTest, MapsWholeFileReadOnly) {
  const std::string path = TempPath("rne_mmap_basic.bin");
  std::vector<uint8_t> pattern(1000);
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<uint8_t>((i * 131 + 7) & 0xFF);
  }
  ASSERT_TRUE(fault::WriteFileBytes(path, pattern).ok());
  auto file = MmapFile::Map(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_EQ(file.value()->size(), 1000u);
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(file.value()->data()[i], pattern[i]) << i;
  }
  // Advice is best-effort; all variants must be safe to issue.
  file.value()->Advise(MmapFile::Advice::kRandom);
  file.value()->AdviseRange(128, 512, MmapFile::Advice::kWillNeed);
  file.value()->AdviseRange(0, 1000, MmapFile::Advice::kDontNeed);
  EXPECT_EQ(file.value()->data()[999], pattern[999]);  // still readable
  std::filesystem::remove(path);
}

TEST(MmapFileTest, MissingFileIsNotFound) {
  EXPECT_EQ(MmapFile::Map(TempPath("rne_mmap_missing.bin")).status().code(),
            StatusCode::kNotFound);
}

// ----------------------------------------------------------------- crc32c

TEST(Crc32cTest, MatchesKnownVectors) {
  // RFC 3720 test vectors for CRC32C.
  const std::vector<uint8_t> zeros(32, 0x00);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  const std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
  const char* s = "123456789";
  EXPECT_EQ(Crc32c(s, 9), 0xE3069283u);
}

TEST(Crc32cTest, StreamingMatchesOneShot) {
  std::vector<uint8_t> data(1013);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  const uint32_t whole = Crc32c(data.data(), data.size());
  uint32_t crc = 0;
  for (size_t off = 0; off < data.size();) {
    const size_t chunk = std::min<size_t>(97, data.size() - off);
    crc = Crc32cExtend(crc, data.data() + off, chunk);
    off += chunk;
  }
  EXPECT_EQ(crc, whole);
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversIndexSpace) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(),
                   [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, ThrowingTaskIsRethrownFromWaitAndPoolSurvives) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The error is cleared by Wait() and the workers are still alive.
  std::atomic<int> counter{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPoolTest, FirstExceptionPerBatchWins) {
  ThreadPool pool(1);  // single worker => deterministic task order
  pool.Submit([] { throw std::runtime_error("first"); });
  pool.Submit([] { throw std::logic_error("second"); });
  try {
    pool.Wait();
    FAIL() << "Wait() should rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.ParallelFor(64,
                                [](size_t i) {
                                  if (i == 13) throw std::runtime_error("13");
                                }),
               std::runtime_error);
  // Pool remains usable after the failed ParallelFor.
  std::atomic<int> hits{0};
  pool.ParallelFor(8, [&hits](size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 8);
}

TEST(ThreadPoolTest, CurrentWorkerIndexIsStableAndBounded) {
  ThreadPool pool(3);
  EXPECT_EQ(ThreadPool::CurrentWorkerIndex(), ThreadPool::kNotAWorker);
  std::vector<std::atomic<int>> per_worker(3);
  pool.ParallelFor(256, [&per_worker](size_t) {
    const size_t w = ThreadPool::CurrentWorkerIndex();
    ASSERT_LT(w, 3u);
    per_worker[w].fetch_add(1);
  });
  int total = 0;
  for (auto& c : per_worker) total += c.load();
  EXPECT_EQ(total, 256);
}

// ------------------------------------------------------------- TaskGroup

TEST(TaskGroupTest, WaitBlocksOnlyOnOwnTasks) {
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future().share());
  TaskGroup blocked(&pool);
  blocked.Submit([gate] { gate.wait(); });

  // A second batch sharing the pool completes while the first is stuck.
  TaskGroup quick(&pool);
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) {
    quick.Submit([&counter] { counter.fetch_add(1); });
  }
  quick.Wait();
  EXPECT_EQ(counter.load(), 8);

  release.set_value();
  blocked.Wait();
}

TEST(TaskGroupTest, PoolDefaultWaitIgnoresGroupTasks) {
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future().share());
  TaskGroup blocked(&pool);
  blocked.Submit([gate] { gate.wait(); });

  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();  // must not wait on `blocked`'s task
  EXPECT_EQ(counter.load(), 1);

  release.set_value();
  blocked.Wait();
}

TEST(TaskGroupTest, ExceptionIsIsolatedToItsGroup) {
  ThreadPool pool(2);
  TaskGroup failing(&pool);
  TaskGroup healthy(&pool);
  failing.Submit([] { throw std::runtime_error("group"); });
  std::atomic<int> counter{0};
  healthy.Submit([&counter] { counter.fetch_add(1); });
  healthy.Wait();  // no throw
  EXPECT_EQ(counter.load(), 1);
  EXPECT_THROW(failing.Wait(), std::runtime_error);
  pool.Wait();  // default group untouched; no throw
}

TEST(TaskGroupTest, ConcurrentParallelForsDoNotCrossWait) {
  ThreadPool pool(4);
  std::atomic<int> a{0}, b{0};
  std::thread first([&] {
    pool.ParallelFor(500, [&a](size_t) { a.fetch_add(1); });
  });
  std::thread second([&] {
    pool.ParallelFor(500, [&b](size_t) { b.fetch_add(1); });
  });
  first.join();
  second.join();
  EXPECT_EQ(a.load(), 500);
  EXPECT_EQ(b.load(), 500);
}

// ------------------------------------------------------------- ArgParser

TEST(ArgParserTest, ParsesFlagsAndPositionals) {
  const char* argv[] = {"tool", "verify", "file.rne", "--dim", "64",
                        "--model", "m.rne"};
  auto args = ArgParser::Parse(7, const_cast<char**>(argv), 1);
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args.value().positionals().size(), 2u);
  EXPECT_EQ(args.value().positionals()[0], "verify");
  EXPECT_EQ(args.value().positionals()[1], "file.rne");
  EXPECT_EQ(args.value().Get("model", ""), "m.rne");
  EXPECT_EQ(args.value().GetInt("dim", 0).value(), 64);
  EXPECT_TRUE(args.value().Has("dim"));
  EXPECT_FALSE(args.value().Has("absent"));
  EXPECT_EQ(args.value().GetInt("absent", 7).value(), 7);
}

TEST(ArgParserTest, FlagMissingValueAtEndIsRejected) {
  const char* argv[] = {"tool", "query", "--model"};
  const auto args = ArgParser::Parse(3, const_cast<char**>(argv), 1);
  ASSERT_FALSE(args.ok());
  EXPECT_EQ(args.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(args.status().message().find("--model"), std::string::npos);
}

TEST(ArgParserTest, FlagFollowedByFlagIsRejectedNotShifted) {
  // The historical parser would have bound --s to "--t" and shifted every
  // later pair; this must be a parse error instead.
  const char* argv[] = {"tool", "query", "--s", "--t", "9", "--model", "m"};
  const auto args = ArgParser::Parse(7, const_cast<char**>(argv), 1);
  ASSERT_FALSE(args.ok());
  EXPECT_NE(args.status().message().find("--s"), std::string::npos);
}

TEST(ArgParserTest, NegativeNumbersAreValuesNotFlags) {
  const char* argv[] = {"tool", "--s", "-3"};
  const auto args = ArgParser::Parse(3, const_cast<char**>(argv), 1);
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args.value().GetInt("s", 0).value(), -3);
}

TEST(ArgParserTest, MalformedNumbersAreErrors) {
  const char* argv[] = {"tool", "--dim", "64x", "--rate", "fast"};
  const auto args = ArgParser::Parse(5, const_cast<char**>(argv), 1);
  ASSERT_TRUE(args.ok());
  EXPECT_FALSE(args.value().GetInt("dim", 0).ok());
  EXPECT_FALSE(args.value().GetDouble("rate", 0.0).ok());
  FlagReader flags(args.value());
  EXPECT_EQ(flags.Int("dim", 5), 5);  // fallback on error, status latched
  EXPECT_FALSE(flags.status().ok());
}

TEST(ArgParserTest, DeclaredSwitchesTakeNoValue) {
  const char* argv[] = {"tool", "--s", "5", "--exact", "--t", "7"};
  const auto args =
      ArgParser::Parse(6, const_cast<char**>(argv), 1, {"exact"});
  ASSERT_TRUE(args.ok());
  EXPECT_TRUE(args.value().Has("exact"));
  EXPECT_EQ(args.value().GetInt("s", 0).value(), 5);
  EXPECT_EQ(args.value().GetInt("t", 0).value(), 7);
  // Undeclared, the same argv is a missing-value error.
  EXPECT_FALSE(ArgParser::Parse(6, const_cast<char**>(argv), 1).ok());
}

TEST(ArgParserTest, RepeatedFlagIsRejectedWithClearError) {
  // Silently keeping one of the two values would hide which occurrence the
  // user meant (`--k 1 ... --k 2` across a long command line).
  const char* argv[] = {"tool", "--k", "1", "--k", "2"};
  const auto args = ArgParser::Parse(5, const_cast<char**>(argv), 1);
  ASSERT_FALSE(args.ok());
  EXPECT_EQ(args.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(args.status().message().find("--k"), std::string::npos);
  EXPECT_NE(args.status().message().find("more than once"),
            std::string::npos);
}

TEST(ArgParserTest, RepeatedSwitchIsRejectedToo) {
  const char* argv[] = {"tool", "--exact", "--exact"};
  const auto args =
      ArgParser::Parse(3, const_cast<char**>(argv), 1, {"exact"});
  ASSERT_FALSE(args.ok());
  EXPECT_EQ(args.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(args.status().message().find("--exact"), std::string::npos);
  // A switch mixed with distinct value flags stays fine.
  const char* ok_argv[] = {"tool", "--exact", "--k", "2"};
  EXPECT_TRUE(
      ArgParser::Parse(4, const_cast<char**>(ok_argv), 1, {"exact"}).ok());
}

TEST(ArgParserTest, EmbeddedNulTruncatesLikeExecveWould) {
  // argv strings are C strings: a NUL smuggled into an argument ends it
  // there. The parser must see only the prefix — no over-read past the
  // terminator, no phantom flags from the hidden tail.
  const char model[] = "m.rne\0--evil";  // sizeof includes both parts
  const char* argv[] = {"tool", "--model", model, "--k", "2"};
  const auto args = ArgParser::Parse(5, const_cast<char**>(argv), 1);
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args.value().Get("model", ""), "m.rne");
  EXPECT_FALSE(args.value().Has("evil"));
  EXPECT_EQ(args.value().GetInt("k", 0).value(), 2);
}

TEST(ArgParserTest, EqualsFormsAreLiteralKeysNotAssignments) {
  // The parser is space-separated only: "--flag=v" is the (odd) key
  // "flag=v" and "--flag=" the key "flag=", each still requiring a
  // following value. Neither may alias the plain "flag" key.
  const char* argv[] = {"tool", "--dim=", "8", "--rate=0.5", "x"};
  const auto args = ArgParser::Parse(5, const_cast<char**>(argv), 1);
  ASSERT_TRUE(args.ok());
  EXPECT_FALSE(args.value().Has("dim"));
  EXPECT_FALSE(args.value().Has("rate"));
  EXPECT_EQ(args.value().Get("dim=", ""), "8");
  EXPECT_EQ(args.value().Get("rate=0.5", ""), "x");
  // At end of argv the '=' form hits the ordinary missing-value error.
  const char* tail[] = {"tool", "--model="};
  const auto missing = ArgParser::Parse(2, const_cast<char**>(tail), 1);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);
}

TEST(ArgParserTest, DuplicateAfterInterveningSwitchStillRejected) {
  // The duplicate check must key on the flag name, not adjacency: a switch
  // between the two occurrences must not launder the repeat.
  const char* argv[] = {"tool", "--k", "1", "--exact", "--k", "2"};
  const auto args =
      ArgParser::Parse(6, const_cast<char**>(argv), 1, {"exact"});
  ASSERT_FALSE(args.ok());
  EXPECT_EQ(args.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(args.status().message().find("--k"), std::string::npos);
  EXPECT_NE(args.status().message().find("more than once"),
            std::string::npos);
}

TEST(ArgParserTest, HugeArgumentsRoundTripWithoutTruncation) {
  // A single >64 KiB token (both as a value and as a flag name) must be
  // stored and fetched intact — no fixed-size buffers anywhere.
  const std::string huge_value(70 * 1024, 'v');
  const std::string huge_flag = "--" + std::string(65 * 1024, 'k');
  const char* argv[] = {"tool", "--payload", huge_value.c_str(),
                        huge_flag.c_str(), "1"};
  const auto args = ArgParser::Parse(5, const_cast<char**>(argv), 1);
  ASSERT_TRUE(args.ok());
  EXPECT_EQ(args.value().Get("payload", ""), huge_value);
  EXPECT_EQ(args.value().Get(huge_flag.substr(2), ""), "1");
  // Huge numeric strings overflow strtol/strtod cleanly, not fatally.
  const std::string digits(65 * 1024, '9');
  const char* num_argv[] = {"tool", "--n", digits.c_str()};
  const auto num = ArgParser::Parse(3, const_cast<char**>(num_argv), 1);
  ASSERT_TRUE(num.ok());
  (void)num.value().GetInt("n", 0);      // ERANGE path, no crash
  (void)num.value().GetDouble("n", 0.0); // HUGE_VAL path, no crash
}

// ----------------------------------------------------- LatencyHistogram

TEST(LatencyHistogramTest, EmptyReportsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_DOUBLE_EQ(h.PercentileNanos(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.MeanNanos(), 0.0);
  EXPECT_EQ(h.MaxNanos(), 0);
}

TEST(LatencyHistogramTest, PercentilesAreOrderedAndBounded) {
  LatencyHistogram h;
  Rng rng(3);
  int64_t max_seen = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.UniformInt(100, 1000000);
    max_seen = std::max(max_seen, v);
    h.Record(v);
  }
  EXPECT_EQ(h.TotalCount(), 20000u);
  const double p50 = h.PercentileNanos(50.0);
  const double p95 = h.PercentileNanos(95.0);
  const double p99 = h.PercentileNanos(99.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, static_cast<double>(h.MaxNanos()));
  EXPECT_EQ(h.MaxNanos(), max_seen);
  // Uniform [100, 1e6]: the p50 bucket midpoint is within bucket error
  // (<= ~4.5% half-width, be generous) of the true median.
  EXPECT_NEAR(p50, 500000.0, 0.10 * 500000.0);
  EXPECT_DOUBLE_EQ(h.PercentileNanos(100.0),
                   static_cast<double>(h.MaxNanos()));
}

TEST(LatencyHistogramTest, SmallValuesAreExact) {
  LatencyHistogram h;
  for (int v = 0; v < 32; ++v) h.Record(v);
  // Values below 2^(sub-bits+1) land in exact unit buckets, so percentiles
  // are within half a unit of the true sample.
  EXPECT_NEAR(h.PercentileNanos(50.0), 15.5, 0.5 + 1e-9);
  EXPECT_LE(h.PercentileNanos(0.0), 0.5);
  EXPECT_EQ(h.MaxNanos(), 31);
  h.Record(-5);  // clamped to zero, not UB
  EXPECT_EQ(h.TotalCount(), 33u);
}

TEST(LatencyHistogramTest, MergeMatchesCombinedRecording) {
  LatencyHistogram a, b, combined;
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(1, 1 << 20);
    if (i % 2 == 0) {
      a.Record(v);
    } else {
      b.Record(v);
    }
    combined.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.TotalCount(), combined.TotalCount());
  EXPECT_EQ(a.MaxNanos(), combined.MaxNanos());
  EXPECT_DOUBLE_EQ(a.PercentileNanos(50.0), combined.PercentileNanos(50.0));
  EXPECT_DOUBLE_EQ(a.PercentileNanos(99.0), combined.PercentileNanos(99.0));
  EXPECT_DOUBLE_EQ(a.MeanNanos(), combined.MeanNanos());
  a.Reset();
  EXPECT_EQ(a.TotalCount(), 0u);
}

// Property: splitting one sample stream across any number of per-worker
// histograms and merging MUST be indistinguishable from recording into a
// single histogram — identical counts, mean, max, and every quantile (bucket
// counts add exactly, so there is no "within resolution" slack to grant).
// This is the contract the serving path's chunk-local flush relies on.
TEST(LatencyHistogramTest, ShardedMergeEqualsConcatForAnySplit) {
  for (const uint64_t seed : {1u, 7u, 42u}) {
    for (const size_t shards : {2u, 3u, 8u}) {
      Rng rng(seed);
      std::vector<LatencyHistogram> parts(shards);
      LatencyHistogram concat;
      for (int i = 0; i < 3000; ++i) {
        // Heavy-tailed: exercise unit buckets, mid octaves, and the tail.
        const auto v = rng.UniformInt(0, int64_t{1} << rng.UniformIndex(40));
        parts[rng.UniformIndex(shards)].Record(v);
        concat.Record(v);
      }
      LatencyHistogram merged;
      for (const auto& p : parts) merged.Merge(p);
      EXPECT_EQ(merged.TotalCount(), concat.TotalCount());
      EXPECT_EQ(merged.MaxNanos(), concat.MaxNanos());
      EXPECT_DOUBLE_EQ(merged.MeanNanos(), concat.MeanNanos());
      for (const double p : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
        EXPECT_DOUBLE_EQ(merged.PercentileNanos(p), concat.PercentileNanos(p))
            << "seed=" << seed << " shards=" << shards << " p=" << p;
      }
    }
  }
}

TEST(LatencyHistogramTest, MergeWithEmptyIsIdentity) {
  LatencyHistogram h, empty;
  for (int i = 0; i < 50; ++i) h.Record(1000 + i);
  const double p50_before = h.PercentileNanos(50.0);
  h.Merge(empty);
  EXPECT_EQ(h.TotalCount(), 50u);
  EXPECT_DOUBLE_EQ(h.PercentileNanos(50.0), p50_before);
  empty.Merge(h);
  EXPECT_EQ(empty.TotalCount(), 50u);
  EXPECT_DOUBLE_EQ(empty.PercentileNanos(50.0), p50_before);
}

// Regression for the populated-range optimization: a Reset() after large
// samples must not leave stale range state that skews later percentiles.
TEST(LatencyHistogramTest, ResetThenReuseIsClean) {
  LatencyHistogram h;
  h.Record(int64_t{1} << 40);
  h.Record(int64_t{1} << 50);
  h.Reset();
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_DOUBLE_EQ(h.PercentileNanos(50.0), 0.0);
  for (int v = 10; v < 20; ++v) h.Record(v);
  EXPECT_EQ(h.TotalCount(), 10u);
  EXPECT_EQ(h.MaxNanos(), 19);
  EXPECT_NEAR(h.PercentileNanos(50.0), 14.5, 0.5 + 1e-9);
  EXPECT_NEAR(h.PercentileNanos(100.0), 19.0, 1e-9);
}

// Property: any set of well-formed `--key value` pairs round-trips through
// Parse() regardless of order, with positionals preserved in sequence.
TEST(ArgParserTest, RandomFlagSetsRoundTrip) {
  Rng rng(11);
  for (int iter = 0; iter < 20; ++iter) {
    std::map<std::string, std::string> want;
    std::vector<std::string> tokens = {"tool"};
    const size_t flags = 1 + rng.UniformIndex(6);
    for (size_t i = 0; i < flags; ++i) {
      const std::string key = "flag" + std::to_string(i);
      const std::string value = std::to_string(rng.UniformInt(-1000, 1000));
      want[key] = value;
      tokens.push_back("--" + key);
      tokens.push_back(value);
    }
    // Insert at a pair boundary only — a positional between a flag and its
    // value would (correctly) be taken as the flag's value.
    tokens.insert(tokens.begin() + 1 + 2 * rng.UniformIndex(flags + 1),
                  "positional");
    std::vector<char*> argv;
    argv.reserve(tokens.size());
    for (auto& t : tokens) argv.push_back(t.data());
    auto parsed = ArgParser::Parse(static_cast<int>(argv.size()), argv.data());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    for (const auto& [key, value] : want) {
      EXPECT_EQ(parsed.value().Get(key, "<missing>"), value) << key;
    }
    ASSERT_EQ(parsed.value().positionals().size(), 1u);
    EXPECT_EQ(parsed.value().positionals()[0], "positional");
  }
}

TEST(ArgParserTest, RequireKnownNamesTheUnknownFlag) {
  std::vector<std::string> tokens = {"tool", "--threads", "4", "--thread",
                                     "2"};
  std::vector<char*> argv;
  for (auto& t : tokens) argv.push_back(t.data());
  auto parsed = ArgParser::Parse(static_cast<int>(argv.size()), argv.data());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().RequireKnown({"threads", "thread"}).ok());
  const Status bad = parsed.value().RequireKnown({"threads", "queue"});
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.ToString().find("--thread"), std::string::npos)
      << bad.ToString();
}

// ----------------------------------------------------------------- stats

TEST(StatsTest, MeanVarianceQuantile) {
  const std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Mean(v), 3.0);
  EXPECT_DOUBLE_EQ(Variance(v), 2.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.99), 5.0);
  EXPECT_DOUBLE_EQ(Min(v), 1.0);
  EXPECT_DOUBLE_EQ(Max(v), 5.0);
}

TEST(StatsTest, EmptyMeanIsZero) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
}

}  // namespace
}  // namespace rne
