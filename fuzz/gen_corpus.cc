// Seed-corpus generator. Writes the committed seed inputs under
// fuzz/corpus/<target>/ from *real* artifacts: both persistable index kinds
// built on a small generator graph and saved through the production writers,
// plus protocol transcripts shaped like bench_serve client traffic and
// realistic tool argv vectors. Run from the repo root after changing the
// on-disk format or the harness input layouts:
//
//   ./build/fuzz/gen_fuzz_corpus fuzz/corpus
//
// Regenerated files are committed. Fixed seeds make every byte repeat
// except in Rne_v2.bin, whose metadata payload ends with the model's build
// provenance: the 8-byte build wall time (build_seconds) differs on every
// run, and so does the 4-byte payload CRC that follows and covers it; the
// 4-byte build_threads before it follows the machine's hardware threads.
// Two regenerations therefore differ in those 12 (or 16) bytes only, and a
// seed whose other bytes change means the writer's format changed.
#include <sys/stat.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "tests/index_kinds.h"
#include "util/fault_injection.h"
#include "util/serialize.h"

namespace rne {
namespace {

// Must match envelope_fuzzer.cc's selector layout.
constexpr uint32_t kKindMagics[] = {kRneMagic, kQuantMagic};
constexpr size_t kNumKinds = sizeof(kKindMagics) / sizeof(kKindMagics[0]);

size_t KindIndex(uint32_t magic) {
  for (size_t i = 0; i < kNumKinds; ++i) {
    if (kKindMagics[i] == magic) return i;
  }
  return 0;
}

bool WriteCorpusFile(const std::string& path,
                     const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "gen_corpus: cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "gen_corpus: %s (%zu bytes)\n", path.c_str(),
               bytes.size());
  return true;
}

std::vector<uint8_t> Bytes(const std::string& text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

bool EmitEnvelopeSeeds(const std::string& dir, const Graph& g) {
  const std::string scratch = dir + "/.scratch.bin";
  bool ok = true;
  for (const IndexKindParam& kind : AllIndexKinds()) {
    const Status saved = kind.build_and_save(g, scratch);
    if (!saved.ok()) {
      std::fprintf(stderr, "gen_corpus: build %s failed: %s\n", kind.name,
                   saved.ToString().c_str());
      ok = false;
      continue;
    }
    std::vector<uint8_t> file;
    if (!fault::ReadFileBytes(scratch, &file).ok()) return false;
    // Selector byte: kind in the low radix, all load modes enabled above.
    std::vector<uint8_t> input;
    input.push_back(static_cast<uint8_t>(KindIndex(kind.magic) +
                                         kNumKinds * 7));
    input.insert(input.end(), file.begin(), file.end());
    ok = WriteCorpusFile(dir + "/" + std::string(kind.name) + "_v2.bin",
                         input) &&
         ok;
  }
  (void)std::remove(scratch.c_str());
  return ok;
}

bool EmitProtocolSeeds(const std::string& dir) {
  // Shaped like real bench_serve pipelined traffic plus every control verb,
  // CRLF framing, blanks, and malformed edges the tests pin.
  bool ok = true;
  ok = WriteCorpusFile(
           dir + "/pipelined_queries.txt",
           Bytes("QUERY 0 5\nQUERY 3 12\nKNN 0 3\nQUERY 7 7\nQUERY 1 14\n"
                 "KNN 9 1\nQUERY 2 13\nQUERY 4 11\nSTATS\n")) &&
       ok;
  ok = WriteCorpusFile(dir + "/control_verbs.txt",
                       Bytes("STATS\nMETRICS\nRELOAD\nRELOAD /tmp/x.model\n"
                             "QUERY 0 1\nMETRICS\n")) &&
       ok;
  ok = WriteCorpusFile(dir + "/crlf_and_blanks.txt",
                       Bytes("QUERY 0 1\r\n\r\n\nKNN 2 2\r\nQUERY 5 6\n")) &&
       ok;
  ok = WriteCorpusFile(
           dir + "/malformed.txt",
           Bytes("QUERY 1\nQUERY a b\nQUERY -1 5\nKNN\nKNN 3 -2\n"
                 "FROBNICATE 1 2\nQUERY 4294967296 0\nKNN 0 99999999\n"
                 "QUERY  0\t1\nquery 0 1\n")) &&
       ok;
  ok = WriteCorpusFile(dir + "/partial_tail.txt",
                       Bytes("QUERY 0 1\nQUERY 2 3")) &&
       ok;
  ok = WriteCorpusFile(
           dir + "/oversized_line.txt",
           Bytes("QUERY 0 1\n" + std::string(300, 'A') + "\nKNN 1 2\n")) &&
       ok;
  return ok;
}

bool EmitArgparserSeeds(const std::string& dir) {
  // NUL-separated argv vectors mirroring real rne_server / bench_serve
  // invocations plus the negative space the parser must reject cleanly.
  const std::string nul(1, '\0');
  bool ok = true;
  ok = WriteCorpusFile(dir + "/server_invocation.bin",
                       Bytes("--model" + nul + "bench.model" + nul +
                             "--mmap" + nul + "--listen" + nul + "4719" +
                             nul + "--cache" + nul + "4096")) &&
       ok;
  ok = WriteCorpusFile(dir + "/bench_invocation.bin",
                       Bytes("--threads" + nul + "2" + nul + "--zipf" + nul +
                             "1.0" + nul + "--batches" + nul + "1,64" + nul +
                             "positional")) &&
       ok;
  ok = WriteCorpusFile(dir + "/negative_space.bin",
                       Bytes("--" + nul + "--flag=" + nul + "--dup" + nul +
                             "1" + nul + "--dup" + nul + "2" + nul +
                             "--threads" + nul + "0x10" + nul + "--zipf" +
                             nul + "1e999" + nul + "--missing")) &&
       ok;
  return ok;
}

}  // namespace
}  // namespace rne

int main(int argc, char** argv) {
  const std::string root = argc > 1 ? argv[1] : "fuzz/corpus";
  for (const char* sub : {"envelope", "protocol", "argparser"}) {
    const std::string dir = root + "/" + sub;
    ::mkdir(root.c_str(), 0755);
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "gen_corpus: cannot create %s\n", dir.c_str());
      return 1;
    }
  }
  rne::RoadNetworkConfig cfg;
  cfg.rows = 6;
  cfg.cols = 6;
  cfg.seed = 7;
  const rne::Graph graph = rne::MakeRoadNetwork(cfg);
  bool ok = rne::EmitEnvelopeSeeds(root + "/envelope", graph);
  ok = rne::EmitProtocolSeeds(root + "/protocol") && ok;
  ok = rne::EmitArgparserSeeds(root + "/argparser") && ok;
  return ok ? 0 : 1;
}
