// Request streams shared by the load generator (client.cc) and the
// in-process tracer (trace.cc), so both replay byte-identical traffic for a
// given (workload, seed). Randomness is a self-contained SplitMix64, not
// <random>, so the wire bytes depend only on the seed and not on the
// standard library's distribution implementations.
#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace servebench {

enum class Kind { kQuery, kKnn };
enum class Dist { kUniform, kZipf };

/// Traffic shape of one workload. Parsed from the --kind/--dist flags that
/// run.py passes to both binaries.
struct Spec {
  Kind kind = Kind::kQuery;
  Dist dist = Dist::kUniform;
  size_t vertices = 0;
  /// Neighbour count of every KNN request.
  size_t knn_k = 10;
  double zipf_s = 1.0;
};

/// Fills `spec->kind`/`spec->dist` from flag values; false on an unknown
/// name.
bool ParseSpec(const std::string& kind, const std::string& dist, Spec* spec);

/// Stream ids: every consumer of randomness draws from its own stream so
/// changing one phase never shifts another phase's bytes.
enum StreamId : uint64_t {
  kClosedStream = 100,  // + connection index
  kOpenStream = 200,
  kArrivalStream = 300,
  kProbeStream = 400,
  kSampleStream = 500,
};

class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double Uniform01() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n > 0. The modulo bias is below 2^-40 for n < 2^24.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Seed of stream `id` under workload seed `seed`.
uint64_t StreamSeed(uint64_t seed, uint64_t id);

/// One protocol request: QUERY s t, or KNN s k (then `t` holds k).
struct Req {
  Kind kind = Kind::kQuery;
  uint32_t s = 0;
  uint32_t t = 0;
};

/// Appends the request's wire form ("QUERY s t\n" / "KNN s k\n").
void AppendWire(const Req& r, std::string* out);

/// Zipf(s) rank sampler over [0, n) by inverse CDF.
class ZipfTable {
 public:
  ZipfTable(size_t n, double s);
  size_t Sample(double u) const;

 private:
  std::vector<double> cdf_;
};

/// Zipf pair universe: 4 |V| ranks (16,384 pairs at 4,096 vertices), which
/// fits the server's default 65,536-entry result cache.
size_t PairUniverse(size_t vertices);

/// Maps a rank to a fixed (s, t) pair by an integer mix, so hot ranks are
/// spread over the whole graph. Independent of the seed: the seed picks
/// which ranks are drawn, not what they mean.
std::pair<uint32_t, uint32_t> PairForRank(size_t rank, size_t vertices);

/// Infinite deterministic request sequence for (spec, seed, stream id).
class RequestStream {
 public:
  RequestStream(const Spec& spec, uint64_t seed, uint64_t id);
  Req Next();

 private:
  Spec spec_;
  SplitMix64 rng_;
  std::shared_ptr<const ZipfTable> zipf_;
};

/// Poisson arrival offsets (seconds from phase start) at `rate` per second.
class ArrivalClock {
 public:
  ArrivalClock(double rate, uint64_t seed, uint64_t id);
  /// Offset of the next arrival.
  double Next();

 private:
  double rate_;
  SplitMix64 rng_;
  double t_ = 0.0;
};

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
