#include "workload.h"

#include <algorithm>
#include <cmath>
#include <tuple>

namespace servebench {

bool ParseSpec(const std::string& kind, const std::string& dist, Spec* spec) {
  if (kind == "query") {
    spec->kind = Kind::kQuery;
  } else if (kind == "knn") {
    spec->kind = Kind::kKnn;
  } else {
    return false;
  }
  if (dist == "uniform") {
    spec->dist = Dist::kUniform;
  } else if (dist == "zipf") {
    spec->dist = Dist::kZipf;
  } else {
    return false;
  }
  return true;
}

uint64_t StreamSeed(uint64_t seed, uint64_t id) {
  SplitMix64 mix(seed * 0x2545f4914f6cdd1dULL + id);
  return mix.Next();
}

void AppendWire(const Req& r, std::string* out) {
  out->append(r.kind == Kind::kQuery ? "QUERY " : "KNN ");
  out->append(std::to_string(r.s));
  out->push_back(' ');
  out->append(std::to_string(r.t));
  out->push_back('\n');
}

ZipfTable::ZipfTable(size_t n, double s) : cdf_(n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t ZipfTable::Sample(double u) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

size_t PairUniverse(size_t vertices) { return 4 * vertices; }

std::pair<uint32_t, uint32_t> PairForRank(size_t rank, size_t vertices) {
  SplitMix64 mix(static_cast<uint64_t>(rank));
  const uint64_t z = mix.Next();
  return {static_cast<uint32_t>((z >> 32) % vertices),
          static_cast<uint32_t>((z & 0xffffffffULL) % vertices)};
}

RequestStream::RequestStream(const Spec& spec, uint64_t seed, uint64_t id)
    : spec_(spec), rng_(StreamSeed(seed, id)) {
  if (spec_.dist == Dist::kZipf) {
    zipf_ = std::make_shared<const ZipfTable>(PairUniverse(spec_.vertices),
                                              spec_.zipf_s);
  }
}

Req RequestStream::Next() {
  Req r;
  r.kind = spec_.kind;
  if (spec_.kind == Kind::kKnn) {
    r.s = static_cast<uint32_t>(rng_.Below(spec_.vertices));
    r.t = static_cast<uint32_t>(spec_.knn_k);
    return r;
  }
  if (spec_.dist == Dist::kZipf) {
    std::tie(r.s, r.t) =
        PairForRank(zipf_->Sample(rng_.Uniform01()), spec_.vertices);
    return r;
  }
  r.s = static_cast<uint32_t>(rng_.Below(spec_.vertices));
  r.t = static_cast<uint32_t>(rng_.Below(spec_.vertices));
  return r;
}

ArrivalClock::ArrivalClock(double rate, uint64_t seed, uint64_t id)
    : rate_(rate), rng_(StreamSeed(seed, id)) {}

double ArrivalClock::Next() {
  t_ += -std::log1p(-rng_.Uniform01()) / rate_;
  return t_;
}

}  // namespace servebench
