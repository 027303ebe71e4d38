#include "util/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "util/macros.h"

namespace rne {

Histogram::Histogram(double lo, double hi, size_t num_buckets)
    : lo_(lo),
      width_((hi - lo) / static_cast<double>(num_buckets)),
      counts_(num_buckets, 0),
      value_sums_(num_buckets, 0.0),
      aux_sums_(num_buckets, 0.0) {
  RNE_CHECK(num_buckets > 0);
  RNE_CHECK(hi > lo);
}

size_t Histogram::BucketFor(double key) const {
  if (key < lo_) return 0;
  const size_t b = static_cast<size_t>((key - lo_) / width_);
  return std::min(b, counts_.size() - 1);
}

void Histogram::Add(double key, double value, double aux) {
  const size_t b = BucketFor(key);
  counts_[b] += 1;
  value_sums_[b] += value;
  aux_sums_[b] += aux;
}

double Histogram::MeanValue(size_t bucket) const {
  RNE_CHECK(bucket < counts_.size());
  if (counts_[bucket] == 0) return 0.0;
  return value_sums_[bucket] / static_cast<double>(counts_[bucket]);
}

double Histogram::MeanAux(size_t bucket) const {
  RNE_CHECK(bucket < counts_.size());
  if (counts_[bucket] == 0) return 0.0;
  return aux_sums_[bucket] / static_cast<double>(counts_[bucket]);
}

double Histogram::BucketLower(size_t bucket) const {
  return lo_ + width_ * static_cast<double>(bucket);
}

double Histogram::BucketUpper(size_t bucket) const {
  return lo_ + width_ * static_cast<double>(bucket + 1);
}

size_t Histogram::ArgMaxMeanValue() const {
  size_t best = counts_.size();
  double best_mean = -1.0;
  for (size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    const double m = MeanValue(b);
    if (m > best_mean) {
      best_mean = m;
      best = b;
    }
  }
  return best;
}

std::string Histogram::ToString() const {
  std::string out;
  char line[128];
  for (size_t b = 0; b < counts_.size(); ++b) {
    std::snprintf(line, sizeof(line), "[%10.1f, %10.1f): n=%8zu mean=%.5f\n",
                  BucketLower(b), BucketUpper(b), counts_[b], MeanValue(b));
    out += line;
  }
  return out;
}

// ---------------------------------------------------------------------------
// LatencyHistogram

LatencyHistogram::LatencyHistogram() : counts_(kNumBuckets, 0) {}

size_t LatencyHistogram::BucketFor(int64_t nanos) {
  const uint64_t v = nanos > 0 ? static_cast<uint64_t>(nanos) : 0;
  constexpr uint64_t kSubMask = (uint64_t{1} << kSubBits) - 1;
  if (v < (uint64_t{2} << kSubBits)) return static_cast<size_t>(v);
  const unsigned msb = static_cast<unsigned>(std::bit_width(v)) - 1;
  const uint64_t sub = (v >> (msb - kSubBits)) & kSubMask;
  return ((static_cast<size_t>(msb) - kSubBits + 1) << kSubBits) +
         static_cast<size_t>(sub);
}

int64_t LatencyHistogram::BucketLowerBound(size_t bucket) {
  if (bucket < (size_t{2} << kSubBits)) return static_cast<int64_t>(bucket);
  const size_t octave = bucket >> kSubBits;
  const unsigned msb = static_cast<unsigned>(octave + kSubBits - 1);
  const uint64_t sub = bucket & ((size_t{1} << kSubBits) - 1);
  return static_cast<int64_t>((uint64_t{1} << msb) +
                              (sub << (msb - kSubBits)));
}

void LatencyHistogram::Record(int64_t nanos, uint64_t count) {
  if (count == 0) return;
  if (nanos < 0) nanos = 0;
  const size_t b = BucketFor(nanos);
  counts_[b] += count;
  total_ += count;
  sum_nanos_ += static_cast<double>(nanos) * static_cast<double>(count);
  max_nanos_ = std::max(max_nanos_, nanos);
  lo_bucket_ = std::min(lo_bucket_, b);
  hi_bucket_ = std::max(hi_bucket_, b);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.total_ == 0) return;
  for (size_t b = other.lo_bucket_; b <= other.hi_bucket_; ++b) {
    counts_[b] += other.counts_[b];
  }
  total_ += other.total_;
  sum_nanos_ += other.sum_nanos_;
  max_nanos_ = std::max(max_nanos_, other.max_nanos_);
  lo_bucket_ = std::min(lo_bucket_, other.lo_bucket_);
  hi_bucket_ = std::max(hi_bucket_, other.hi_bucket_);
}

void LatencyHistogram::Reset() {
  if (total_ != 0) {
    std::fill(counts_.begin() + static_cast<ptrdiff_t>(lo_bucket_),
              counts_.begin() + static_cast<ptrdiff_t>(hi_bucket_) + 1, 0);
  }
  total_ = 0;
  sum_nanos_ = 0.0;
  max_nanos_ = 0;
  lo_bucket_ = kNumBuckets;
  hi_bucket_ = 0;
}

double LatencyHistogram::MeanNanos() const {
  return total_ == 0 ? 0.0 : sum_nanos_ / static_cast<double>(total_);
}

double LatencyHistogram::PercentileNanos(double p) const {
  if (total_ == 0) return 0.0;
  if (p >= 100.0) return static_cast<double>(max_nanos_);
  const double clamped = std::max(p, 0.0);
  const auto target = static_cast<uint64_t>(std::max(
      1.0, std::ceil(clamped / 100.0 * static_cast<double>(total_))));
  uint64_t seen = 0;
  for (size_t b = lo_bucket_; b <= hi_bucket_; ++b) {
    seen += counts_[b];
    if (seen >= target) {
      const double lower = static_cast<double>(BucketLowerBound(b));
      const double upper = b + 1 < kNumBuckets
                               ? static_cast<double>(BucketLowerBound(b + 1))
                               : lower;
      return std::min((lower + upper) / 2.0,
                      static_cast<double>(max_nanos_));
    }
  }
  return static_cast<double>(max_nanos_);
}

}  // namespace rne
