// Fixed-bucket histogram used for error-vs-distance analyses (Fig 8 / Fig 17)
// and a log-bucketed latency histogram for serving-path percentiles.
#ifndef RNE_UTIL_HISTOGRAM_H_
#define RNE_UTIL_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rne {

/// Equal-width histogram over [lo, hi) with `num_buckets` buckets.
/// Values outside the range are clamped into the first/last bucket.
/// Tracks per-bucket count, sum, and sum of an auxiliary metric so the
/// evaluation code can report e.g. mean relative error per distance interval.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t num_buckets);

  /// Records `value` in the bucket for `key`, accumulating `aux` alongside.
  void Add(double key, double value, double aux = 0.0);

  size_t num_buckets() const { return counts_.size(); }
  size_t count(size_t bucket) const { return counts_[bucket]; }
  double MeanValue(size_t bucket) const;
  double MeanAux(size_t bucket) const;
  /// [lower, upper) bounds of a bucket.
  double BucketLower(size_t bucket) const;
  double BucketUpper(size_t bucket) const;

  /// Index of the bucket with the largest mean value among non-empty buckets;
  /// returns num_buckets() if all buckets are empty.
  size_t ArgMaxMeanValue() const;

  /// Multi-line "lower..upper: count mean" rendering for logs.
  std::string ToString() const;

 private:
  size_t BucketFor(double key) const;

  double lo_;
  double width_;
  std::vector<size_t> counts_;
  std::vector<double> value_sums_;
  std::vector<double> aux_sums_;
};

/// Log-bucketed histogram of nanosecond latencies: geometric buckets with 16
/// sub-buckets per power of two (<= ~4.5% relative bucket width), so queue
/// waits spanning ns..minutes coexist in one fixed ~10 KiB structure with no
/// per-sample allocation. Percentile() linearly scans the cumulative counts.
/// Not thread-safe: record into per-worker instances and Merge() snapshots.
class LatencyHistogram {
 public:
  LatencyHistogram();

  /// Records `count` samples of `nanos`; negative values count as zero.
  void Record(int64_t nanos, uint64_t count = 1);
  /// Adds every sample of `other` into this histogram.
  void Merge(const LatencyHistogram& other);
  void Reset();

  size_t TotalCount() const { return total_; }
  double MeanNanos() const;
  int64_t MaxNanos() const { return max_nanos_; }
  /// Value at percentile `p` in [0, 100] (bucket midpoint; exact for the
  /// recorded max). Returns 0 when empty.
  double PercentileNanos(double p) const;

 private:
  static size_t BucketFor(int64_t nanos);
  static int64_t BucketLowerBound(size_t bucket);

  static constexpr size_t kSubBits = 4;  // 16 sub-buckets per octave
  static constexpr size_t kNumBuckets = (64 - kSubBits) << kSubBits;

  std::vector<uint64_t> counts_;
  size_t total_ = 0;
  double sum_nanos_ = 0.0;
  int64_t max_nanos_ = 0;
  // Populated bucket range [lo_bucket_, hi_bucket_]; a chunk-local histogram
  // holds a few dozen samples in a handful of buckets, so bounding Merge()
  // and PercentileNanos() to this range keeps the serving path's per-chunk
  // flush from walking all ~960 buckets.
  size_t lo_bucket_ = kNumBuckets;
  size_t hi_bucket_ = 0;
};

}  // namespace rne

#endif  // RNE_UTIL_HISTOGRAM_H_
