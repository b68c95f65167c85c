#ifndef TELL_SIM_HISTOGRAM_H_
#define TELL_SIM_HISTOGRAM_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace tell::sim {

/// Log-bucketed latency histogram (RocksDB-statistics style). Records values
/// in nanoseconds; reports mean, standard deviation and percentiles. Not
/// thread safe — each worker keeps its own and they are merged at the end.
class Histogram {
 public:
  Histogram() : buckets_(kNumBuckets, 0) {}

  void Record(uint64_t value_ns) {
    ++count_;
    sum_ += static_cast<double>(value_ns);
    sum_squares_ +=
        static_cast<double>(value_ns) * static_cast<double>(value_ns);
    if (value_ns < min_) min_ = value_ns;
    if (value_ns > max_) max_ = value_ns;
    ++buckets_[BucketFor(value_ns)];
  }

  void Merge(const Histogram& other) {
    count_ += other.count_;
    sum_ += other.sum_;
    sum_squares_ += other.sum_squares_;
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
    for (size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  }

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }

  double Mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  double StdDev() const {
    if (count_ < 2) return 0.0;
    double n = static_cast<double>(count_);
    double variance = (sum_squares_ - sum_ * sum_ / n) / (n - 1);
    return variance > 0 ? std::sqrt(variance) : 0.0;
  }

  /// Approximate percentile (p in [0,100]): finds the bucket holding the
  /// sample of that rank and interpolates linearly inside the bucket's
  /// range clamped to [min, max], so a percentile never leaves the range of
  /// recorded values.
  uint64_t Percentile(double p) const {
    if (count_ == 0) return 0;
    double rank = static_cast<double>(count_) * p / 100.0;
    uint64_t threshold = static_cast<uint64_t>(std::ceil(rank));
    uint64_t cumulative = 0;
    for (size_t i = 0; i < kNumBuckets; ++i) {
      if (buckets_[i] == 0) continue;
      if (cumulative + buckets_[i] >= threshold) {
        double lo = std::max(BucketLow(i), static_cast<double>(min_));
        double hi = std::min(BucketLow(i + 1), static_cast<double>(max_));
        double fraction = (rank - static_cast<double>(cumulative)) /
                          static_cast<double>(buckets_[i]);
        uint64_t value = static_cast<uint64_t>(lo + fraction * (hi - lo));
        return std::clamp(value, min_, max_);
      }
      cumulative += buckets_[i];
    }
    return max_;
  }

  void Reset() {
    count_ = 0;
    sum_ = 0;
    sum_squares_ = 0;
    min_ = UINT64_MAX;
    max_ = 0;
    buckets_.assign(kNumBuckets, 0);
  }

 private:
  // Buckets: [0,1), then geometric with ratio 2^(1/4) — 4 buckets per
  // doubling gives ~19% relative error, plenty for percentile reporting.
  static constexpr size_t kNumBuckets = 256;

  static size_t BucketFor(uint64_t v) {
    if (v < 1) return 0;
    double idx = std::log2(static_cast<double>(v)) * 4.0;
    size_t b = static_cast<size_t>(idx) + 1;
    return b >= kNumBuckets ? kNumBuckets - 1 : b;
  }

  /// Lower bound of bucket b (and upper bound of bucket b - 1).
  static double BucketLow(size_t b) {
    return b == 0 ? 0.0 : std::exp2(static_cast<double>(b - 1) / 4.0);
  }

  uint64_t count_ = 0;
  double sum_ = 0;
  double sum_squares_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
  std::vector<uint64_t> buckets_;
};

}  // namespace tell::sim

#endif  // TELL_SIM_HISTOGRAM_H_
