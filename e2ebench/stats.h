// Small order statistics over latency samples and probe slices.
#ifndef OODB_E2EBENCH_STATS_H_
#define OODB_E2EBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace oodb::e2e {

/// The q-quantile (0 <= q <= 1) of `v` by linear interpolation between
/// closest ranks; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Geometric mean of positive values; 0 when any value is not positive.
inline double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) {
    if (!(x > 0.0)) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// The highest of p99.9 / p99 / p90 / p75 that still has at least ten
/// samples beyond it, as a fraction (0.999 ...); 0 when the sample is too
/// small for any (fewer than forty samples: report the median alone).
inline double TailQuantile(size_t n) {
  for (double q : {0.999, 0.99, 0.9, 0.75}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0.0;
}

/// Latency samples as counts in log-spaced buckets 0.1% wide (100 ns to
/// 1000 s): memory stays fixed however long the run, so peak RSS measures
/// the program rather than the benchmark's sample storage.
class LatencyHistogram {
 public:
  void Add(double ms) {
    int b = ms <= kMinMs ? 0
                         : static_cast<int>(std::log(ms / kMinMs) / kLogGrowth);
    ++counts_[std::min(b, kBuckets - 1)];
    ++n_;
  }

  int64_t count() const { return n_; }

  /// The q-quantile, as the geometric centre of the bucket holding it; 0
  /// for an empty histogram.
  double Quantile(double q) const {
    if (n_ == 0) return 0.0;
    const int64_t rank = static_cast<int64_t>(q * static_cast<double>(n_ - 1));
    int64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += counts_[b];
      if (seen > rank) return kMinMs * std::exp((b + 0.5) * kLogGrowth);
    }
    return 0.0;
  }

  double Median() const { return Quantile(0.5); }

 private:
  static constexpr double kMinMs = 1e-4;
  static constexpr double kLogGrowth = 0.0009995;  // ln(1.001)
  static constexpr int kBuckets = 16200;           // up to 1000 s

  std::vector<int64_t> counts_ = std::vector<int64_t>(kBuckets);
  int64_t n_ = 0;
};

}  // namespace oodb::e2e

#endif  // OODB_E2EBENCH_STATS_H_
