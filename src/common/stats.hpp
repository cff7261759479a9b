#pragma once

// Small statistics helpers used by benches and the MAC simulator: running
// mean/variance (Welford), rate counters, and percentile extraction.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

namespace carpool {

/// Nearest-rank index of the p-quantile among `n` ascending samples:
/// round(p * (n - 1)), or 0 when `n` is 0. Throws std::invalid_argument
/// unless 0 <= p <= 1; NaN fails that test too, before any integer cast.
[[nodiscard]] inline std::size_t nearest_rank(double p, std::size_t n) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument("percentile: p outside [0, 1]");
  }
  if (n == 0) return 0;
  const auto rank =
      static_cast<std::size_t>(p * static_cast<double>(n - 1) + 0.5);
  return std::min(rank, n - 1);
}

/// Running mean / variance without storing samples (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = count_ == 1 ? x : std::min(min_, x);
    max_ = count_ == 1 ? x : std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  [[nodiscard]] double variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }

  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Stores samples; offers percentiles, the empirical CDF, and histograms.
/// The sorted order is computed lazily and cached (invalidated by add), so
/// extracting several percentiles sorts once, not per query.
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_dirty_ = true;
  }

  [[nodiscard]] std::size_t size() const noexcept { return samples_.size(); }
  [[nodiscard]] bool empty() const noexcept { return samples_.empty(); }

  [[nodiscard]] double mean() const {
    if (samples_.empty()) return 0.0;
    double sum = 0.0;
    for (const double s : samples_) sum += s;
    return sum / static_cast<double>(samples_.size());
  }

  /// p in [0, 1]; nearest-rank percentile.
  [[nodiscard]] double percentile(double p) const {
    if (samples_.empty()) throw std::logic_error("percentile of empty set");
    const std::vector<double>& s = sorted();
    return s[nearest_rank(p, s.size())];
  }

  /// Empirical CDF value at x: fraction of samples <= x.
  [[nodiscard]] double cdf(double x) const {
    if (samples_.empty()) return 0.0;
    const std::vector<double>& s = sorted();
    const auto below = static_cast<std::size_t>(
        std::distance(s.begin(), std::upper_bound(s.begin(), s.end(), x)));
    return static_cast<double>(below) / static_cast<double>(s.size());
  }

  /// Equal-width histogram over [lo, hi): counts[i] holds the samples in
  /// [lo + i*w, lo + (i+1)*w); values outside the range clamp to the first
  /// or last bin. The obs:: exporters reuse this to serialize delay CDFs.
  [[nodiscard]] std::vector<std::size_t> histogram(std::size_t bins,
                                                   double lo,
                                                   double hi) const {
    if (bins == 0) throw std::invalid_argument("histogram: zero bins");
    if (!(lo < hi)) throw std::invalid_argument("histogram: empty range");
    std::vector<std::size_t> counts(bins, 0);
    const double width = (hi - lo) / static_cast<double>(bins);
    for (const double s : samples_) {
      const auto idx = static_cast<std::size_t>(
          std::clamp((s - lo) / width, 0.0, static_cast<double>(bins - 1)));
      ++counts[idx];
    }
    return counts;
  }

  /// Histogram auto-ranged to [min, max] of the samples.
  [[nodiscard]] std::vector<std::size_t> histogram(std::size_t bins) const {
    if (samples_.empty()) return std::vector<std::size_t>(bins, 0);
    const std::vector<double>& s = sorted();
    const double lo = s.front();
    const double hi = s.back();
    if (lo == hi) {
      // All samples identical: everything lands in the first bin.
      std::vector<std::size_t> counts(bins, 0);
      if (bins > 0) counts[0] = s.size();
      return counts;
    }
    return histogram(bins, lo, std::nextafter(hi, kDoubleMax));
  }

  [[nodiscard]] const std::vector<double>& samples() const noexcept {
    return samples_;
  }

  /// Cached ascending order of the samples.
  [[nodiscard]] const std::vector<double>& sorted() const {
    if (sorted_dirty_) {
      sorted_ = samples_;
      std::sort(sorted_.begin(), sorted_.end());
      sorted_dirty_ = false;
    }
    return sorted_;
  }

 private:
  static constexpr double kDoubleMax = std::numeric_limits<double>::max();

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_dirty_ = false;
};

/// Counts successes over trials; reports a ratio (e.g. BER, PER, FPR).
class RatioCounter {
 public:
  void add(bool hit) noexcept {
    ++trials_;
    if (hit) ++hits_;
  }

  void add(std::size_t hits, std::size_t trials) noexcept {
    hits_ += hits;
    trials_ += trials;
  }

  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t trials() const noexcept { return trials_; }

  [[nodiscard]] double ratio() const noexcept {
    return trials_ == 0 ? 0.0
                        : static_cast<double>(hits_) /
                              static_cast<double>(trials_);
  }

 private:
  std::size_t hits_ = 0;
  std::size_t trials_ = 0;
};

}  // namespace carpool
