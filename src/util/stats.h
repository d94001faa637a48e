// Streaming and empirical statistics used by the measurement pipeline.
//
// RunningStat   - Welford one-pass mean/variance with min/max.
// Histogram     - fixed-width bins over [lo, hi) with under/overflow.
// EmpiricalCdf  - sample collector with quantiles and CDF evaluation.
// LossCounter   - sent/lost tallies with exact loss-rate accessors.
// PairCounter   - joint outcome tallies for two-packet probes; provides
//                 the paper's 1lp / 2lp / totlp / clp columns directly.

#ifndef RONPATH_UTIL_STATS_H_
#define RONPATH_UTIL_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace ronpath {

// One-pass mean / variance / extrema (Welford's algorithm).
class RunningStat {
 public:
  void add(double x);
  void merge(const RunningStat& other);

  [[nodiscard]] std::int64_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  // Population variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Fixed-width histogram over [lo, hi). Samples below lo land in the
// underflow bucket, samples at or above hi in the overflow bucket.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  // Element-wise sum; both histograms must share lo/hi/bin count.
  void merge(const Histogram& other);

  [[nodiscard]] std::size_t bin_count() const { return counts_.size(); }
  [[nodiscard]] std::int64_t bin(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] double bin_lo(std::size_t i) const;
  [[nodiscard]] double bin_hi(std::size_t i) const;
  [[nodiscard]] std::int64_t underflow() const { return underflow_; }
  [[nodiscard]] std::int64_t overflow() const { return overflow_; }
  [[nodiscard]] std::int64_t total() const { return total_; }

  // Fraction of all samples (including under/overflow) strictly below x.
  [[nodiscard]] double fraction_below(double x) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::int64_t> counts_;
  std::int64_t underflow_ = 0;
  std::int64_t overflow_ = 0;
  std::int64_t total_ = 0;
};

// Collects raw samples; sorts lazily on first query.
class EmpiricalCdf {
 public:
  void add(double x);
  // Appends the other collector's samples.
  void merge(const EmpiricalCdf& other);
  void reserve(std::size_t n) { samples_.reserve(n); }

  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  // Quantile by linear interpolation between order statistics; q in [0,1].
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  // Empirical P(X <= x).
  [[nodiscard]] double fraction_at_or_below(double x) const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  // Evaluation points for plotting: (x, F(x)) at each distinct sample.
  struct Point {
    double x;
    double f;
  };
  [[nodiscard]] std::vector<Point> curve() const;
  // Downsampled curve with at most max_points entries (for table output).
  [[nodiscard]] std::vector<Point> curve(std::size_t max_points) const;

  [[nodiscard]] std::span<const double> sorted_samples() const;

 private:
  void ensure_sorted() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

// Sent/lost tallies for single packets.
class LossCounter {
 public:
  void record(bool lost) {
    ++sent_;
    if (lost) ++lost_;
  }
  void merge(const LossCounter& o) {
    sent_ += o.sent_;
    lost_ += o.lost_;
  }
  [[nodiscard]] std::int64_t sent() const { return sent_; }
  [[nodiscard]] std::int64_t lost() const { return lost_; }
  [[nodiscard]] std::int64_t received() const { return sent_ - lost_; }
  // Loss rate in [0,1]; 0 when nothing was sent.
  [[nodiscard]] double loss_rate() const {
    return sent_ > 0 ? static_cast<double>(lost_) / static_cast<double>(sent_) : 0.0;
  }
  [[nodiscard]] double loss_percent() const { return 100.0 * loss_rate(); }

 private:
  std::int64_t sent_ = 0;
  std::int64_t lost_ = 0;
};

// Joint loss outcomes of a two-packet probe. Field names follow the
// paper's Table 5: 1lp and 2lp are the marginal loss percentages of the
// first and second packet, totlp the probability both were lost, and clp
// the conditional probability the second was lost given the first was.
class PairCounter {
 public:
  void record(bool first_lost, bool second_lost);
  void merge(const PairCounter& o);

  [[nodiscard]] std::int64_t pairs() const { return pairs_; }
  [[nodiscard]] std::int64_t first_lost() const { return first_lost_; }
  [[nodiscard]] std::int64_t second_lost() const { return second_lost_; }
  [[nodiscard]] std::int64_t both_lost() const { return both_lost_; }

  [[nodiscard]] double first_loss_percent() const;   // 1lp
  [[nodiscard]] double second_loss_percent() const;  // 2lp
  [[nodiscard]] double total_loss_percent() const;   // totlp (both lost)
  // clp: P(second lost | first lost); nullopt when no first-packet losses.
  [[nodiscard]] std::optional<double> conditional_loss_percent() const;

 private:
  std::int64_t pairs_ = 0;
  std::int64_t first_lost_ = 0;
  std::int64_t second_lost_ = 0;
  std::int64_t both_lost_ = 0;
};

}  // namespace ronpath

#endif  // RONPATH_UTIL_STATS_H_
