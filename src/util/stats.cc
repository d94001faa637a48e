#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ronpath {

// ---------------------------------------------------------------- RunningStat

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStat::merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStat::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

// ------------------------------------------------------------------ Histogram

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  assert(hi > lo && bins > 0);
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  } else {
    auto idx = static_cast<std::size_t>((x - lo_) / width_);
    if (idx >= counts_.size()) idx = counts_.size() - 1;  // float edge case
    ++counts_[idx];
  }
}

void Histogram::merge(const Histogram& other) {
  assert(lo_ == other.lo_ && hi_ == other.hi_ && counts_.size() == other.counts_.size() &&
         "merging histograms with different binning");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
  total_ += other.total_;
}

double Histogram::bin_lo(std::size_t i) const { return lo_ + width_ * static_cast<double>(i); }
double Histogram::bin_hi(std::size_t i) const { return lo_ + width_ * static_cast<double>(i + 1); }

double Histogram::fraction_below(double x) const {
  if (total_ == 0) return 0.0;
  std::int64_t below = 0;
  if (x > lo_) below += underflow_;
  if (x >= hi_) below += overflow_;  // approximation: overflow mass sits at hi
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (bin_hi(i) <= x) {
      below += counts_[i];
    } else {
      break;
    }
  }
  return static_cast<double>(below) / static_cast<double>(total_);
}

// --------------------------------------------------------------- EmpiricalCdf

void EmpiricalCdf::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void EmpiricalCdf::merge(const EmpiricalCdf& other) {
  samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
  sorted_ = false;
}

void EmpiricalCdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double EmpiricalCdf::quantile(double q) const {
  assert(!samples_.empty());
  assert(q >= 0.0 && q <= 1.0);
  ensure_sorted();
  if (samples_.size() == 1) return samples_[0];
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

double EmpiricalCdf::fraction_at_or_below(double x) const {
  if (samples_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
}

double EmpiricalCdf::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double EmpiricalCdf::min() const {
  assert(!samples_.empty());
  ensure_sorted();
  return samples_.front();
}

double EmpiricalCdf::max() const {
  assert(!samples_.empty());
  ensure_sorted();
  return samples_.back();
}

std::vector<EmpiricalCdf::Point> EmpiricalCdf::curve() const {
  ensure_sorted();
  std::vector<Point> out;
  const double n = static_cast<double>(samples_.size());
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    // Emit one point per distinct value, at its last occurrence.
    if (i + 1 < samples_.size() && samples_[i + 1] == samples_[i]) continue;
    out.push_back({samples_[i], static_cast<double>(i + 1) / n});
  }
  return out;
}

std::vector<EmpiricalCdf::Point> EmpiricalCdf::curve(std::size_t max_points) const {
  auto full = curve();
  if (full.size() <= max_points || max_points == 0) return full;
  std::vector<Point> out;
  out.reserve(max_points);
  const double step = static_cast<double>(full.size() - 1) / static_cast<double>(max_points - 1);
  for (std::size_t i = 0; i < max_points; ++i) {
    out.push_back(full[static_cast<std::size_t>(std::round(step * static_cast<double>(i)))]);
  }
  return out;
}

std::span<const double> EmpiricalCdf::sorted_samples() const {
  ensure_sorted();
  return samples_;
}

// ---------------------------------------------------------------- PairCounter

void PairCounter::record(bool first_lost, bool second_lost) {
  ++pairs_;
  if (first_lost) ++first_lost_;
  if (second_lost) ++second_lost_;
  if (first_lost && second_lost) ++both_lost_;
}

void PairCounter::merge(const PairCounter& o) {
  pairs_ += o.pairs_;
  first_lost_ += o.first_lost_;
  second_lost_ += o.second_lost_;
  both_lost_ += o.both_lost_;
}

double PairCounter::first_loss_percent() const {
  return pairs_ > 0 ? 100.0 * static_cast<double>(first_lost_) / static_cast<double>(pairs_)
                    : 0.0;
}

double PairCounter::second_loss_percent() const {
  return pairs_ > 0 ? 100.0 * static_cast<double>(second_lost_) / static_cast<double>(pairs_)
                    : 0.0;
}

double PairCounter::total_loss_percent() const {
  return pairs_ > 0 ? 100.0 * static_cast<double>(both_lost_) / static_cast<double>(pairs_)
                    : 0.0;
}

std::optional<double> PairCounter::conditional_loss_percent() const {
  if (first_lost_ == 0) return std::nullopt;
  return 100.0 * static_cast<double>(both_lost_) / static_cast<double>(first_lost_);
}

}  // namespace ronpath
