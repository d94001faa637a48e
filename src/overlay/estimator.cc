#include "overlay/estimator.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "snapshot/codec.h"

namespace ronpath {

WindowLossEstimator::WindowLossEstimator(std::size_t window)
    : window_(static_cast<std::uint8_t>(window)) {
  if (window < 1 || window > kMaxWindow) {
    throw std::invalid_argument("loss_window must be in [1, " + std::to_string(kMaxWindow) +
                                "], got " + std::to_string(window));
  }
}

void WindowLossEstimator::set(std::size_t pos, bool lost) {
  const std::uint64_t bit = std::uint64_t{1} << (pos % 64);
  std::uint64_t& word = bits_[pos / 64];
  word = lost ? (word | bit) : (word & ~bit);
}

void WindowLossEstimator::record(bool lost) {
  if (count_ == window_) {  // full: the oldest outcome leaves first
    if (lost_at(0)) --lost_;
    head_ = static_cast<std::uint8_t>((head_ + 1) % kMaxWindow);
    --count_;
  }
  set((head_ + count_) % kMaxWindow, lost);
  ++count_;
  if (lost) ++lost_;
}

double WindowLossEstimator::loss() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(lost_) / static_cast<double>(count_);
}

void EwmaLossEstimator::record(bool lost) {
  const double x = lost ? 1.0 : 0.0;
  if (!have_) {
    value_ = x;
    have_ = true;
  } else {
    value_ = alpha_ * x + (1.0 - alpha_) * value_;
  }
}

void LatencyEstimator::record(Duration sample) {
  const double ms = sample.to_millis_f();
  if (!have_) {
    value_ms_ = ms;
    have_ = true;
  } else {
    value_ms_ = alpha_ * ms + (1.0 - alpha_) * value_ms_;
  }
}

Duration LatencyEstimator::latency() const {
  return have_ ? Duration::from_millis_f(value_ms_) : Duration::max();
}

void LinkEstimator::record_probe(bool lost, Duration rtt_half, TimePoint now) {
  loss_.record(lost);
  ewma_.record(lost);
  if (lost) {
    ++current_loss_run_;
  } else if (current_loss_run_ > 0) {
    ++loss_runs_[static_cast<std::size_t>(std::min(current_loss_run_, 6) - 1)];
    current_loss_run_ = 0;
  }
  if (!lost) {
    latency_.record(rtt_half);
    down_ = false;
    consecutive_followup_losses_ = 0;
  }
  last_update_ = now;
}

void LinkEstimator::record_followup(bool lost, TimePoint now) {
  if (lost) {
    if (++consecutive_followup_losses_ >= 4) down_ = true;
  } else {
    consecutive_followup_losses_ = 0;
    down_ = false;
  }
  last_update_ = now;
}

void LinkEstimator::save_state(snap::Encoder& e) const {
  e.tag("LEST");
  // Window outcomes, bit-packed oldest-first.
  e.u64(loss_.count_);
  std::uint8_t byte = 0;
  for (std::size_t k = 0; k < loss_.count_; ++k) {
    byte = static_cast<std::uint8_t>(byte | ((loss_.lost_at(k) ? 1u : 0u) << (k % 8)));
    if (k % 8 == 7 || k + 1 == loss_.count_) {
      e.u8(byte);
      byte = 0;
    }
  }
  e.u64(loss_.lost_);
  e.f64(ewma_.value_);
  e.b(ewma_.have_);
  e.f64(latency_.value_ms_);
  e.b(latency_.have_);
  e.i64(consecutive_followup_losses_);
  e.i64(current_loss_run_);
  for (const std::int64_t r : loss_runs_) e.i64(r);
  e.b(down_);
  e.time(last_update_);
}

void LinkEstimator::restore_state(snap::Decoder& d) {
  d.expect_tag("LEST");
  const std::uint64_t n = d.count(0);
  if (n > loss_.window_) {
    throw snap::SnapshotError("snapshot: loss window holds " + std::to_string(n) +
                              " outcomes but is configured for " +
                              std::to_string(loss_.window_));
  }
  // The restored ring starts at position 0, so the packed bytes are the
  // ring words byte for byte.
  loss_.bits_ = {};
  for (std::uint64_t i = 0; i < (n + 7) / 8; ++i) {
    loss_.bits_[i / 8] |= static_cast<std::uint64_t>(d.u8()) << (8 * (i % 8));
  }
  if (n % 8 != 0 && (loss_.bits_[n / 64] >> (n % 64)) != 0) {
    throw snap::SnapshotError("snapshot: loss window padding bits set");
  }
  loss_.head_ = 0;
  loss_.count_ = static_cast<std::uint8_t>(n);
  loss_.lost_ = static_cast<std::uint8_t>(std::popcount(loss_.bits_[0]) +
                                          std::popcount(loss_.bits_[1]));
  const std::uint64_t lost = d.u64();
  if (lost != loss_.lost_) {
    throw snap::SnapshotError("snapshot: loss window records " + std::to_string(lost) +
                              " lost outcomes but its bits hold " +
                              std::to_string(loss_.lost_));
  }
  ewma_.value_ = d.f64();
  ewma_.have_ = d.b();
  latency_.value_ms_ = d.f64();
  latency_.have_ = d.b();
  consecutive_followup_losses_ = static_cast<int>(d.i64());
  current_loss_run_ = static_cast<int>(d.i64());
  for (std::int64_t& r : loss_runs_) r = d.i64();
  down_ = d.b();
  last_update_ = d.time();
}

void LinkEstimator::check_invariants(const std::string& who, TimePoint now,
                                     std::vector<std::string>& out) const {
  if (loss_.count_ > loss_.window_ || loss_.head_ >= WindowLossEstimator::kMaxWindow) {
    out.push_back(who + ": loss window overfull");
  }
  std::size_t lost = 0;
  for (std::size_t k = 0; k < loss_.count_; ++k) lost += loss_.lost_at(k) ? 1 : 0;
  if (lost != loss_.lost_) {
    out.push_back(who + ": lost_in_window counter out of sync with the window contents");
  }
  const double l = loss();
  if (!(l >= 0.0 && l <= 1.0)) out.push_back(who + ": loss estimate outside [0,1]");
  // Saturating-latency sentinel: the estimate is either the Duration::max()
  // "never probed" sentinel or a sane finite value — anything between
  // means a saturating_add chain leaked a near-overflow value in.
  const Duration lat = latency();
  if (lat != Duration::max() &&
      (lat < Duration::zero() || lat >= Duration::days(100'000))) {
    out.push_back(who + ": latency estimate in the saturation dead zone");
  }
  if (latency_.have_ != (lat != Duration::max())) {
    out.push_back(who + ": latency sentinel inconsistent with has-sample flag");
  }
  if (consecutive_followup_losses_ < 0 || current_loss_run_ < 0) {
    out.push_back(who + ": negative probe-run counter");
  }
  for (const std::int64_t r : loss_runs_) {
    if (r < 0) out.push_back(who + ": negative loss-run bucket");
  }
  if (last_update_ > now) out.push_back(who + ": estimator updated in the future");
}

}  // namespace ronpath
