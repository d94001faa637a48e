// Per-link path-quality estimation from probe outcomes.
//
// Following Section 3.1 of the paper, loss is scored as the average over
// the last 100 probes of a link, and latency as a low-pass EWMA of probe
// round-trip samples. A link is marked down when an initial probe loss is
// followed by four consecutive lost follow-up probes, and recovers on the
// next successful probe. A WindowLossEstimator/EwmaLossEstimator pair
// exists so the window-vs-EWMA design choice can be ablated.
//
// Every estimator is a flat value with no heap allocation: the loss
// window is a 128-bit ring, so a 300-node overlay's 10k link estimators
// sit in one contiguous vector.

#ifndef RONPATH_OVERLAY_ESTIMATOR_H_
#define RONPATH_OVERLAY_ESTIMATOR_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/time.h"

namespace ronpath {

namespace snap {
class Encoder;
class Decoder;
}  // namespace snap

// Average loss over a sliding window of the most recent probe outcomes,
// held in a fixed 128-bit ring: outcome k (0 = oldest) is bit
// (head + k) mod 128.
class WindowLossEstimator {
 public:
  static constexpr std::size_t kMaxWindow = 128;

  // Throws std::invalid_argument unless 1 <= window <= kMaxWindow.
  explicit WindowLossEstimator(std::size_t window = 100);

  void record(bool lost);
  // Loss estimate in [0,1]; optimistic 0 before any samples.
  [[nodiscard]] double loss() const;
  [[nodiscard]] std::size_t samples() const { return count_; }
  // Outcome k of the window, oldest first (k < samples()).
  [[nodiscard]] bool lost_at(std::size_t k) const {
    const std::size_t pos = (head_ + k) % kMaxWindow;
    return ((bits_[pos / 64] >> (pos % 64)) & 1u) != 0;
  }

 private:
  friend class LinkEstimator;  // snapshot save/restore reaches the raw window
  void set(std::size_t pos, bool lost);

  std::array<std::uint64_t, kMaxWindow / 64> bits_{};
  std::uint8_t window_;
  std::uint8_t head_ = 0;   // ring position of the oldest outcome
  std::uint8_t count_ = 0;  // outcomes held, <= window_
  std::uint8_t lost_ = 0;   // lost outcomes held
};

// Exponentially weighted loss average (ablation alternative).
class EwmaLossEstimator {
 public:
  explicit EwmaLossEstimator(double alpha = 0.05) : alpha_(alpha) {}

  void record(bool lost);
  [[nodiscard]] double loss() const { return have_ ? value_ : 0.0; }

 private:
  friend class LinkEstimator;
  double alpha_;
  double value_ = 0.0;
  bool have_ = false;
};

// Low-pass filtered latency estimate.
class LatencyEstimator {
 public:
  explicit LatencyEstimator(double alpha = 0.1) : alpha_(alpha) {}

  void record(Duration sample);
  [[nodiscard]] bool has_estimate() const { return have_; }
  // Duration::max() before the first sample, so unprobed links never win
  // a latency-minimization comparison.
  [[nodiscard]] Duration latency() const;

 private:
  friend class LinkEstimator;
  double alpha_;
  double value_ms_ = 0.0;
  bool have_ = false;
};

// Loss-scoring mode: the paper's last-100-probe window, or an EWMA
// (ablation alternative; see DESIGN.md choice #4).
struct EstimatorConfig {
  std::size_t loss_window = 100;
  bool use_ewma_loss = false;
  double loss_ewma_alpha = 0.03;
  double lat_alpha = 0.1;
};

// Full per-link state as maintained by a probing node about one peer.
class LinkEstimator {
 public:
  LinkEstimator(std::size_t loss_window, double lat_alpha)
      : LinkEstimator(EstimatorConfig{loss_window, false, 0.03, lat_alpha}) {}
  explicit LinkEstimator(const EstimatorConfig& cfg)
      : use_ewma_(cfg.use_ewma_loss),
        loss_(cfg.loss_window),
        ewma_(cfg.loss_ewma_alpha),
        latency_(cfg.lat_alpha) {}

  void record_probe(bool lost, Duration rtt_half, TimePoint now);
  // Follow-up probes (the up-to-four 1 s-spaced probes after a loss) only
  // drive down-detection, not the loss window, mirroring the paper's
  // separation of probing and scoring.
  void record_followup(bool lost, TimePoint now);

  [[nodiscard]] double loss() const { return use_ewma_ ? ewma_.loss() : loss_.loss(); }
  [[nodiscard]] Duration latency() const { return latency_.latency(); }
  [[nodiscard]] bool down() const { return down_; }
  [[nodiscard]] TimePoint last_update() const { return last_update_; }
  [[nodiscard]] std::size_t samples() const { return loss_.samples(); }

  // Completed runs of consecutive lost probes, bucketed by run length
  // 1..5 and 6+ (index 5). At the 15 s probe interval a run of length k
  // implies an outage of roughly 15(k-1)..15k seconds, the scale the
  // paper's cited routing-convergence outages live at.
  [[nodiscard]] const std::array<std::int64_t, 6>& loss_runs() const { return loss_runs_; }

  // Snapshot support: full mutable state (window outcomes, EWMA values,
  // down flag, run counters). restore_state expects identical config and
  // throws snap::SnapshotError when the saved lost count is not the
  // number of lost outcomes in the saved window.
  void save_state(snap::Encoder& e) const;
  void restore_state(snap::Decoder& d);

  // Invariant auditor: window bounds, loss range, run-counter and
  // latency-sentinel consistency. `now` bounds last_update staleness.
  void check_invariants(const std::string& who, TimePoint now,
                        std::vector<std::string>& out) const;

 private:
  bool use_ewma_ = false;
  WindowLossEstimator loss_;
  EwmaLossEstimator ewma_;
  LatencyEstimator latency_;
  int consecutive_followup_losses_ = 0;
  int current_loss_run_ = 0;
  std::array<std::int64_t, 6> loss_runs_{};
  bool down_ = false;
  TimePoint last_update_;
};

}  // namespace ronpath

#endif  // RONPATH_OVERLAY_ESTIMATOR_H_
