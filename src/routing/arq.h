// End-to-end ARQ over the overlay (the paper's Section 2.1 baseline).
//
// "The traditional way to mask losses in packetized data transfer is to
//  use packet diversity through retransmissions ... not all applications
//  desire its cost in latency."
//
// ArqChannel implements the classic end-to-end recovery the paper
// contrasts against: positive acknowledgment with timeout retransmission,
// Jacobson/Karels RTO estimation (SRTT/RTTVAR), exponential backoff, and
// an optional policy of retransmitting over the loss-optimized alternate
// path instead of the original (RON-flavored ARQ). Delivery latency -
// including the RTO stalls the paper's motivation is about - is recorded
// per packet so benches can compare recovery-latency distributions
// against mesh routing and FEC.

#ifndef RONPATH_ROUTING_ARQ_H_
#define RONPATH_ROUTING_ARQ_H_

#include <cstdint>

#include "event/scheduler.h"
#include "overlay/overlay.h"
#include "util/rng.h"
#include "util/stats.h"

namespace ronpath {

struct ArqConfig {
  // Jacobson/Karels RTO parameters (RFC 6298 shape).
  double srtt_alpha = 1.0 / 8.0;
  double rttvar_beta = 1.0 / 4.0;
  double rttvar_k = 4.0;
  Duration min_rto = Duration::millis(200);
  Duration max_rto = Duration::seconds(30);
  Duration initial_rto = Duration::seconds(1);
  int max_retransmits = 6;
  // Retransmit over the loss-optimized overlay path instead of the
  // original path (the overlay-assisted variant).
  bool retransmit_on_alternate = false;
};

class ArqChannel {
 public:
  ArqChannel(OverlayNetwork& overlay, Scheduler& sched, NodeId src, NodeId dst, ArqConfig cfg,
             Rng rng);

  // Sends one application packet now; the channel retransmits until the
  // ack returns or max_retransmits is exhausted.
  void send();

  struct Stats {
    std::int64_t packets = 0;
    std::int64_t delivered = 0;       // data reached dst (ack may still die)
    std::int64_t acked = 0;           // fully confirmed
    std::int64_t given_up = 0;        // exceeded max_retransmits
    std::int64_t transmissions = 0;   // data copies on the wire
    RunningStat delivery_latency_ms;  // send -> first arrival at dst
    EmpiricalCdf delivery_cdf_ms;     // the same, one sample per delivered packet
    RunningStat ack_latency_ms;       // send -> ack received
    [[nodiscard]] double delivery_rate() const {
      return packets > 0 ? static_cast<double>(delivered) / static_cast<double>(packets) : 0.0;
    }
    [[nodiscard]] double mean_transmissions() const {
      return packets > 0 ? static_cast<double>(transmissions) / static_cast<double>(packets)
                         : 0.0;
    }
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] Duration current_rto() const { return rto_; }
  // True when no packets are awaiting acks.
  [[nodiscard]] bool idle() const { return in_flight_ == 0; }

 private:
  struct Attempt {
    std::int64_t id;
    TimePoint first_sent;
    int tries;
    Duration rto;
    // Delivery (data reaching dst) already counted for this packet; a
    // lost ack otherwise double-counts when the retransmission lands.
    bool delivery_counted;
  };

  void transmit(Attempt attempt);
  void on_ack(const Attempt& attempt, TimePoint data_arrival, TimePoint ack_arrival);
  void on_timeout(Attempt attempt);
  void update_rto(Duration rtt);

  OverlayNetwork& overlay_;
  Scheduler& sched_;
  NodeId src_;
  NodeId dst_;
  ArqConfig cfg_;
  Rng rng_;
  Stats stats_;
  std::int64_t next_id_ = 0;
  int in_flight_ = 0;
  // RTO state.
  bool have_rtt_ = false;
  double srtt_ms_ = 0.0;
  double rttvar_ms_ = 0.0;
  Duration rto_;
};

}  // namespace ronpath

#endif  // RONPATH_ROUTING_ARQ_H_
