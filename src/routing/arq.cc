#include "routing/arq.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ronpath {

ArqChannel::ArqChannel(OverlayNetwork& overlay, Scheduler& sched, NodeId src, NodeId dst,
                       ArqConfig cfg, Rng rng)
    : overlay_(overlay),
      sched_(sched),
      src_(src),
      dst_(dst),
      cfg_(cfg),
      rng_(rng.fork("arq")),
      rto_(cfg.initial_rto) {
  assert(src != dst);
}

void ArqChannel::update_rto(Duration rtt) {
  // Jacobson/Karels as specified by RFC 6298.
  const double r = rtt.to_millis_f();
  if (!have_rtt_) {
    srtt_ms_ = r;
    rttvar_ms_ = r / 2.0;
    have_rtt_ = true;
  } else {
    rttvar_ms_ = (1.0 - cfg_.rttvar_beta) * rttvar_ms_ +
                 cfg_.rttvar_beta * std::abs(srtt_ms_ - r);
    srtt_ms_ = (1.0 - cfg_.srtt_alpha) * srtt_ms_ + cfg_.srtt_alpha * r;
  }
  const Duration computed =
      Duration::from_millis_f(srtt_ms_ + cfg_.rttvar_k * rttvar_ms_);
  rto_ = std::clamp(computed, cfg_.min_rto, cfg_.max_rto);
}

void ArqChannel::send() {
  ++stats_.packets;
  ++in_flight_;
  transmit(Attempt{next_id_++, sched_.now(), 0, rto_, false});
}

void ArqChannel::transmit(Attempt attempt) {
  ++stats_.transmissions;
  ++attempt.tries;

  // First try uses the direct path; retransmissions optionally detour.
  PathSpec path{src_, dst_, kDirectVia};
  if (attempt.tries > 1 && cfg_.retransmit_on_alternate) {
    path = overlay_.route(src_, dst_, RouteTag::kLoss);
  }

  const TimePoint now = sched_.now();
  const OverlaySendResult data = overlay_.send(path, now);
  bool acked = false;
  TimePoint data_arrival;
  TimePoint ack_arrival;
  if (data.delivered()) {
    data_arrival = now + data.net.latency;
    // Ack returns on the reverse of the same path.
    const PathSpec reverse{path.dst, path.src, path.via};
    const OverlaySendResult ack = overlay_.send(reverse, data_arrival);
    if (ack.delivered()) {
      acked = true;
      ack_arrival = data_arrival + ack.net.latency;
    }
  }

  if (acked) {
    // Cancel the pending timer by resolving now: schedule the ack
    // processing at its arrival time.
    const Attempt snapshot = attempt;
    sched_.schedule_at(ack_arrival, [this, snapshot, data_arrival, ack_arrival] {
      on_ack(snapshot, data_arrival, ack_arrival);
    });
    return;
  }

  if (data.delivered() && !attempt.delivery_counted) {
    // Data got there but the ack died: the receiver has it; the sender
    // will still retransmit until an ack survives.
    attempt.delivery_counted = true;
    ++stats_.delivered;
    const double ms = (data_arrival - attempt.first_sent).to_millis_f();
    stats_.delivery_latency_ms.add(ms);
    stats_.delivery_cdf_ms.add(ms);
  }

  // Arm the retransmission timer.
  sched_.schedule_at(now + attempt.rto, [this, attempt] { on_timeout(attempt); });
}

void ArqChannel::on_ack(const Attempt& attempt, TimePoint data_arrival, TimePoint ack_arrival) {
  ++stats_.acked;
  --in_flight_;
  if (!attempt.delivery_counted) {
    ++stats_.delivered;
    const double ms = (data_arrival - attempt.first_sent).to_millis_f();
    stats_.delivery_latency_ms.add(ms);
    stats_.delivery_cdf_ms.add(ms);
  }
  stats_.ack_latency_ms.add((ack_arrival - attempt.first_sent).to_millis_f());
  // Karn's algorithm: only un-retransmitted samples train the estimator.
  if (attempt.tries == 1) {
    update_rto(ack_arrival - attempt.first_sent);
  }
}

void ArqChannel::on_timeout(Attempt attempt) {
  if (attempt.tries > cfg_.max_retransmits) {
    ++stats_.given_up;
    --in_flight_;
    return;
  }
  // Exponential backoff.
  attempt.rto = std::min(attempt.rto * 2, cfg_.max_rto);
  rto_ = std::clamp(attempt.rto, cfg_.min_rto, cfg_.max_rto);
  transmit(attempt);
}

}  // namespace ronpath
