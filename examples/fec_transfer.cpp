// Bulk transfer with packet-level Reed-Solomon FEC over the overlay,
// exercising the Section 5.2 design space end to end: a k+m erasure code
// with its shards striped across two overlay paths (direct + loss-picked
// alternate) versus the same code on a single path.
//
// The single-path variant suffers the paper's burst correlation: a burst
// that kills a data packet usually kills the adjacent parity too. The
// two-path variant recovers because shards on the alternate path fail
// (mostly) independently.

#include <cstdio>

#include "core/testbed.h"
#include "event/scheduler.h"
#include "fec/packet_fec.h"
#include "net/network.h"
#include "overlay/overlay.h"

using namespace ronpath;

namespace {

struct TransferResult {
  std::int64_t sent_payloads = 0;
  std::int64_t delivered = 0;
  std::int64_t reconstructed = 0;
  std::int64_t shards_lost = 0;
};

TransferResult run_transfer(OverlayNetwork& overlay, Scheduler& sched, NodeId src, NodeId dst,
                            std::size_t k, std::size_t m, bool two_paths) {
  FecEncoder enc(k, m);
  FecDecoder dec(k, m);
  TransferResult res;
  const int payloads = 20'000;
  const Duration spacing = Duration::millis(2);  // ~500 pkt/s bulk flow
  TimePoint t = sched.now();
  for (int i = 0; i < payloads; ++i) {
    t += spacing;
    sched.run_until(t);
    std::vector<std::uint8_t> payload(256, static_cast<std::uint8_t>(i));
    ++res.sent_payloads;
    for (const auto& shard : enc.push(std::move(payload))) {
      // Stripe shards: even indices on the direct path, odd ones on the
      // loss-optimized alternate (when enabled).
      PathSpec path{src, dst, kDirectVia};
      if (two_paths && shard.index % 2 == 1) {
        path = overlay.route(src, dst, RouteTag::kLoss);
      }
      const OverlaySendResult sent = overlay.send(path, t);
      if (!sent.delivered()) {
        ++res.shards_lost;
        continue;
      }
      res.delivered += static_cast<std::int64_t>(dec.push(shard).size());
    }
  }
  res.reconstructed = dec.reconstructed();
  return res;
}

}  // namespace

int main() {
  const Topology topo = testbed_2003();
  const NodeId src = *topo.find("Intel");
  const NodeId dst = *topo.find("NC-Cable");  // consumer edge: bursty

  Rng rng(31);
  Scheduler sched;
  // Crank up the destination's burstiness so a short demo sees losses.
  NetConfig cfg = NetConfig::profile_2003();
  cfg.loss_scale *= 6.0;
  Network net(topo, cfg, Duration::hours(2), rng.fork("net"));
  OverlayNetwork overlay(net, sched, OverlayConfig{}, rng.fork("overlay"));
  overlay.start();
  sched.run_until(TimePoint::epoch() + Duration::minutes(3));  // estimator warmup

  std::printf("bulk transfer Intel -> NC-Cable, 20000 x 256 B payloads, RS(5,2) FEC\n\n");
  std::printf("%-22s %10s %14s %14s %10s\n", "strategy", "lost", "delivered", "reconstructed",
              "goodput");
  for (bool two_paths : {false, true}) {
    const auto r = run_transfer(overlay, sched, src, dst, 5, 2, two_paths);
    std::printf("%-22s %10lld %14lld %14lld %9.2f%%\n",
                two_paths ? "RS(5,2) on two paths" : "RS(5,2) single path",
                static_cast<long long>(r.shards_lost), static_cast<long long>(r.delivered),
                static_cast<long long>(r.reconstructed),
                100.0 * static_cast<double>(r.delivered) /
                    static_cast<double>(r.sent_payloads));
  }
  std::printf("\nexpected: similar shard loss on the wire, but the two-path transfer\n"
              "reconstructs more of it - burst losses inside one block are spread over\n"
              "independent paths instead of sharing one path's burst (Section 5.2).\n");
  return 0;
}
