// Quickstart: build the simulated RON testbed, run the overlay's probing
// for a few virtual minutes, and send packets between two hosts with each
// routing scheme, printing what happened.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/testbed.h"
#include "event/scheduler.h"
#include "net/network.h"
#include "overlay/overlay.h"
#include "routing/multipath.h"

using namespace ronpath;

int main() {
  // 1. The underlay: the paper's 30-host testbed on the calibrated 2003
  //    network profile.
  const Topology topo = testbed_2003();
  Rng rng(2003);
  Scheduler sched;
  Network net(topo, NetConfig::profile_2003(), Duration::hours(1), rng.fork("net"));

  // 2. The overlay: RON-style probing every 15 s per link.
  OverlayNetwork overlay(net, sched, OverlayConfig{}, rng.fork("overlay"));
  overlay.start();

  // 3. Let the probers warm up their estimators (simulated time).
  std::printf("warming up probing for 5 virtual minutes...\n");
  sched.run_until(TimePoint::epoch() + Duration::minutes(5));
  std::printf("overlay sent %lld probes so far\n\n",
              static_cast<long long>(overlay.probes_sent()));

  const NodeId src = *topo.find("MIT");
  const NodeId dst = *topo.find("Korea");
  std::printf("sending MIT -> Korea with each scheme:\n");

  MultipathSender sender(overlay, rng.fork("sender"));
  for (PairScheme scheme :
       {PairScheme::kDirect, PairScheme::kLat, PairScheme::kLoss, PairScheme::kDirectRand,
        PairScheme::kLatLoss, PairScheme::kDirectDirect}) {
    const ProbeOutcome out = sender.send(scheme, src, dst, sched.now());
    std::printf("  %-14s:", std::string(to_string(scheme)).c_str());
    for (const auto& copy : out.copies) {
      if (copy.path.is_direct()) {
        std::printf("  [%s via direct: %s", std::string(to_string(copy.tag)).c_str(),
                    copy.delivered() ? "delivered" : "LOST");
      } else {
        std::printf("  [%s via %s: %s", std::string(to_string(copy.tag)).c_str(),
                    topo.site(copy.path.via).name.c_str(),
                    copy.delivered() ? "delivered" : "LOST");
      }
      if (copy.delivered()) std::printf(" in %s", copy.one_way().to_string().c_str());
      std::printf("]");
    }
    std::printf("\n");
  }

  // 4. Ask the routers what they currently think.
  const auto loss_choice = overlay.router(src).best_loss_path(dst, TimePoint::epoch());
  const auto lat_choice = overlay.router(src).best_lat_path(dst, TimePoint::epoch());
  std::printf("\nrouter state at MIT for destination Korea:\n");
  std::printf("  loss-optimized: %s (est loss %.2f%%)\n",
              loss_choice.path.is_direct() ? "direct"
                                           : topo.site(loss_choice.path.via).name.c_str(),
              100.0 * loss_choice.loss);
  std::printf("  lat-optimized:  %s (est latency %s)\n",
              lat_choice.path.is_direct() ? "direct"
                                          : topo.site(lat_choice.path.via).name.c_str(),
              lat_choice.latency.to_string().c_str());
  return 0;
}
