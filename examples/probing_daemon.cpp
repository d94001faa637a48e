// Probing daemon: runs the RON-style overlay for a while and periodically
// prints each node's routing decisions for a watched destination - the
// kind of dashboard a deployed overlay operator would watch. Shows path
// churn, down detection, and the loss/latency estimates driving choices.

#include <cstdio>
#include <map>
#include <string>

#include "core/testbed.h"
#include "event/scheduler.h"
#include "net/network.h"
#include "overlay/overlay.h"

using namespace ronpath;

int main(int argc, char** argv) {
  int minutes = 45;
  if (argc > 1) minutes = std::atoi(argv[1]);

  const Topology topo = testbed_2003();
  Rng rng(99);
  Scheduler sched;
  Network net(topo, NetConfig::profile_2003(), Duration::minutes(minutes + 10),
              rng.fork("net"));
  OverlayNetwork overlay(net, sched, OverlayConfig{}, rng.fork("overlay"));
  overlay.start();

  const NodeId dst = *topo.find("Korea");
  const NodeId watchers[] = {*topo.find("MIT"), *topo.find("UCSD"), *topo.find("CA-DSL"),
                             *topo.find("GBLX-LON")};

  std::map<std::string, int> choice_histogram;
  std::printf("watching routes to Korea every 5 virtual minutes (%d minutes total)\n\n",
              minutes);
  for (int m = 5; m <= minutes; m += 5) {
    sched.run_until(TimePoint::epoch() + Duration::minutes(m));
    std::printf("t=%3d min  (probes so far: %lld)\n", m,
                static_cast<long long>(overlay.probes_sent()));
    for (NodeId w : watchers) {
      auto& router = overlay.router(w);
      const auto loss_pick = router.best_loss_path(dst, TimePoint::epoch());
      const auto lat_pick = router.best_lat_path(dst, TimePoint::epoch());
      const auto& est = overlay.estimator(w, dst);
      const std::string loss_via =
          loss_pick.path.is_direct() ? "direct" : topo.site(loss_pick.path.via).name;
      const std::string lat_via =
          lat_pick.path.is_direct() ? "direct" : topo.site(lat_pick.path.via).name;
      std::printf("  %-9s direct est: loss %5.2f%% lat %9s %s | loss-pick: %-10s "
                  "| lat-pick: %-10s\n",
                  topo.site(w).name.c_str(), 100.0 * est.loss(),
                  est.latency() == Duration::max() ? "?" : est.latency().to_string().c_str(),
                  est.down() ? "[DOWN]" : "      ", loss_via.c_str(), lat_via.c_str());
      ++choice_histogram[loss_via];
    }
    std::printf("\n");
  }

  std::printf("loss-optimized choice histogram over the run:\n");
  for (const auto& [via, count] : choice_histogram) {
    std::printf("  %-12s %d\n", via.c_str(), count);
  }
  return 0;
}
