// Ablation: does a second overlay hop buy anything? The paper's router
// uses "at most one intermediate node"; this ablation asks the path
// engine's round search for the best path through up to two relays
// (under the router's default config) and measures what the second hop
// would add.
//
// Expectation from the model: very little. The unavoidable shared-edge
// components dominate residual loss, every extra hop stacks two more
// edge crossings onto the path, and the one-hop candidate set already
// contains a clean middle whenever one exists. The realized numbers
// quantify why RON stopped at one.

#include <iostream>

#include "bench/bench_common.h"
#include "core/testbed.h"
#include "event/scheduler.h"
#include "net/network.h"
#include "overlay/overlay.h"
#include "overlay/path_engine.h"
#include "util/stats.h"
#include "util/table.h"

using namespace ronpath;

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::BenchArgs::parse(argc, argv, Duration::hours(8), bench::kDuration);

  const Topology topo = testbed_2003();
  Rng rng(args.seed);
  Scheduler sched;
  // Elevated loss so the comparison has signal.
  NetConfig cfg = NetConfig::profile_2003();
  cfg.loss_scale *= 6.0;
  Network net(topo, cfg, args.duration + Duration::hours(2), rng.fork("net"));
  OverlayNetwork overlay(net, sched, OverlayConfig{}, rng.fork("overlay"));
  overlay.start();
  sched.run_until(TimePoint::epoch() + Duration::minutes(40));
  const RouterConfig two_hop_cfg;
  PathEngine two_hop(overlay.table(), two_hop_cfg);

  LossCounter direct_loss;
  LossCounter one_hop_loss;
  LossCounter two_hop_loss;
  std::int64_t picked_two_hop = 0;
  std::int64_t evaluations = 0;
  RunningStat one_lat;
  RunningStat two_lat;

  Rng pick(args.seed + 1);
  const TimePoint end = sched.now() + args.duration;
  for (TimePoint t = sched.now(); t < end; t += Duration::millis(40)) {
    sched.run_until(t);
    const NodeId src = static_cast<NodeId>(pick.next_below(topo.size()));
    NodeId dst = src;
    while (dst == src) dst = static_cast<NodeId>(pick.next_below(topo.size()));

    const PathSpec one = overlay.router(src).best_loss_path(dst).path;
    const PathSpec two = two_hop.best_loss(src, dst, 2, TimePoint::epoch()).path.to_spec(src, dst);
    ++evaluations;
    if (two.is_two_hop()) ++picked_two_hop;

    const auto rd = overlay.send(PathSpec{src, dst, kDirectVia}, t);
    const auto r1 = overlay.send(one, t);
    const auto r2 = overlay.send(two, t);
    direct_loss.record(!rd.delivered());
    one_hop_loss.record(!r1.delivered());
    two_hop_loss.record(!r2.delivered());
    if (r1.delivered()) one_lat.add(r1.net.latency.to_millis_f());
    if (r2.delivered()) two_lat.add(r2.net.latency.to_millis_f());
  }

  std::printf("== Ablation: at most one intermediate vs up to two ==\n");
  TextTable t({"selector", "loss %", "mean latency"});
  t.set_align(0, TextTable::Align::kLeft);
  t.add_row({"direct", TextTable::num(direct_loss.loss_percent(), 3), "-"});
  t.add_row({"best <=1-hop (paper)", TextTable::num(one_hop_loss.loss_percent(), 3),
             TextTable::num(one_lat.mean(), 1) + "ms"});
  t.add_row({"best <=2-hop", TextTable::num(two_hop_loss.loss_percent(), 3),
             TextTable::num(two_lat.mean(), 1) + "ms"});
  t.print(std::cout);
  std::printf("\ntwo-hop path actually selected on %.1f%% of evaluations\n",
              100.0 * static_cast<double>(picked_two_hop) / static_cast<double>(evaluations));
  std::printf("(expected: marginal loss gain at higher latency and O(N^2) selection\n"
              " cost - the quantitative case for the paper's one-intermediate limit)\n");
  return 0;
}
