// Ablation: does a second overlay hop buy anything? The paper's router
// uses "at most one intermediate node"; this ablation searches for the
// best path through up to two relays (under the router's default
// config) and measures what the second hop would add. The two-relay
// search and the chained send below live here because nothing else
// routes through a second relay: the forwarding plane carries one.
//
// Expectation from the model: very little. The unavoidable shared-edge
// components dominate residual loss, every extra hop stacks two more
// edge crossings onto the path, and the one-hop candidate set already
// contains a clean middle whenever one exists. The realized numbers
// quantify why RON stopped at one.

#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "core/testbed.h"
#include "event/scheduler.h"
#include "net/network.h"
#include "overlay/overlay.h"
#include "util/stats.h"
#include "util/table.h"

using namespace ronpath;

namespace {

// Relays of a path src -> dst: none (a == kDirectVia), one (b ==
// kDirectVia), or src -> a -> b -> dst.
struct TwoRelayPath {
  NodeId a = kDirectVia;
  NodeId b = kDirectVia;
};

// Best loss path src -> dst through at most two relays, every node that
// seems up but the endpoints a candidate. Each node w first gets its
// best one-relay label src -> u -> w by survival (1 - l) * (1 - l),
// then the best last relay extends a label to dst. Relays are scanned
// in ascending id order keeping the first strict improvement. The pick
// starts at the direct path's loss and moves to one relay, then to two,
// only where (1 - survival) + relays * indirect_loss_penalty is
// strictly smaller, so ties resolve to fewer relays.
TwoRelayPath best_loss_two_relays(const LinkStateTable& t, const RouterConfig& cfg, NodeId src,
                                  NodeId dst, TimePoint now) {
  const auto n = static_cast<NodeId>(t.size());
  const auto loss = [&](NodeId u, NodeId w) { return link_loss(t.get(u, w), cfg, now); };
  const auto relay = [&](NodeId u) { return u != src && u != dst && t.node_seems_up(u); };
  std::vector<double> label(n, 0.0);
  std::vector<NodeId> first(n, kInvalidNode);  // kInvalidNode: no label
  for (NodeId w = 0; w < n; ++w) {
    if (w == src) continue;
    for (NodeId u = 0; u < n; ++u) {
      if (u == w || !relay(u)) continue;
      const double s = (1.0 - loss(src, u)) * (1.0 - loss(u, w));
      if (first[w] == kInvalidNode || s > label[w]) {
        label[w] = s;
        first[w] = u;
      }
    }
  }
  NodeId last = kInvalidNode;
  double two = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    if (!relay(u) || first[u] == kInvalidNode) continue;
    const double s = label[u] * (1.0 - loss(u, dst));
    if (last == kInvalidNode || s > two) {
      two = s;
      last = u;
    }
  }
  TwoRelayPath best;
  double best_loss = loss(src, dst);
  if (first[dst] != kInvalidNode && (1.0 - label[dst]) + cfg.indirect_loss_penalty < best_loss) {
    best_loss = (1.0 - label[dst]) + cfg.indirect_loss_penalty;
    best.a = first[dst];
  }
  if (last != kInvalidNode && (1.0 - two) + 2.0 * cfg.indirect_loss_penalty < best_loss) {
    best = {first[last], last};
  }
  return best;
}

// Sends src -> a -> b -> dst as two underlay transmits: src -> a -> b at
// `t`, then b -> dst once the first leg arrived and b turned the packet
// around. The node_up calls are OverlayNetwork::send's, in its order.
OverlaySendResult send_two_relays(OverlayNetwork& overlay, Network& net, NodeId src, NodeId dst,
                                  const TwoRelayPath& p, TimePoint t) {
  OverlaySendResult r;
  r.src_up = overlay.node_up(src, t);
  r.via_up = overlay.node_up(p.a, t) && overlay.node_up(p.b, t);
  if (!r.via_up) {
    r.net = net.transmit(PathSpec{src, p.a, kDirectVia}, t);
    r.net.delivered = false;
    return r;
  }
  r.net = net.transmit(PathSpec{src, p.b, p.a}, t);
  if (!r.net.delivered) return r;
  const Duration first = r.net.latency + net.config().forward_delay;
  r.net = net.transmit(PathSpec{p.b, dst, kDirectVia}, t + first);
  if (!r.net.delivered) return r;
  r.net.latency += first;
  r.dst_up = overlay.node_up(dst, t + r.net.latency);
  return r;
}

}  // namespace

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

    // Both queries at epoch, not `t`: the ROADMAP's hybrid re-pin passes
    // the send time.
    const PathSpec one = overlay.router(src).best_loss_path(dst, TimePoint::epoch()).path;
    const TwoRelayPath two =
        best_loss_two_relays(overlay.table(), two_hop_cfg, src, dst, TimePoint::epoch());
    ++evaluations;
    const bool second_relay = two.b != kDirectVia;
    if (second_relay) ++picked_two_hop;

    const auto rd = overlay.send(PathSpec{src, dst, kDirectVia}, t);
    const auto r1 = overlay.send(one, t);
    const auto r2 = second_relay ? send_two_relays(overlay, net, src, dst, two, t)
                                 : overlay.send(PathSpec{src, dst, two.a}, t);
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
