// Ablation: the shared-edge bottleneck hypothesis (DESIGN.md choice #1).
//
// The paper attributes cross-path loss correlation to shared
// infrastructure near the edge. This ablation removes the shared provider
// components' loss (moving their mass onto independent core segments) and
// shows that direct rand's conditional loss probability collapses toward
// independence, while back-to-back same-path CLP stays put - isolating
// the mechanism behind Section 4.4's central numbers.

#include <iostream>

#include "bench/bench_common.h"
#include "core/testbed.h"
#include "net/network.h"
#include "util/table.h"
#include "util/rng.h"

using namespace ronpath;

namespace {

struct Result {
  double lp1 = 0.0;
  double clp_same = 0.0;
  double clp_rand = 0.0;
};

Result measure(const NetConfig& cfg, std::uint64_t seed, int hours) {
  const Topology topo = testbed_2003();
  Network net(topo, cfg, Duration::hours(hours + 1), Rng(seed));
  Rng rng(seed + 1);
  std::int64_t n = 0, lost1 = 0, both_same = 0, both_rand = 0;
  const std::int64_t total = static_cast<std::int64_t>(hours) * 3600 * 25;
  for (std::int64_t i = 0; i < total; ++i) {
    const TimePoint t = TimePoint::epoch() + Duration::micros(i * 40'000);
    const NodeId a = static_cast<NodeId>(rng.next_below(30));
    NodeId b = a;
    while (b == a) b = static_cast<NodeId>(rng.next_below(30));
    ++n;
    const auto r1 = net.transmit(PathSpec{a, b, kDirectVia}, t);
    if (r1.delivered) continue;
    ++lost1;
    if (!net.transmit(PathSpec{a, b, kDirectVia}, t).delivered) ++both_same;
    NodeId v = a;
    while (v == a || v == b) v = static_cast<NodeId>(rng.next_below(30));
    if (!net.transmit(PathSpec{a, b, v}, t).delivered) ++both_rand;
  }
  Result res;
  res.lp1 = 100.0 * static_cast<double>(lost1) / static_cast<double>(n);
  if (lost1 > 0) {
    res.clp_same = 100.0 * static_cast<double>(both_same) / static_cast<double>(lost1);
    res.clp_rand = 100.0 * static_cast<double>(both_rand) / static_cast<double>(lost1);
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::BenchArgs::parse(argc, argv, Duration::hours(8), bench::kDuration);
  const int hours = static_cast<int>(args.duration / Duration::hours(1));
  const std::uint64_t seed = args.seed;

  std::printf("== Ablation: shared edge/provider bottleneck vs loss correlation ==\n");

  NetConfig shared = NetConfig::profile_2003();
  const Result with_shared = measure(shared, seed, hours);

  // Remove shared-component loss: zero edge/provider bursts, move the
  // mass onto (independent) core segments.
  NetConfig indep = NetConfig::profile_2003();
  for (auto& p : indep.access) {
    p.bursts_per_hour = 0.0;
    p.episodes_per_day = 0.0;
    p.outages_per_month = 0.0;
  }
  indep.provider.bursts_per_hour = 0.0;
  indep.provider.episodes_per_day = 0.0;
  indep.provider.outages_per_month = 0.0;
  indep.core.bursts_per_hour *= 14.0;  // keep overall loss comparable
  indep.provider_events.events_per_site_day = 0.0;
  const Result without_shared = measure(indep, seed, hours);

  TextTable t({"configuration", "direct loss %", "CLP same-path", "CLP via-random"});
  t.set_align(0, TextTable::Align::kLeft);
  t.add_row({"shared edges (default)", TextTable::num(with_shared.lp1),
             TextTable::num(with_shared.clp_same, 1), TextTable::num(with_shared.clp_rand, 1)});
  t.add_row({"independent middles only", TextTable::num(without_shared.lp1),
             TextTable::num(without_shared.clp_same, 1),
             TextTable::num(without_shared.clp_rand, 1)});
  t.print(std::cout);
  std::printf("\nexpected: removing shared components collapses the via-random CLP toward\n"
              "zero while same-path CLP persists - the paper's path-independence\n"
              "assumption holds only when bottlenecks are not shared (Section 2.4).\n");
  return 0;
}
