// Ablation: conditional loss probability vs inter-packet gap (DESIGN.md
// choice #2), sweeping the gap from 0 to 1000 ms on the calibrated
// underlay. Reproduces the Bolot-style decay the paper leans on: high
// correlation back-to-back, partial at 10-20 ms, gone by ~500 ms; also
// sweeps the microburst fraction to show the knob shaping the curve.

#include <iostream>

#include "bench/bench_common.h"
#include "core/testbed.h"
#include "net/network.h"
#include "util/table.h"
#include "util/rng.h"

using namespace ronpath;

namespace {

double clp_at_gap(Network& net, Rng& rng, Duration gap, std::int64_t probes, TimePoint base,
                  Duration spacing) {
  std::int64_t lost1 = 0, both = 0;
  for (std::int64_t i = 0; i < probes; ++i) {
    const TimePoint t = base + spacing * i;
    const NodeId a = static_cast<NodeId>(rng.next_below(30));
    NodeId b = a;
    while (b == a) b = static_cast<NodeId>(rng.next_below(30));
    const auto r1 = net.transmit(PathSpec{a, b, kDirectVia}, t);
    if (r1.delivered) continue;
    ++lost1;
    if (!net.transmit(PathSpec{a, b, kDirectVia}, t + gap).delivered) ++both;
  }
  return lost1 > 0 ? 100.0 * static_cast<double>(both) / static_cast<double>(lost1) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv, Duration::hours(10),
                                                        bench::kDuration, Duration::hours(3));
  const int hours = static_cast<int>(args.duration / Duration::hours(1));
  const std::uint64_t seed = args.seed;

  std::printf("== Ablation: CLP vs inter-packet gap ==\n");
  static constexpr int kGapsMs[] = {0, 5, 10, 20, 50, 100, 200, 500, 1000};

  TextTable t({"micro fraction", "0ms", "5ms", "10ms", "20ms", "50ms", "100ms", "200ms",
               "500ms", "1s"});
  for (double micro_frac : {0.95, 0.84, 0.5, 0.0}) {
    NetConfig cfg = NetConfig::profile_2003();
    auto set_frac = [micro_frac](ComponentParams& p) { p.short_burst_fraction = micro_frac; };
    for (auto& p : cfg.access) set_frac(p);
    set_frac(cfg.provider);
    set_frac(cfg.core);
    const std::int64_t probes = static_cast<std::int64_t>(hours) * 3600 * 25;
    const Duration spacing = Duration::from_seconds_f(
        static_cast<double>(hours) * 3600.0 / static_cast<double>(probes));
    std::vector<std::string> row = {TextTable::num(micro_frac, 2)};
    const TimePoint base = TimePoint::epoch();
    for (std::size_t gi = 0; gi < std::size(kGapsMs); ++gi) {
      // Fresh network per gap keeps slices comparable under one seed.
      Network net_g(testbed_2003(), cfg, Duration::hours(hours + 2), Rng(seed + gi));
      Rng rng_g(seed + 100 + gi);
      row.push_back(TextTable::num(
          clp_at_gap(net_g, rng_g, Duration::millis(kGapsMs[gi]), probes, base, spacing), 1));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::printf("\n(paper anchors: 72%% at 0 ms, 66%% at 10 ms, 65%% at 20 ms; Bolot saw the\n"
              " conditional probability return to the unconditional rate by ~500 ms.\n"
              " The microburst fraction controls how much correlation the first 10 ms\n"
              " spacing removes.)\n");
  return 0;
}
