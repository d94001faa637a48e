// Future-work exploration (paper Sections 5.3 / 6): sweet spots between
// reactive and redundant routing. Runs the hybrid sender policies over
// the calibrated underlay and charts delivered-loss vs bandwidth
// overhead, alongside the paper's pure baselines.
//
// The interesting output is the frontier: adaptive duplication should
// buy most of always-duplicate's loss reduction at a fraction of the 2x
// overhead, because duplication only pays off during the elevated-loss
// periods that the routing state can already see.

#include <fstream>
#include <iostream>

#include "bench/bench_common.h"
#include "core/testbed.h"
#include "event/scheduler.h"
#include "net/network.h"
#include "overlay/overlay.h"
#include "routing/hybrid.h"
#include "util/stats.h"
#include "util/table.h"

using namespace ronpath;

namespace {

struct Row {
  std::string name;
  double loss_pct = 0.0;
  double overhead = 1.0;
  double dup_pct = 0.0;
};

Row run_policy(const char* name, HybridConfig cfg, int hours, std::uint64_t seed) {
  const Topology topo = testbed_2003();
  Rng rng(seed);
  Scheduler sched;
  Network net(topo, NetConfig::profile_2003(), Duration::hours(hours + 2), rng.fork("net"));
  OverlayNetwork overlay(net, sched, OverlayConfig{}, rng.fork("overlay"));
  overlay.start();
  sched.run_until(TimePoint::epoch() + Duration::minutes(40));  // warm-up

  HybridSender sender(overlay, cfg, rng.fork("sender"));
  Rng pick(seed + 1);
  LossCounter loss;
  const TimePoint end = TimePoint::epoch() + Duration::minutes(40) + Duration::hours(hours);
  Duration step = Duration::millis(40);  // 25 packets/s across the mesh
  for (TimePoint t = sched.now(); t < end; t += step) {
    sched.run_until(t);
    const NodeId src = static_cast<NodeId>(pick.next_below(topo.size()));
    NodeId dst = src;
    while (dst == src) dst = static_cast<NodeId>(pick.next_below(topo.size()));
    const auto out = sender.send(src, dst, t);
    loss.record(!out.delivered());
  }
  Row row;
  row.name = name;
  row.loss_pct = loss.loss_percent();
  row.overhead = sender.overhead_factor();
  row.dup_pct = 100.0 * static_cast<double>(sender.duplicated()) /
                static_cast<double>(sender.packets());
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv, Duration::hours(12),
                                                        bench::kDuration | bench::kCsv);
  const int hours = static_cast<int>(args.duration / Duration::hours(1));
  const std::uint64_t seed = args.seed;

  std::printf("== Hybrid reactive+redundant sweet spots (Sections 5.3/6) ==\n");
  std::vector<Row> rows;
  {
    HybridConfig c;
    c.mode = HybridMode::kBestPath;
    rows.push_back(run_policy("best-path only", c, hours, seed));
  }
  for (double thr : {0.05, 0.02, 0.01, 0.003}) {
    HybridConfig c;
    c.mode = HybridMode::kAdaptive;
    c.duplicate_threshold = thr;
    char name[48];
    std::snprintf(name, sizeof name, "adaptive (dup if est>=%.1f%%)", 100.0 * thr);
    rows.push_back(run_policy(name, c, hours, seed));
  }
  {
    HybridConfig c;
    c.mode = HybridMode::kAlwaysDuplicate;
    rows.push_back(run_policy("always duplicate", c, hours, seed));
  }

  TextTable t({"policy", "loss %", "overhead", "duplicated %"});
  t.set_align(0, TextTable::Align::kLeft);
  for (const auto& r : rows) {
    t.add_row({r.name, TextTable::num(r.loss_pct, 3), TextTable::num(r.overhead, 3) + "x",
               TextTable::num(r.dup_pct, 1) + "%"});
  }
  t.print(std::cout);
  std::printf("\nexpected frontier: loss falls monotonically from best-path to always-\n"
              "duplicate, while adaptive thresholds hold overhead near 1x by paying the\n"
              "2x price only inside detected elevated-loss periods.\n");

  if (!args.csv_path.empty()) {
    std::ofstream os;
    bench::open_output_or_die(os, args.csv_path);
    CsvWriter csv(os);
    csv.row({"policy", "loss_pct", "overhead", "duplicated_pct"});
    for (const auto& r : rows) {
      csv.row({r.name, TextTable::num(r.loss_pct, 4), TextTable::num(r.overhead, 4),
               TextTable::num(r.dup_pct, 2)});
    }
  }
  return 0;
}
