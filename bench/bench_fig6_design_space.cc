// Reproduces Figure 6: when to use reactive or redundant routing.
//
// The figure is analytic: axes are desired loss-rate improvement (x) and
// the fraction of capacity used by data (y); regions are bounded by the
// best-expected-path limit (reactive), the independence limit
// (redundant), and the two capacity limits. The independence limit is
// instantiated from the measured conditional loss probability (1 - clp),
// tying the figure to the empirical Section 4 results.

#include <fstream>
#include <iostream>

#include "bench/bench_common.h"
#include "model/bounds.h"
#include "model/design_space.h"
#include "model/overhead.h"

using namespace ronpath;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, Duration::hours(6),
                                            bench::kDuration | bench::kCsv);

  // Derive the limits from a measured run, as the paper derives its
  // discussion from the Section 4 numbers.
  ExperimentConfig cfg;
  cfg.dataset = Dataset::kRon2003;
  cfg.duration = args.duration;
  cfg.seed = args.seed;
  const auto res = run_experiment(cfg);

  const auto& dr = res.agg->scheme_stats(PairScheme::kDirectRand);
  const auto& loss = res.agg->scheme_stats(PairScheme::kLoss);
  const double direct_loss = dr.pair.first_loss_percent() / 100.0;
  const double clp = dr.pair.conditional_loss_percent().value_or(50.0) / 100.0;

  DesignSpaceParams params;
  // Redundancy cannot beat the correlated floor: improvement <= 1 - clp.
  params.independence_limit = 1.0 - clp;
  // Reactive cannot beat the best expected path; estimate from the
  // measured reactive improvement with headroom for faster probing.
  params.reactive_limit = std::min(
      0.95, 2.0 * loss_improvement(direct_loss,
                                   loss.pair.total_loss_percent() / 100.0) + 0.3);
  const DesignSpace ds(params);

  bench::print_run_banner("Figure 6 - reactive vs redundant design space", res, args);
  std::printf("measured: direct loss %.3f%%, direct rand clp %.1f%% -> independence limit %.2f\n",
              100.0 * direct_loss, 100.0 * clp, params.independence_limit);
  std::printf("reactive limit %.2f, probe capacity %.2f + %.2f * improvement\n\n",
              params.reactive_limit, params.probe_capacity_base, params.probe_capacity_slope);

  // Render the region map: x = improvement, y = data capacity fraction.
  const std::size_t nx = 64;
  const std::size_t ny = 24;
  std::printf("region map ('.' neither, 'r' reactive only, 'd' redundant only, 'b' both):\n");
  std::printf("%% capacity used by data (top=100%%)\n");
  for (std::size_t iy = 0; iy < ny; ++iy) {
    const double y = 1.0 - static_cast<double>(iy) / static_cast<double>(ny - 1);
    std::printf("%5.0f%% |", 100.0 * y);
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const double x = static_cast<double>(ix) / static_cast<double>(nx - 1);
      const auto pt = ds.evaluate(x, y);
      char ch = '.';
      switch (pt.region) {
        case SchemeRegion::kReactiveOnly: ch = 'r'; break;
        case SchemeRegion::kRedundantOnly: ch = 'd'; break;
        case SchemeRegion::kEither: ch = pt.reactive_cheaper ? 'b' : 'B'; break;
        case SchemeRegion::kNeither: ch = '.'; break;
      }
      std::printf("%c", ch);
    }
    std::printf("\n");
  }
  std::printf("       0%%%*s100%%  desired loss-rate improvement\n", static_cast<int>(nx - 7),
              "");
  std::printf("('b' = both feasible, reactive cheaper; 'B' = both feasible, redundant cheaper)\n\n");

  // Overhead crossover (Section 5.3's bandwidth trade-off).
  ProbeOverheadParams op;
  op.nodes = res.topology.size();
  std::printf("probing overhead: %.1f KB/s total, %.2f KB/s per node (N=%zu, 15 s interval)\n",
              probing_bytes_per_sec(op) / 1e3, probing_bytes_per_sec_per_node(op) / 1e3,
              op.nodes);
  std::printf("flow-bandwidth crossover vs 2x meshing: %.2f KB/s "
              "(thinner flows favor redundancy)\n",
              crossover_flow_bytes_per_sec(op) / 1e3);

  if (!args.csv_path.empty()) {
    std::ofstream os;
    bench::open_output_or_die(os, args.csv_path);
    CsvWriter csv(os);
    csv.row({"improvement", "data_capacity", "region", "reactive_cheaper"});
    for (const auto& pt : ds.grid(41, 41)) {
      csv.row({TextTable::num(pt.improvement, 3), TextTable::num(pt.data_capacity, 3),
               std::string(to_string(pt.region)), pt.reactive_cheaper ? "1" : "0"});
    }
  }
  return 0;
}
