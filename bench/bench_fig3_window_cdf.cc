// Reproduces Figure 3: cumulative distribution of 20-minute loss-rate
// samples per routing method, on a per-path basis.
//
// Paper shape: over 95% of samples have 0% loss; the loss-avoidance
// methods (loss, lat loss) truncate the high-loss tail while mesh methods
// (direct rand, dd*) compress the shallow-loss region.

#include <fstream>
#include <iostream>

#include "bench/bench_common.h"
#include "routing/schemes.h"

using namespace ronpath;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, Duration::hours(48),
                                            bench::kDuration | bench::kCsv);

  ExperimentConfig cfg;
  cfg.dataset = Dataset::kRon2003;
  cfg.duration = args.duration;
  cfg.seed = args.seed;
  const auto res = run_experiment(cfg);
  bench::print_run_banner("Figure 3 - CDF of 20-minute loss rates", res, args);

  static constexpr PairScheme kSchemes[] = {
      PairScheme::kDirectDirect, PairScheme::kLoss,    PairScheme::kDirectRand,
      PairScheme::kLatLoss,      PairScheme::kDd10ms,  PairScheme::kDd20ms,
  };
  static const char* kNames[] = {"direct direct", "loss", "direct rand",
                                 "lat loss",      "dd 10", "dd 20"};

  std::vector<AsciiSeries> series;
  std::ofstream csv_os;
  std::unique_ptr<CsvWriter> csv;
  if (!args.csv_path.empty()) {
    bench::open_output_or_die(csv_os, args.csv_path);
    csv = std::make_unique<CsvWriter>(csv_os);
    csv->row({"method", "loss_rate", "cdf"});
  }

  std::printf("%-14s %10s %10s %10s %10s\n", "method", "F(0.0)", "F(0.1)", "F(0.3)", "F(0.6)");
  for (std::size_t i = 0; i < std::size(kSchemes); ++i) {
    const auto cdf = window_loss_cdf(*res.agg, kSchemes[i]);
    AsciiSeries s;
    s.name = kNames[i];
    double f0 = 0.0, f1 = 0.0, f3 = 0.0, f6 = 0.0;
    for (const auto& pt : cdf) {
      s.xs.push_back(pt.x);
      s.ys.push_back(pt.f);
      if (pt.x <= 0.006) f0 = pt.f;  // the "zero" bin
      if (pt.x <= 0.101) f1 = pt.f;
      if (pt.x <= 0.301) f3 = pt.f;
      if (pt.x <= 0.601) f6 = pt.f;
      if (csv) {
        csv->row({kNames[i], TextTable::num(pt.x, 4), TextTable::num(pt.f, 6)});
      }
    }
    series.push_back(std::move(s));
    std::printf("%-14s %10.4f %10.4f %10.4f %10.4f\n", kNames[i], f0, f1, f3, f6);
  }
  std::printf("(paper: direct's zero-loss fraction is >0.95; CDFs ordered with the\n"
              " combined lat loss method dominating)\n\n");
  plot_ascii(std::cout, series, 0.975, 1.0, 72, 18, "20-min loss rate", "fraction of samples");
  return 0;
}
