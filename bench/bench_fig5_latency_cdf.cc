// Reproduces Figure 5: cumulative distribution of one-way latencies for
// higher-latency paths (those above 50 ms - about 30% of paths; the CDF
// therefore starts at ~0.70).
//
// Paper shape: lat loss < lat < direct rand < direct ~ loss at most
// quantiles; latency-optimized routing improves the tail most (the
// Cornell pathology period).

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
  bench::print_run_banner("Figure 5 - CDF of one-way latencies (paths > 50 ms)", res, args);

  struct Series {
    const char* name;
    PairScheme scheme;
    bool first_copy;  // inferred single rows use first-copy latency
  };
  static constexpr Series kSeries[] = {
      {"lat loss", PairScheme::kLatLoss, false},
      {"lat", PairScheme::kLatLoss, true},
      {"direct rand", PairScheme::kDirectRand, false},
      {"direct", PairScheme::kDirectRand, true},
      {"loss", PairScheme::kLoss, true},
  };

  std::ofstream csv_os;
  std::unique_ptr<CsvWriter> csv;
  if (!args.csv_path.empty()) {
    bench::open_output_or_die(csv_os, args.csv_path);
    csv = std::make_unique<CsvWriter>(csv_os);
    csv->row({"method", "latency_ms", "cdf"});
  }

  std::vector<AsciiSeries> plot;
  std::printf("%-12s %8s %12s %12s %12s\n", "method", "pairs", "frac>50ms", "mean>50ms",
              "p95 (all)");
  for (const Series& s : kSeries) {
    const auto lats = per_pair_latency_ms(*res.agg, s.scheme, s.first_copy, 30);
    if (lats.empty()) continue;
    // The figure plots only paths above 50 ms; the CDF starts at the
    // fraction of paths below.
    std::size_t below = 0;
    while (below < lats.size() && lats[below] <= 50.0) ++below;
    const double base_f = static_cast<double>(below) / static_cast<double>(lats.size());
    AsciiSeries as;
    as.name = s.name;
    double sum_above = 0.0;
    for (std::size_t i = below; i < lats.size(); ++i) {
      const double f = static_cast<double>(i + 1) / static_cast<double>(lats.size());
      as.xs.push_back(lats[i]);
      as.ys.push_back(f);
      sum_above += lats[i];
      if (csv) csv->row({s.name, TextTable::num(lats[i], 2), TextTable::num(f, 5)});
    }
    const std::size_t n_above = lats.size() - below;
    std::printf("%-12s %8zu %12.2f %12.1f %12.1f\n", s.name, lats.size(), 1.0 - base_f,
                n_above ? sum_above / static_cast<double>(n_above) : 0.0,
                lats[static_cast<std::size_t>(0.95 * static_cast<double>(lats.size() - 1))]);
    plot.push_back(std::move(as));
  }
  std::printf("(paper: ~30%% of paths exceed 50 ms; lat-optimized methods dominate)\n\n");
  plot_ascii(std::cout, plot, 0.7, 1.0, 72, 18, "latency (ms)", "fraction of paths");
  return 0;
}
