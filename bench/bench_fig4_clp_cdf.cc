// Reproduces Figure 4: cumulative distribution of per-path conditional
// loss probabilities for the second packet of a pair.
//
// Paper shape: back-to-back direct pairs have the highest per-path CLPs
// (half of the paths with first-packet losses show ~100%); routing the
// second copy through a random intermediate shifts the distribution left;
// 10/20 ms spacing sits in between.

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
  bench::print_run_banner("Figure 4 - CDF of per-path conditional loss probabilities", res,
                          args);

  static constexpr PairScheme kSchemes[] = {
      PairScheme::kDirectDirect,
      PairScheme::kDirectRand,
      PairScheme::kDd10ms,
      PairScheme::kDd20ms,
  };
  static const char* kNames[] = {"direct direct", "direct rand", "dd 10ms", "dd 20ms"};

  std::ofstream csv_os;
  std::unique_ptr<CsvWriter> csv;
  if (!args.csv_path.empty()) {
    bench::open_output_or_die(csv_os, args.csv_path);
    csv = std::make_unique<CsvWriter>(csv_os);
    csv->row({"method", "clp_percent", "cdf"});
  }

  std::vector<AsciiSeries> series;
  std::printf("%-14s %8s %12s %12s\n", "method", "paths", "median CLP", "mean CLP");
  for (std::size_t i = 0; i < std::size(kSchemes); ++i) {
    // Per the paper, require enough first-copy losses for a usable CLP.
    const auto clps = per_path_clp_percent(*res.agg, kSchemes[i], /*min_first_losses=*/3);
    AsciiSeries s;
    s.name = kNames[i];
    double sum = 0.0;
    const double n = static_cast<double>(clps.size());
    for (std::size_t j = 0; j < clps.size(); ++j) {
      s.xs.push_back(clps[j]);
      s.ys.push_back(static_cast<double>(j + 1) / n);
      sum += clps[j];
      if (csv) {
        csv->row({kNames[i], TextTable::num(clps[j], 2),
                  TextTable::num(static_cast<double>(j + 1) / n, 5)});
      }
    }
    const double median = clps.empty() ? 0.0 : clps[clps.size() / 2];
    std::printf("%-14s %8zu %12.1f %12.1f\n", kNames[i], clps.size(), median,
                clps.empty() ? 0.0 : sum / n);
    series.push_back(std::move(s));
  }
  std::printf("(paper: with back-to-back packets, half of such paths had 100%% CLP;\n"
              " direct rand's distribution sits left of direct direct's)\n\n");
  plot_ascii(std::cout, series, 0.0, 1.0, 72, 18, "conditional loss probability (%)",
             "fraction of paths");
  return 0;
}
