// Reproduces Figure 2: cumulative distribution of long-term average loss
// rates on a per-path basis, 2003 vs 2002 datasets.
//
// Paper shape: ~80% of paths have an average loss rate below 1%; the tail
// extends to ~6-7% (Korea <-> US DSL).

#include <fstream>
#include <iostream>

#include "bench/bench_common.h"

using namespace ronpath;

namespace {

std::vector<double> run_and_extract(Dataset dataset, const bench::BenchArgs& args,
                                    PairScheme scheme) {
  ExperimentConfig cfg;
  cfg.dataset = dataset;
  cfg.duration = args.duration;
  cfg.seed = args.seed;
  const auto res = run_experiment(cfg);
  // Long-term direct loss per path, from the first copies of the probed
  // two-packet scheme (direct rand), as the paper infers direct*.
  return per_path_loss_percent(*res.agg, scheme, /*min_samples=*/40);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, Duration::hours(24),
                                            bench::kDuration | bench::kCsv);

  std::printf("== Figure 2 - CDF of long-term per-path loss rates ==\n");
  const auto loss2003 = run_and_extract(Dataset::kRon2003, args, PairScheme::kDirectRand);
  const auto loss2002 = run_and_extract(Dataset::kRonNarrow, args, PairScheme::kDirectRand);

  auto to_series = [](const std::vector<double>& sorted_losses, const char* name) {
    AsciiSeries s;
    s.name = name;
    const double n = static_cast<double>(sorted_losses.size());
    for (std::size_t i = 0; i < sorted_losses.size(); ++i) {
      s.xs.push_back(sorted_losses[i]);
      s.ys.push_back(static_cast<double>(i + 1) / n);
    }
    return s;
  };
  plot_ascii(std::cout, {to_series(loss2003, "2003 dataset"), to_series(loss2002, "2002 dataset")},
             0.0, 1.0, 72, 20, "average path-wide loss rate (%)", "fraction of paths");

  auto frac_below = [](const std::vector<double>& v, double x) {
    std::size_t c = 0;
    while (c < v.size() && v[c] < x) ++c;
    return v.empty() ? 0.0 : static_cast<double>(c) / static_cast<double>(v.size());
  };
  std::printf("\n2003: %zu paths, %.0f%% below 1%% loss (paper: ~80%%), max %.2f%%\n",
              loss2003.size(), 100.0 * frac_below(loss2003, 1.0),
              loss2003.empty() ? 0.0 : loss2003.back());
  std::printf("2002: %zu paths, %.0f%% below 1%% loss, max %.2f%%\n", loss2002.size(),
              100.0 * frac_below(loss2002, 1.0), loss2002.empty() ? 0.0 : loss2002.back());

  if (!args.csv_path.empty()) {
    std::ofstream os;
    bench::open_output_or_die(os, args.csv_path);
    CsvWriter csv(os);
    csv.row({"dataset", "loss_percent", "cdf"});
    for (std::size_t i = 0; i < loss2003.size(); ++i) {
      csv.row({"2003", TextTable::num(loss2003[i], 4),
               TextTable::num(static_cast<double>(i + 1) / loss2003.size(), 5)});
    }
    for (std::size_t i = 0; i < loss2002.size(); ++i) {
      csv.row({"2002", TextTable::num(loss2002[i], 4),
               TextTable::num(static_cast<double>(i + 1) / loss2002.size(), 5)});
    }
  }
  return 0;
}
