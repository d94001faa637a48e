// The entire Section 4 evaluation from a single shared run.
//
// The per-table/figure benches each run their own simulation, which is
// convenient for iteration but wasteful at full scale. This binary runs
// one RON2003 experiment (use --days 14 for the paper's span) and prints
// every table and figure the paper derives from that dataset: Table 5,
// Table 6, Figures 2-5, and the Section 4.2 base statistics; Figure 6's
// design space is instantiated from the same run's measurements.

#include <fstream>
#include <iostream>

#include "bench/bench_common.h"
#include "model/bounds.h"
#include "model/design_space.h"
#include "routing/schemes.h"

using namespace ronpath;

namespace {

void print_table6(const Aggregator& agg) {
  static constexpr PairScheme kCols[] = {
      PairScheme::kDirectDirect, PairScheme::kDd10ms,     PairScheme::kDd20ms,
      PairScheme::kLoss,         PairScheme::kDirectRand, PairScheme::kLatLoss,
  };
  const auto table = make_high_loss_table(agg, kCols);
  TextTable t({"Loss % >", "direct direct", "dd 10ms", "dd 20 ms", "loss", "direct rand",
               "lat loss"});
  for (std::size_t th = 0; th < kHighLossThresholds; ++th) {
    std::vector<std::string> row = {TextTable::num(static_cast<std::int64_t>(th * 10))};
    for (std::size_t c = 0; c < table.schemes.size(); ++c) {
      row.push_back(TextTable::num(table.counts[th][c]));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
}

void print_figure_quantiles(const Aggregator& agg) {
  std::printf("\n== Figure 2 - per-path long-term direct loss (quantiles, %%) ==\n");
  const auto losses = per_path_loss_percent(agg, PairScheme::kDirectRand, 30);
  if (!losses.empty()) {
    auto q = [&](double f) {
      return losses[static_cast<std::size_t>(f * static_cast<double>(losses.size() - 1))];
    };
    std::printf("paths: %zu   p50 %.3f   p80 %.3f   p95 %.3f   max %.2f   "
                "(paper: 80%% of paths < 1%%)\n",
                losses.size(), q(0.5), q(0.8), q(0.95), losses.back());
  }

  std::printf("\n== Figure 3 - 20-minute loss-rate CDF (zero-loss fraction) ==\n");
  for (PairScheme s : ron2003_probe_set()) {
    const auto cdf = window_loss_cdf(agg, s);
    double f0 = 0.0;
    for (const auto& pt : cdf) {
      if (pt.x <= 0.006) f0 = pt.f;
    }
    std::printf("  %-14s F(0) = %.4f\n", std::string(to_string(s)).c_str(), f0);
  }
  std::printf("  (paper: over 95%% of samples at 0%% loss)\n");

  std::printf("\n== Figure 4 - per-path CLP medians ==\n");
  for (PairScheme s : {PairScheme::kDirectDirect, PairScheme::kDirectRand,
                       PairScheme::kDd10ms, PairScheme::kDd20ms}) {
    const auto clps = per_path_clp_percent(agg, s, 3);
    const double median = clps.empty() ? 0.0 : clps[clps.size() / 2];
    std::printf("  %-14s paths %4zu   median CLP %5.1f%%\n",
                std::string(to_string(s)).c_str(), clps.size(), median);
  }
  std::printf("  (paper: back-to-back median 100%%; direct rand shifted left)\n");

  std::printf("\n== Figure 5 - per-pair latency means (ms) ==\n");
  struct Ser {
    const char* name;
    PairScheme scheme;
    bool first;
  };
  static constexpr Ser kSer[] = {{"lat loss", PairScheme::kLatLoss, false},
                                 {"lat", PairScheme::kLatLoss, true},
                                 {"direct rand", PairScheme::kDirectRand, false},
                                 {"direct", PairScheme::kDirectRand, true},
                                 {"loss", PairScheme::kLoss, true}};
  for (const auto& s : kSer) {
    const auto lats = per_pair_latency_ms(agg, s.scheme, s.first, 30);
    if (lats.empty()) continue;
    double sum = 0.0;
    for (double v : lats) sum += v;
    std::printf("  %-12s mean %6.2f   p90 %6.1f   max %7.1f\n", s.name,
                sum / static_cast<double>(lats.size()),
                lats[static_cast<std::size_t>(0.9 * static_cast<double>(lats.size() - 1))],
                lats.back());
  }
  std::printf("  (paper ordering: lat loss < lat < direct rand < direct ~ loss)\n");
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, Duration::hours(24),
                                            bench::kDuration | bench::kTrials | bench::kCsv |
                                                bench::kFaultScenario);

  ExperimentConfig cfg;
  cfg.dataset = Dataset::kRon2003;
  cfg.duration = args.duration;
  cfg.seed = args.seed;
  args.apply_fault(cfg);
  if (!args.csv_path.empty()) cfg.record_path = args.csv_path + ".rond";

  if (args.multi_trial()) {
    // Multi-trial: Table 5 and Section 4.2 get cross-trial error bars;
    // Table 6 and the figures are computed from all trials' records
    // pooled into one merged aggregator (N independent realizations of
    // the same 14-day process, exactly N times the windows).
    TrialsResult trials = run_experiment_trials(cfg, args.trials, args.jobs);
    const auto ct = make_cross_trial(trials, ron2003_report_rows(), PairScheme::kDirectRand);
    bench::print_trials_banner("Full evaluation (multi-trial)", trials, args);

    std::printf("\n== Table 5 (mean ± 95%% CI over %d trials) ==\n", args.trials);
    bench::print_loss_table_ci(ct.rows, /*round_trip=*/false);

    const auto& base = ct.base;
    std::printf("\n== Section 4.2 ==\noverall direct loss %s%% | worst hour %s%% | "
                "20-min windows <0.1%%: %s%%, <0.2%%: %s%%\n",
                TextTable::num_ci(base.loss_percent.mean, base.loss_percent.ci95_half).c_str(),
                TextTable::num_ci(base.worst_hour_loss_percent.mean,
                                  base.worst_hour_loss_percent.ci95_half, 1).c_str(),
                TextTable::num_ci(100.0 * base.frac_windows_below_01pct.mean,
                                  100.0 * base.frac_windows_below_01pct.ci95_half, 0).c_str(),
                TextTable::num_ci(100.0 * base.frac_windows_below_02pct.mean,
                                  100.0 * base.frac_windows_below_02pct.ci95_half, 0).c_str());

    Aggregator& merged = *trials.trials[0].result.agg;
    for (std::size_t i = 1; i < trials.trials.size(); ++i) {
      merged.merge(*trials.trials[i].result.agg);
    }

    std::printf("\n== Table 6 - hour-long high-loss periods (pooled over %d trials) ==\n",
                args.trials);
    print_table6(merged);

    print_figure_quantiles(merged);

    const auto& dr = merged.scheme_stats(PairScheme::kDirectRand);
    DesignSpaceParams params;
    params.independence_limit =
        1.0 - dr.pair.conditional_loss_percent().value_or(50.0) / 100.0;
    const DesignSpace ds(params);
    int redundant_cheaper = 0;
    const auto grid = ds.grid(21, 21);
    for (const auto& pt : grid) {
      if (pt.region == SchemeRegion::kEither && !pt.reactive_cheaper) ++redundant_cheaper;
    }
    std::printf("\n== Figure 6 ==\nindependence limit %.2f (= 1 - clp); redundant-cheaper cells "
                "%d/441 of the grid\n",
                params.independence_limit, redundant_cheaper);

    if (!args.csv_path.empty()) {
      std::ofstream os;
      bench::open_output_or_die(os, args.csv_path);
      CsvWriter csv(os);
      csv.row({"dataset", "type", "1lp", "1lp_ci", "2lp", "2lp_ci", "totlp", "totlp_ci", "clp",
               "clp_ci", "lat_ms", "lat_ms_ci", "samples"});
      bench::csv_loss_table_ci(csv, "2003", ct.rows);
      bench::csv_trials_meta(csv, args, trials);
      std::printf("\nwrote %s (+ per-trial records to %s.rond.trial<i>)\n",
                  args.csv_path.c_str(), args.csv_path.c_str());
    }
    return 0;
  }

  const auto res = run_experiment(cfg);
  const Aggregator& agg = *res.agg;

  bench::print_run_banner("Full evaluation (single shared run)", res, args);

  std::printf("\n== Table 5 ==\n");
  const auto rows = make_loss_table(agg, ron2003_report_rows());
  bench::print_loss_table(rows, /*round_trip=*/false);

  const auto base = make_base_stats(agg, PairScheme::kDirectRand);
  std::printf("\n== Section 4.2 ==\noverall direct loss %.2f%% | worst hour %.1f%% | "
              "20-min windows <0.1%%: %.0f%%, <0.2%%: %.0f%%\n",
              agg.scheme_stats(PairScheme::kDirectRand).pair.first_loss_percent(),
              base.worst_hour_loss_percent, 100.0 * base.frac_windows_below_01pct,
              100.0 * base.frac_windows_below_02pct);

  std::printf("\n== Table 6 - hour-long high-loss periods ==\n");
  print_table6(agg);

  print_figure_quantiles(agg);

  // Figure 6 from this run's own measurements.
  const auto& dr = agg.scheme_stats(PairScheme::kDirectRand);
  DesignSpaceParams params;
  params.independence_limit =
      1.0 - dr.pair.conditional_loss_percent().value_or(50.0) / 100.0;
  const DesignSpace ds(params);
  int redundant_cheaper = 0;
  const auto grid = ds.grid(21, 21);
  for (const auto& pt : grid) {
    if (pt.region == SchemeRegion::kEither && !pt.reactive_cheaper) ++redundant_cheaper;
  }
  std::printf("\n== Figure 6 ==\nindependence limit %.2f (= 1 - clp); redundant-cheaper cells "
              "%d/441 of the grid\n",
              params.independence_limit, redundant_cheaper);

  if (!args.csv_path.empty()) {
    std::ofstream os;
    bench::open_output_or_die(os, args.csv_path);
    CsvWriter csv(os);
    csv.row({"type", "1lp", "2lp", "totlp", "clp", "lat_ms"});
    for (const auto& r : rows) {
      csv.row({r.name, TextTable::num(r.lp1), r.lp2 ? TextTable::num(*r.lp2) : "",
               TextTable::num(r.totlp), r.clp ? TextTable::num(*r.clp) : "",
               TextTable::num(r.lat_ms)});
    }
    std::printf("\nwrote %s (+ raw records to %s.rond)\n", args.csv_path.c_str(),
                args.csv_path.c_str());
  }
  return 0;
}
