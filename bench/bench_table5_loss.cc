// Reproduces Table 5: one-way loss percentages and latency per routing
// method, for the 2003 (RON2003) and 2002 (RONnarrow + RONwide direct
// direct row) datasets.
//
// Paper values (2003): direct* 0.42/54.13, lat* 0.43/48.01, loss
// 0.33/55.62, direct rand 0.41/2.66/0.26/62.47/51.71, lat loss
// 0.43/1.95/0.23/55.08/46.77, direct direct 0.42/0.43/0.30/72.15/54.24,
// dd 10 ms 0.41/0.42/0.27/66.08/54.28, dd 20 ms 0.41/0.41/0.27/65.28/54.39.
//
// With --trials N --jobs J the whole table is recomputed over N seed-split
// realizations and every cell becomes mean±95%-CI; the paper's published
// numbers remain single-realization point estimates.

#include <fstream>

#include "bench/bench_common.h"
#include "routing/schemes.h"

using namespace ronpath;

namespace {

void dump_csv(const std::string& path, const std::vector<LossTableRow>& rows2003,
              const std::vector<LossTableRow>& rows2002) {
  std::ofstream os;
  bench::open_output_or_die(os, path);
  CsvWriter csv(os);
  csv.row({"dataset", "type", "1lp", "2lp", "totlp", "clp", "lat_ms", "samples"});
  auto emit = [&](const char* ds, const std::vector<LossTableRow>& rows) {
    for (const auto& r : rows) {
      csv.row({ds, r.name, TextTable::num(r.lp1),
               r.lp2 ? TextTable::num(*r.lp2) : "",
               TextTable::num(r.totlp), r.clp ? TextTable::num(*r.clp) : "",
               TextTable::num(r.lat_ms), TextTable::num(r.samples)});
    }
  };
  emit("2003", rows2003);
  emit("2002", rows2002);
}

void dump_csv_ci(const std::string& path, const bench::BenchArgs& args,
                 const TrialsResult& trials2003, const CrossTrial& ct2003,
                 const CrossTrial& ct2002) {
  std::ofstream os;
  bench::open_output_or_die(os, path);
  CsvWriter csv(os);
  csv.row({"dataset", "type", "1lp", "1lp_ci", "2lp", "2lp_ci", "totlp", "totlp_ci", "clp",
           "clp_ci", "lat_ms", "lat_ms_ci", "samples"});
  bench::csv_loss_table_ci(csv, "2003", ct2003.rows);
  bench::csv_loss_table_ci(csv, "2002", ct2002.rows);
  bench::csv_trials_meta(csv, args, trials2003);
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

  ExperimentConfig cfg2002 = cfg;
  cfg2002.dataset = Dataset::kRonNarrow;
  cfg2002.duration = std::min(args.duration, Duration::hours(96));

  static constexpr PairScheme k2002Rows[] = {
      PairScheme::kDirect, PairScheme::kLat, PairScheme::kLoss,
      PairScheme::kDirectRand, PairScheme::kLatLoss,
  };

  if (args.multi_trial()) {
    // --- multi-trial path: every cell becomes mean±95% CI -----------------
    const TrialsResult trials2003 = run_experiment_trials(cfg, args.trials, args.jobs);
    const auto ct2003 =
        make_cross_trial(trials2003, ron2003_report_rows(), PairScheme::kDirectRand);
    bench::print_trials_banner("Table 5 - one-way loss percentages (2003 profile)", trials2003,
                               args);
    bench::print_loss_table_ci(ct2003.rows, /*round_trip=*/false);

    const auto& base = ct2003.base;
    std::printf("\nSection 4.2 check: worst-hour loss %s%% (paper: >13%%), "
                "20-min windows <0.1%% loss: %s%% of time (paper: 30%%), "
                "<0.2%%: %s%% (paper: 68%%)\n",
                TextTable::num_ci(base.worst_hour_loss_percent.mean,
                                  base.worst_hour_loss_percent.ci95_half, 1).c_str(),
                TextTable::num_ci(100.0 * base.frac_windows_below_01pct.mean,
                                  100.0 * base.frac_windows_below_01pct.ci95_half, 0).c_str(),
                TextTable::num_ci(100.0 * base.frac_windows_below_02pct.mean,
                                  100.0 * base.frac_windows_below_02pct.ci95_half, 0).c_str());

    const TrialsResult trials2002 = run_experiment_trials(cfg2002, args.trials, args.jobs);
    const auto ct2002 = make_cross_trial(trials2002, k2002Rows, PairScheme::kDirectRand);
    std::printf("\n");
    bench::print_trials_banner("Table 5 - 2002 rows (RONnarrow profile)", trials2002, args);
    bench::print_loss_table_ci(ct2002.rows, /*round_trip=*/false);
    std::printf("(paper 2002: direct* 0.74, lat* 0.75, loss 0.67, "
                "direct rand totlp 0.38 clp 51.17, lat loss totlp 0.37 clp 49.82)\n");

    if (!args.csv_path.empty()) {
      dump_csv_ci(args.csv_path, args, trials2003, ct2003, ct2002);
    }
    return 0;
  }

  // --- single-trial path: historical output, unchanged ---------------------
  const ExperimentResult res2003 = run_experiment(cfg);
  bench::print_run_banner("Table 5 - one-way loss percentages (2003 profile)", res2003, args);
  const auto rows2003 = make_loss_table(*res2003.agg, ron2003_report_rows());
  bench::print_loss_table(rows2003, /*round_trip=*/false);

  // Loss decomposition of direct packets (first copies of direct rand),
  // the paper's congestion-vs-failure discussion made explicit.
  {
    const auto& st = res2003.agg->scheme_stats(PairScheme::kDirectRand);
    std::int64_t total = st.first_loss_host;
    for (auto c : st.first_loss_by_cause) total += c;
    if (total > 0) {
      std::printf("\ndirect-packet loss causes: burst %.0f%%, outage %.0f%%, random %.0f%%, "
                  "host-failure leak %.0f%%\n",
                  100.0 * static_cast<double>(st.first_loss_by_cause[2]) / static_cast<double>(total),
                  100.0 * static_cast<double>(st.first_loss_by_cause[3]) / static_cast<double>(total),
                  100.0 * static_cast<double>(st.first_loss_by_cause[1]) / static_cast<double>(total),
                  100.0 * static_cast<double>(st.first_loss_host) / static_cast<double>(total));
    }
  }

  const auto base = make_base_stats(*res2003.agg, PairScheme::kDirectRand);
  std::printf("\nSection 4.2 check: worst-hour loss %.1f%% (paper: >13%%), "
              "20-min windows <0.1%% loss: %.0f%% of time (paper: 30%%), "
              "<0.2%%: %.0f%% (paper: 68%%)\n",
              base.worst_hour_loss_percent, 100.0 * base.frac_windows_below_01pct,
              100.0 * base.frac_windows_below_02pct);

  // --- 2002 dataset (RONnarrow one-way rows) ------------------------------
  const ExperimentResult res2002 = run_experiment(cfg2002);
  std::printf("\n");
  bench::print_run_banner("Table 5 - 2002 rows (RONnarrow profile)", res2002, args);
  const auto rows2002 = make_loss_table(*res2002.agg, k2002Rows);
  bench::print_loss_table(rows2002, /*round_trip=*/false);
  std::printf("(paper 2002: direct* 0.74, lat* 0.75, loss 0.67, "
              "direct rand totlp 0.38 clp 51.17, lat loss totlp 0.37 clp 49.82)\n");

  if (!args.csv_path.empty()) dump_csv(args.csv_path, rows2003, rows2002);
  return 0;
}
