// Reproduces Table 7: the expanded 12-method comparison on the 2002
// RONwide dataset (round-trip probes, RTT latency column).
//
// Paper values: direct 0.27/133.5, rand 1.12/283.0, lat 0.34/137.0, loss
// 0.21/151.9, direct direct totlp 0.21 clp 72.7, rand rand totlp 0.12 clp
// 11.2, direct rand totlp 0.12 clp 39.2, direct lat totlp 0.11 clp 39.3,
// direct loss totlp 0.11 clp 40.0, rand lat totlp 0.11 clp 9.3, rand loss
// totlp 0.11 clp 9.9, lat loss totlp 0.10 clp 29.0.
//
// With --trials N --jobs J every cell becomes mean±95%-CI over seed-split
// realizations.

#include <fstream>
#include <iostream>

#include "bench/bench_common.h"
#include "routing/schemes.h"

using namespace ronpath;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, Duration::hours(24),
                                            bench::kDuration | bench::kTrials | bench::kCsv |
                                                bench::kFaultScenario);

  ExperimentConfig cfg;
  cfg.dataset = Dataset::kRonWide;
  cfg.duration = args.duration;
  cfg.seed = args.seed;
  args.apply_fault(cfg);

  if (args.multi_trial()) {
    const TrialsResult trials = run_experiment_trials(cfg, args.trials, args.jobs);
    const auto ct = make_cross_trial(trials, ronwide_report_rows(), PairScheme::kDirect);
    bench::print_trials_banner("Table 7 - expanded routing schemes (RONwide, RTT)", trials,
                               args);
    bench::print_loss_table_ci(ct.rows, /*round_trip=*/true);

    if (!args.csv_path.empty()) {
      std::ofstream os;
      bench::open_output_or_die(os, args.csv_path);
      CsvWriter csv(os);
      csv.row({"dataset", "type", "1lp", "1lp_ci", "2lp", "2lp_ci", "totlp", "totlp_ci", "clp",
               "clp_ci", "rtt_ms", "rtt_ms_ci", "samples"});
      bench::csv_loss_table_ci(csv, "ronwide", ct.rows);
      bench::csv_trials_meta(csv, args, trials);
    }
    return 0;
  }

  const auto res = run_experiment(cfg);
  bench::print_run_banner("Table 7 - expanded routing schemes (RONwide, RTT)", res, args);

  const auto rows = make_loss_table(*res.agg, ronwide_report_rows());
  bench::print_loss_table(rows, /*round_trip=*/true);

  std::printf("\nshape checks vs paper:\n");
  auto find = [&](PairScheme s) -> const LossTableRow& {
    for (const auto& r : rows) {
      if (r.scheme == s) return r;
    }
    std::abort();
  };
  const auto& rr = find(PairScheme::kRandRand);
  const auto& dd = find(PairScheme::kDirectDirect);
  const auto& dr = find(PairScheme::kDirectRand);
  const auto& rnd = find(PairScheme::kRand);
  const auto& dir = find(PairScheme::kDirect);
  std::printf("  rand single-copy lossier than direct: %s (%.2f vs %.2f; paper 1.12 vs 0.27)\n",
              rnd.lp1 > dir.lp1 ? "yes" : "NO", rnd.lp1, dir.lp1);
  std::printf("  dd clp highest of all pair schemes:    %s (%.1f; paper 72.7)\n",
              *dd.clp >= *dr.clp && *dd.clp >= *rr.clp ? "yes" : "NO", *dd.clp);
  std::printf("  rand rand clp lowest (independent):    %s (%.1f; paper 11.2)\n",
              *rr.clp <= *dr.clp && *rr.clp <= *dd.clp ? "yes" : "NO", *rr.clp);
  std::printf("  rand RTT far above direct:             %s (%.1f vs %.1f; paper 283 vs 134)\n",
              rnd.lat_ms > dir.lat_ms + 20 ? "yes" : "NO", rnd.lat_ms, dir.lat_ms);

  if (!args.csv_path.empty()) {
    std::ofstream os;
    bench::open_output_or_die(os, args.csv_path);
    CsvWriter csv(os);
    csv.row({"type", "1lp", "2lp", "totlp", "clp", "rtt_ms"});
    for (const auto& r : rows) {
      csv.row({r.name, TextTable::num(r.lp1), r.lp2 ? TextTable::num(*r.lp2) : "",
               TextTable::num(r.totlp), r.clp ? TextTable::num(*r.clp) : "",
               TextTable::num(r.lat_ms)});
    }
  }
  return 0;
}
