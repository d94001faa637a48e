// Section 5.2 analysis: what same-path FEC must do to survive the
// measured loss correlation.
//
// Builds the CLP-vs-gap curve from the measured dd 0/10/20 ms probes, then
// computes (a) the gap at which losses de-correlate, (b) the failure
// probability of a 5+1 FEC group as a function of packet spacing, and
// (c) the spacing needed to approach independent-loss performance - the
// paper's "spread out by nearly half a second" conclusion.

#include <fstream>
#include <iostream>

#include "bench/bench_common.h"
#include "model/fec_analysis.h"

using namespace ronpath;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, Duration::hours(12),
                                            bench::kDuration | bench::kCsv);

  ExperimentConfig cfg;
  cfg.dataset = Dataset::kRon2003;
  cfg.duration = args.duration;
  cfg.seed = args.seed;
  const auto res = run_experiment(cfg);
  bench::print_run_banner("Section 5.2 - FEC spreading analysis", res, args);

  const auto clp_of = [&](PairScheme s) {
    return res.agg->scheme_stats(s).pair.conditional_loss_percent().value_or(0.0) / 100.0;
  };
  const double base = res.agg->scheme_stats(PairScheme::kDirectDirect).pair
                          .first_loss_percent() / 100.0;
  ClpCurve curve({{Duration::zero(), clp_of(PairScheme::kDirectDirect)},
                  {Duration::millis(10), clp_of(PairScheme::kDd10ms)},
                  {Duration::millis(20), clp_of(PairScheme::kDd20ms)}},
                 base);

  std::printf("measured CLP: dd0 %.1f%%, dd10 %.1f%%, dd20 %.1f%%, unconditional %.2f%%\n",
              100.0 * curve.at(Duration::zero()), 100.0 * curve.at(Duration::millis(10)),
              100.0 * curve.at(Duration::millis(20)), 100.0 * base);
  std::printf("de-correlation gap (CLP within 2pp of unconditional): %s "
              "(paper: ~half a second)\n\n",
              curve.decorrelation_gap(0.02).to_string().c_str());

  std::printf("5+1 same-path FEC group failure probability vs packet spacing:\n");
  TextTable t({"spacing", "P(group fails)", "vs independent"});
  FecSchemeParams scheme;
  scheme.data_packets = 5;
  scheme.parity_packets = 1;
  // Independent-loss baseline: losses i.i.d. at the unconditional rate.
  ClpCurve independent({{Duration::zero(), base}}, base);
  scheme.packet_spacing = Duration::zero();
  const double p_indep = fec_group_failure_probability(independent, base, scheme);
  std::ofstream csv_os;
  std::unique_ptr<CsvWriter> csv;
  if (!args.csv_path.empty()) {
    bench::open_output_or_die(csv_os, args.csv_path);
    csv = std::make_unique<CsvWriter>(csv_os);
    csv->row({"spacing_ms", "p_fail", "p_independent"});
  }
  for (int ms : {0, 5, 10, 20, 50, 100, 200, 400, 800}) {
    scheme.packet_spacing = Duration::millis(ms);
    const double pf = fec_group_failure_probability(curve, base, scheme);
    t.add_row({Duration::millis(ms).to_string(), TextTable::num(pf * 100.0, 4) + "%",
               TextTable::num(p_indep > 0 ? pf / p_indep : 0.0, 1) + "x"});
    if (csv) {
      csv->row({TextTable::num(static_cast<std::int64_t>(ms)), TextTable::num(pf, 8),
                TextTable::num(p_indep, 8)});
    }
  }
  t.print(std::cout);

  const Duration needed = required_spacing(curve, base, 5, 1, 3.0 * p_indep);
  std::printf("\nspacing for a 5+1 group to get within 3x of independent loss: %s\n",
              needed.to_string().c_str());
  std::printf("=> total group spread %s; the latency cost the paper says erases FEC's\n"
              "   advantage on terrestrial paths (Section 5.2).\n",
              (needed * 5).to_string().c_str());
  return 0;
}
