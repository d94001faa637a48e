// Reproduces Table 3: the three datasets. Runs a short slice of each and
// extrapolates the sample count to the paper's full duration, comparing
// against the published sample totals.
//
// Paper: RONnarrow 4,763,082 samples over 3 days; RONwide 2,875,431 over
// 5 days; RON2003 32,602,776 over 14 days.

#include <cstdio>
#include <iostream>

#include "bench/bench_common.h"

using namespace ronpath;

namespace {

struct Row {
  Dataset dataset;
  double paper_days;
  std::int64_t paper_samples;
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, Duration::hours(2), bench::kDuration);

  static constexpr Row kRows[] = {
      {Dataset::kRonNarrow, 3.0, 4'763'082},
      {Dataset::kRonWide, 5.0, 2'875'431},
      {Dataset::kRon2003, 14.0, 32'602'776},
  };

  std::printf("== Table 3 - datasets ==\n");
  TextTable t({"Dataset", "nodes", "methods", "samples (extrapolated)", "paper samples",
               "paper dates"});
  t.set_align(0, TextTable::Align::kLeft);
  t.set_align(5, TextTable::Align::kLeft);
  for (const Row& row : kRows) {
    ExperimentConfig cfg;
    cfg.dataset = row.dataset;
    cfg.duration = args.duration;
    cfg.seed = args.seed;
    const auto res = run_experiment(cfg);
    // A "sample" is one packet observation: count packets, not probes.
    std::int64_t packets = 0;
    for (PairScheme s : res.agg->schemes()) {
      const auto& st = res.agg->scheme_stats(s);
      packets += st.pair.pairs() * (scheme_spec(s).two_packets() ? 2 : 1);
    }
    const double scale = row.paper_days * 86'400.0 / res.measured.to_seconds_f();
    const auto extrapolated = static_cast<std::int64_t>(static_cast<double>(packets) * scale);
    const char* dates = row.dataset == Dataset::kRon2003  ? "30 Apr 2003 - 14 May 2003"
                        : row.dataset == Dataset::kRonWide ? "3 Jul 2002 - 8 Jul 2002"
                                                           : "8 Jul 2002 - 11 Jul 2002";
    t.add_row({std::string(to_string(row.dataset)),
               TextTable::num(static_cast<std::int64_t>(res.topology.size())),
               TextTable::num(static_cast<std::int64_t>(res.agg->schemes().size())),
               TextTable::num(extrapolated), TextTable::num(static_cast<std::int64_t>(row.paper_samples)), dates});
  }
  t.print(std::cout);
  std::printf("(shape check: same order of magnitude as the paper's totals;\n"
              " exact counts depend on probing cadence details)\n");
  return 0;
}
