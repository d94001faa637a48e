// Reproduces Table 6: hour-long high-loss periods by routing method.
//
// Paper structure: counts of (path, hour) windows whose method loss
// exceeds 0%,10%,...,90%, for direct / dd10 / dd20 / loss / direct rand /
// direct direct / lat loss. Reactive routing trims the long heavy-loss
// tail; mesh routing trims the shallow end.

#include <fstream>
#include <iostream>

#include "bench/bench_common.h"
#include "routing/schemes.h"

using namespace ronpath;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, Duration::hours(48),
                                            bench::kDuration | bench::kCsv | bench::kFaultScenario);

  ExperimentConfig cfg;
  cfg.dataset = Dataset::kRon2003;
  cfg.duration = args.duration;
  cfg.seed = args.seed;
  args.apply_fault(cfg);
  const auto res = run_experiment(cfg);
  bench::print_run_banner("Table 6 - hour-long high-loss periods", res, args);

  // Column order mirrors the paper: simple / redundancy / reactive /
  // mesh / both. "direct" is approximated by the first copies of the
  // direct direct scheme (its pairs are direct packets); probed schemes
  // use their own method loss.
  static constexpr PairScheme kCols[] = {
      PairScheme::kDirectDirect, PairScheme::kDd10ms,     PairScheme::kDd20ms,
      PairScheme::kLoss,         PairScheme::kDirectRand, PairScheme::kLatLoss,
  };
  const auto table = make_high_loss_table(*res.agg, kCols);

  TextTable t({"Loss % >", "direct direct", "dd 10ms", "dd 20 ms", "loss", "direct rand",
               "lat loss"});
  for (std::size_t th = 0; th < kHighLossThresholds; ++th) {
    std::vector<std::string> row;
    row.push_back(TextTable::num(static_cast<std::int64_t>(th * 10)));
    for (std::size_t c = 0; c < table.schemes.size(); ++c) {
      row.push_back(TextTable::num(table.counts[th][c]));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::printf("total hour windows per method:");
  for (auto w : table.total_windows) std::printf(" %lld", static_cast<long long>(w));
  std::printf("\n\npaper (14 d, 30 nodes): direct >0: 8817, loss >0: 10695*, direct rand\n"
              ">0: 3846, lat loss >0: 3353; counts fall steeply with the threshold and\n"
              "reactive methods overtake mesh at high thresholds.\n"
              "(*loss probes detect more shallow-loss hours while avoiding deep ones)\n");

  if (!args.csv_path.empty()) {
    std::ofstream os;
    bench::open_output_or_die(os, args.csv_path);
    CsvWriter csv(os);
    std::vector<std::string> header = {"threshold"};
    for (PairScheme s : table.schemes) header.emplace_back(to_string(s));
    csv.row(header);
    for (std::size_t th = 0; th < kHighLossThresholds; ++th) {
      std::vector<std::string> row = {TextTable::num(static_cast<std::int64_t>(th * 10))};
      for (std::size_t c = 0; c < table.schemes.size(); ++c) {
        row.push_back(TextTable::num(table.counts[th][c]));
      }
      csv.row(row);
    }
  }
  return 0;
}
