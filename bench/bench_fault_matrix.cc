// Fault matrix: direct / reactive / mesh / hybrid routing through the
// canonical fault-scenario suite (src/fault/scenarios.h), reporting
// per-phase loss, failover and recovery times.
//
// The matrix is the robustness companion to the paper's Table 4: instead
// of sampling organic failures over days, every scheme is pushed through
// the same scripted fault at the same instant, so the failover numbers
// are directly attributable. Same seed + same schedule => byte-identical
// report (the golden test pins one cell).
//
//   --fault-scenario NAME|FILE   run one scenario (default: all)
//   --trials N --jobs J          cross-trial mean±95% CI cells
//   --quick                      8-node topology (CI smoke)

#include <fstream>
#include <vector>

#include "bench_common.h"
#include "core/fault_matrix.h"

using namespace ronpath;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, Duration::minutes(25),
                                            bench::kTrials | bench::kCsv | bench::kFaultScenario);

  FaultMatrixConfig cfg;
  cfg.seed = args.seed;
  if (args.quick) cfg.node_count = 8;

  // Scenario selection: the full canonical suite, or the one named /
  // loaded schedule. Custom files run on the canonical one-shot window.
  std::vector<Scenario> selected;
  if (args.fault_scenario.empty()) {
    const auto all = canonical_scenarios();
    selected.assign(all.begin(), all.end());
  } else if (const Scenario* s = find_scenario(args.fault_scenario)) {
    selected.push_back(*s);
  } else {
    selected.push_back(Scenario{args.fault_scenario, "custom schedule", args.fault_dsl,
                                kFaultStart, kFaultDuration, /*routable=*/true});
  }

  const FaultMatrixResult result = run_fault_matrix(cfg, selected, args.trials, args.jobs);
  std::fputs(format_fault_matrix(result, selected).c_str(), stdout);

  if (!args.csv_path.empty()) {
    std::ofstream csv_file;
    bench::open_output_or_die(csv_file, args.csv_path);
    CsvWriter csv(csv_file);
    csv.row({"scenario", "scheme", "loss_pre_pct", "loss_fault_pct", "loss_post_pct",
             "failover_s", "recovery_s", "overhead", "route_switches", "injected_drops"});
    for (const FaultCellSummary& cell : result.cells) {
      csv.row({cell.scenario, std::string(to_string(cell.scheme)),
               TextTable::num(cell.loss_pre_pct.mean), TextTable::num(cell.loss_fault_pct.mean),
               TextTable::num(cell.loss_post_pct.mean),
               TextTable::opt_num(cell.failover_s.n > 0, cell.failover_s.mean, 1),
               TextTable::opt_num(cell.recovery_s.n > 0, cell.recovery_s.mean, 1),
               TextTable::num(cell.overhead.mean), TextTable::num(cell.route_switches),
               TextTable::num(cell.injected_drops)});
    }
  }
  return 0;
}
