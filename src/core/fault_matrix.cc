#include "core/fault_matrix.h"

#include <array>
#include <sstream>

#include "core/cell_env.h"
#include "core/trials.h"
#include "util/table.h"
#include "util/parallel.h"

namespace ronpath {
namespace {

constexpr std::array<FaultScheme, 4> kSchemes = {
    FaultScheme::kDirect, FaultScheme::kReactive, FaultScheme::kMesh, FaultScheme::kHybrid};

}  // namespace

std::string_view to_string(FaultScheme scheme) {
  switch (scheme) {
    case FaultScheme::kDirect: return "direct";
    case FaultScheme::kReactive: return "reactive";
    case FaultScheme::kMesh: return "mesh";
    case FaultScheme::kHybrid: return "hybrid";
  }
  return "?";
}

std::span<const FaultScheme> all_fault_schemes() { return kSchemes; }

FaultCell run_fault_cell(const Scenario& scenario, FaultScheme scheme,
                         const FaultMatrixConfig& cfg, std::uint64_t seed) {
  FaultCellRun run(scenario, scheme, cfg, seed);
  run.run_to_end();
  return run.cell();
}

FaultMatrixResult run_fault_matrix(const FaultMatrixConfig& cfg,
                                   std::span<const Scenario> scenarios, int n_trials,
                                   int n_jobs) {
  FaultMatrixResult result;
  result.cfg = cfg;
  result.n_trials = n_trials;
  const std::size_t n_cells = scenarios.size() * kSchemes.size();
  result.cells.resize(n_cells);
  for (std::size_t c = 0; c < n_cells; ++c) {
    result.cells[c].scenario = std::string(scenarios[c / kSchemes.size()].name);
    result.cells[c].scheme = kSchemes[c % kSchemes.size()];
    result.cells[c].trials.resize(static_cast<std::size_t>(n_trials));
  }

  const std::size_t total = n_cells * static_cast<std::size_t>(n_trials);
  for_each_index(total, static_cast<std::size_t>(n_jobs), [&](std::size_t task) {
    const std::size_t c = task / static_cast<std::size_t>(n_trials);
    const int trial = static_cast<int>(task % static_cast<std::size_t>(n_trials));
    const Scenario& scenario = scenarios[c / kSchemes.size()];
    result.cells[c].trials[static_cast<std::size_t>(trial)] = run_fault_cell(
        scenario, kSchemes[c % kSchemes.size()], cfg, trial_seed(cfg.seed, trial));
  });

  for (auto& cell : result.cells) {
    std::vector<double> pre, fault, post, failover, recovery, overhead;
    for (const FaultCell& t : cell.trials) {
      pre.push_back(t.loss_pre_pct);
      fault.push_back(t.loss_fault_pct);
      post.push_back(t.loss_post_pct);
      if (t.failover_measured) failover.push_back(t.failover_s);
      if (t.recovery_measured) recovery.push_back(t.recovery_s);
      overhead.push_back(t.overhead);
    }
    cell.loss_pre_pct = summarize_metric(pre);
    cell.loss_fault_pct = summarize_metric(fault);
    cell.loss_post_pct = summarize_metric(post);
    cell.failover_s = summarize_metric(failover);
    cell.recovery_s = summarize_metric(recovery);
    cell.overhead = summarize_metric(overhead);
    cell.route_switches = cell.trials[0].route_switches;
    cell.injected_drops = cell.trials[0].injected_drops;
    cell.merged_fault_windows = cell.trials[0].merged_fault_windows;
  }
  return result;
}

std::string format_fault_matrix(const FaultMatrixResult& result,
                                std::span<const Scenario> scenarios) {
  std::ostringstream os;
  const FaultMatrixConfig& cfg = result.cfg;
  os << "== Fault matrix: scheme x scenario ==\n";
  os << "nodes " << cfg.node_count << " | seed " << cfg.seed << " | warmup "
     << cfg.warmup.to_string() << " | measured " << cfg.measured.to_string() << " | send every "
     << cfg.send_interval.to_string() << " | degradation on | trials " << result.n_trials
     << "\n";
  // Duplicate windows in a schedule are legal but have no effect; warn so
  // the author notices. Scenario-major stride over the scheme-expanded
  // cell list, since every scheme compiles the same schedule.
  std::int64_t merged_windows = 0;
  for (std::size_t c = 0; c < result.cells.size(); c += all_fault_schemes().size()) {
    merged_windows += result.cells[c].merged_fault_windows;
  }
  if (merged_windows > 0) {
    os << "warning: " << merged_windows
       << " duplicate/overlapping fault window(s) were silently merged\n";
  }

  std::size_t c = 0;
  for (const Scenario& scenario : scenarios) {
    os << "\n-- " << scenario.name << (scenario.routable ? " (routable)" : " (unroutable)")
       << ": " << scenario.summary << "\n";
    // Echo the schedule so the report is reproducible by itself.
    std::istringstream dsl{std::string(scenario.dsl)};
    for (std::string line; std::getline(dsl, line);) {
      if (!line.empty()) os << "     " << line << "\n";
    }
    TextTable t({"scheme", "loss pre", "loss fault", "loss post", "failover", "recovery",
                 "overhead", "switches", "injected"});
    for (std::size_t s = 0; s < all_fault_schemes().size(); ++s, ++c) {
      const FaultCellSummary& cell = result.cells[c];
      const auto dur_cell = [](const MetricSummary& m) {
        return m.n > 0 ? TextTable::num_ci(m.mean, m.ci95_half, 1) + "s" : std::string("-");
      };
      t.add_row({std::string(to_string(cell.scheme)),
                 TextTable::num_ci(cell.loss_pre_pct.mean, cell.loss_pre_pct.ci95_half) + "%",
                 TextTable::num_ci(cell.loss_fault_pct.mean, cell.loss_fault_pct.ci95_half) + "%",
                 TextTable::num_ci(cell.loss_post_pct.mean, cell.loss_post_pct.ci95_half) + "%",
                 dur_cell(cell.failover_s), dur_cell(cell.recovery_s),
                 TextTable::num_ci(cell.overhead.mean, cell.overhead.ci95_half),
                 TextTable::num(cell.route_switches), TextTable::num(cell.injected_drops)});
    }
    os << t.to_string();
  }
  return os.str();
}

}  // namespace ronpath
