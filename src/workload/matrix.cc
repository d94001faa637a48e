#include "workload/matrix.h"

#include <sstream>

#include "util/table.h"
#include "util/parallel.h"

namespace ronpath {

WorkloadCell run_workload_cell(const Scenario& scenario, WorkloadPolicy policy,
                               const WorkloadConfig& cfg, std::uint64_t seed) {
  WorkloadWorld world(scenario, policy, cfg, seed);
  world.run_to_end();

  WorkloadCell cell;
  cell.scenario = std::string(scenario.name);
  cell.policy = policy;
  for (std::size_t c = 0; c < kServiceClassCount; ++c) {
    const ClassMetrics& m = world.metrics()[c];
    ClassCell& out = cell.classes[c];
    out.sent = m.sent();
    out.delivered = m.delivered();
    out.loss_pct = m.loss_pct();
    out.p50_ms = m.p50().to_millis_f();
    out.p99_ms = m.p99().to_millis_f();
    out.p999_ms = m.p999().to_millis_f();
    out.slo_pct = m.slo_attainment_pct();
    out.mos = m.mos(cfg.spec.classes[c].slo_latency);
    out.bursts = m.bursts();
  }
  cell.overhead = world.overhead_factor();
  cell.transitions = world.transitions();
  cell.fec_blocks = world.fec_blocks();
  cell.fec_recovered = world.fec_recovered();
  return cell;
}

WorkloadMatrixResult run_workload_matrix(const WorkloadConfig& cfg,
                                         std::span<const Scenario> scenarios,
                                         std::uint64_t seed, int n_jobs) {
  const std::span<const WorkloadPolicy> policies = all_workload_policies();
  WorkloadMatrixResult result;
  result.cfg = cfg;
  result.seed = seed;
  result.cells.resize(scenarios.size() * policies.size());

  for_each_index(result.cells.size(), static_cast<std::size_t>(n_jobs), [&](std::size_t task) {
    const Scenario& scenario = scenarios[task / policies.size()];
    const WorkloadPolicy policy = policies[task % policies.size()];
    result.cells[task] = run_workload_cell(scenario, policy, cfg, seed);
  });
  return result;
}

std::string format_workload_matrix(const WorkloadMatrixResult& result,
                                   std::span<const Scenario> scenarios) {
  const std::span<const WorkloadPolicy> policies = all_workload_policies();
  std::ostringstream os;
  const WorkloadConfig& cfg = result.cfg;
  os << "== Workload matrix: policy x scenario, per-class SLOs ==\n";
  os << "nodes " << cfg.cell.node_count << " | seed " << result.seed << " | warmup "
     << cfg.cell.warmup.to_string() << " | measured " << cfg.cell.measured.to_string()
     << " | population " << TextTable::num(cfg.spec.population, 0) << " | access "
     << TextTable::num(cfg.spec.access_bytes_per_s / 1024.0, 0) << "KB/s\n";
  os << "classes:";
  for (std::size_t c = 0; c < kServiceClassCount; ++c) {
    const ClassSpec& cs = cfg.spec.classes[c];
    os << " " << to_string(static_cast<ServiceClass>(c)) << "(mix "
       << TextTable::num(cs.mix, 2) << ", " << TextTable::num(cs.rate_pps, 0) << "pps x "
       << TextTable::num(cs.packet_bytes, 0) << "B, slo " << cs.slo_latency.to_string() << "/"
       << TextTable::num(cs.slo_loss_pct, 1) << "%)";
  }
  os << "\n";

  std::size_t cell_index = 0;
  for (const Scenario& scenario : scenarios) {
    os << "\n-- " << scenario.name << (scenario.routable ? " (routable)" : " (unroutable)")
       << ": " << scenario.summary << "\n";
    TextTable t({"policy", "class", "sent", "loss", "p50", "p99", "p999", "slo", "mos",
                 "overhead", "switches"});
    for (std::size_t p = 0; p < policies.size(); ++p, ++cell_index) {
      const WorkloadCell& cell = result.cells[cell_index];
      for (std::size_t c = 0; c < kServiceClassCount; ++c) {
        const ClassCell& cc = cell.classes[c];
        t.add_row({c == 0 ? std::string(to_string(cell.policy)) : "",
                   std::string(to_string(static_cast<ServiceClass>(c))),
                   TextTable::num(static_cast<std::int64_t>(cc.sent)),
                   TextTable::num(cc.loss_pct) + "%", TextTable::num(cc.p50_ms) + "ms",
                   TextTable::num(cc.p99_ms) + "ms", TextTable::num(cc.p999_ms) + "ms",
                   TextTable::num(cc.slo_pct) + "%", TextTable::num(cc.mos),
                   c == 0 ? TextTable::num(cell.overhead) : "",
                   c == 0 ? TextTable::num(cell.transitions) : ""});
      }
    }
    os << t.to_string();
  }

  // The acceptance gate's view: per (scenario, class) SLO attainment
  // across policies, flagging where the adaptive loop strictly beats
  // both static policies.
  os << "\n-- SLO attainment (scenario x class, per policy) --\n";
  TextTable t({"scenario", "class", "probe-only", "static-2x", "adaptive", "winner"});
  cell_index = 0;
  for (const Scenario& scenario : scenarios) {
    const WorkloadCell& probe = result.cells[cell_index];
    const WorkloadCell& mesh = result.cells[cell_index + 1];
    const WorkloadCell& adaptive = result.cells[cell_index + 2];
    cell_index += policies.size();
    for (std::size_t c = 0; c < kServiceClassCount; ++c) {
      const double po = probe.classes[c].slo_pct;
      const double st = mesh.classes[c].slo_pct;
      const double ad = adaptive.classes[c].slo_pct;
      std::string winner = "-";
      if (ad > po && ad > st) {
        winner = "adaptive";
      } else if (st > po && st > ad) {
        winner = "static-2x";
      } else if (po > st && po > ad) {
        winner = "probe-only";
      }
      t.add_row({c == 0 ? std::string(scenario.name) : "",
                 std::string(to_string(static_cast<ServiceClass>(c))),
                 TextTable::num(po) + "%", TextTable::num(st) + "%", TextTable::num(ad) + "%",
                 winner});
    }
  }
  os << t.to_string();
  return os.str();
}

}  // namespace ronpath
