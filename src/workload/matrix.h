// The workload matrix: every redundancy policy through every canonical
// fault scenario, scored by user-perceived per-class metrics.
//
// One cell = one (scenario, policy) WorkloadWorld run to completion.
// Cells are pure functions of (scenario, policy, config, seed) and are
// stored by index, so the matrix — and its formatted report — is
// byte-identical at any --jobs value.

#ifndef RONPATH_WORKLOAD_MATRIX_H_
#define RONPATH_WORKLOAD_MATRIX_H_

#include <array>
#include <span>
#include <string>
#include <vector>

#include "fault/scenarios.h"
#include "workload/world.h"

namespace ronpath {

// Per-class results of one cell, extracted from ClassMetrics.
struct ClassCell {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  double loss_pct = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double slo_pct = 0.0;
  double mos = 1.0;
  std::uint64_t bursts = 0;
};

struct WorkloadCell {
  std::string scenario;
  WorkloadPolicy policy = WorkloadPolicy::kProbeOnly;
  std::array<ClassCell, kServiceClassCount> classes;
  double overhead = 1.0;
  std::int64_t transitions = 0;
  std::int64_t fec_blocks = 0;
  std::int64_t fec_recovered = 0;
};

struct WorkloadMatrixResult {
  WorkloadConfig cfg;
  std::uint64_t seed = 0;
  // Scenario-major, policy-minor, in canonical order.
  std::vector<WorkloadCell> cells;
};

// Runs one cell to completion and extracts its summary.
[[nodiscard]] WorkloadCell run_workload_cell(const Scenario& scenario, WorkloadPolicy policy,
                                             const WorkloadConfig& cfg, std::uint64_t seed);

// The full matrix, sharded across up to n_jobs threads (results stored
// by index, never by completion order).
[[nodiscard]] WorkloadMatrixResult run_workload_matrix(const WorkloadConfig& cfg,
                                                       std::span<const Scenario> scenarios,
                                                       std::uint64_t seed, int n_jobs);

// Deterministic text report: per-scenario per-class tables plus the
// cross-policy SLO-attainment matrix the acceptance gate reads.
[[nodiscard]] std::string format_workload_matrix(const WorkloadMatrixResult& result,
                                                 std::span<const Scenario> scenarios);

}  // namespace ronpath

#endif  // RONPATH_WORKLOAD_MATRIX_H_
