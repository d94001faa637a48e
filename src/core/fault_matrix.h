// Fault matrix: every routing scheme through every canonical fault
// scenario, with per-phase loss, failover and recovery times.
//
// One cell = one (scenario, scheme, trial) triple run as its own fresh
// simulation: topology subset, calibrated underlay (organic incidents
// and host failures disabled so only the scripted fault perturbs the
// run), RON overlay with graceful degradation enabled, plus the
// scenario's FaultInjector. A CBR flow src=0 -> dst=1 is sampled every
// send_interval; the delivery timeline yields:
//
//   loss pre/fault/post - loss rate before / during / after the fault
//                         window;
//   failover            - fault start -> first K-consecutive-delivery
//                         streak after the first fault-window loss
//                         (0 when the scheme never lost a packet);
//   recovery            - fault end -> first K-streak at/after it.
//
// Determinism: a cell is a pure function of (scenario, scheme, seed,
// config); trial i runs under trial_seed(seed, i) (core/trials.h), and
// format_fault_matrix renders with fixed precision, so the same seed and
// schedule produce a byte-identical report at any --jobs value.

#ifndef RONPATH_CORE_FAULT_MATRIX_H_
#define RONPATH_CORE_FAULT_MATRIX_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fault/scenarios.h"
#include "measure/cross_trial.h"
#include "util/time.h"

namespace ronpath {

// The routing schemes compared in the matrix (Table 4 tactics plus the
// Section 5.3 hybrids).
enum class FaultScheme : std::uint8_t {
  kDirect,    // always the direct Internet path
  kReactive,  // loss-optimized best path (pure reactive)
  kMesh,      // duplicate on disjoint paths (pure redundancy, 2x)
  kHybrid,    // adaptive duplication (reactive + redundancy)
};

[[nodiscard]] std::string_view to_string(FaultScheme scheme);
[[nodiscard]] std::span<const FaultScheme> all_fault_schemes();

struct FaultMatrixConfig {
  // First node_count hosts of the 2003 testbed (node 0 = source,
  // 1 = destination, 2.. = candidate vias, matching the scenarios).
  std::size_t node_count = 12;
  std::uint64_t seed = 42;
  Duration warmup = Duration::minutes(30);
  Duration measured = Duration::minutes(25);
  Duration send_interval = Duration::millis(100);
  // Consecutive deliveries that count as "stable" for failover/recovery.
  int stable_streak = 5;

  // --- scaling (DESIGN.md §14) ---
  // > 0: run the cell on a synthetic hierarchical topology of this many
  // sites (net/scale_topology.h) instead of the testbed subset.
  std::size_t synth_nodes = 0;
  // > 0: bandwidth-capped overlay (k-nearest graph + rotated
  // announcements + landmarks); 0 keeps the full mesh.
  std::size_t overlay_fanout = 0;
  std::size_t overlay_landmarks = 8;
};

// One (scenario, scheme) cell from a single trial.
struct FaultCell {
  double loss_pre_pct = 0.0;
  double loss_fault_pct = 0.0;
  double loss_post_pct = 0.0;
  bool failover_measured = false;  // a stable streak was found
  double failover_s = 0.0;
  bool recovery_measured = false;
  double recovery_s = 0.0;
  double overhead = 1.0;               // copies per application packet
  std::int64_t route_switches = 0;     // src's loss-objective switches to dst
  std::int64_t injected_drops = 0;     // underlay drops charged to the fault
  // Overlapping fault windows coalesced when the scenario was compiled
  // (0 for all canonical scenarios; see FaultInjector::merged_window_count).
  std::int64_t merged_fault_windows = 0;
};

// Runs one cell (core/cell_env.h's FaultCellRun) to the end; pure
// function of its arguments (see header comment).
[[nodiscard]] FaultCell run_fault_cell(const Scenario& scenario, FaultScheme scheme,
                                       const FaultMatrixConfig& cfg, std::uint64_t seed);

struct FaultCellSummary {
  std::string scenario;
  FaultScheme scheme = FaultScheme::kDirect;
  MetricSummary loss_pre_pct;
  MetricSummary loss_fault_pct;
  MetricSummary loss_post_pct;
  MetricSummary failover_s;  // over trials where a streak was found
  MetricSummary recovery_s;
  MetricSummary overhead;
  std::int64_t route_switches = 0;  // trial-0 value (deterministic pin)
  std::int64_t injected_drops = 0;
  std::int64_t merged_fault_windows = 0;
  std::vector<FaultCell> trials;  // index == trial
};

struct FaultMatrixResult {
  FaultMatrixConfig cfg;
  int n_trials = 1;
  // Scenario-major, scheme-minor, in canonical order.
  std::vector<FaultCellSummary> cells;
};

// Runs the full matrix over `scenarios` with `n_trials` realizations per
// cell, sharded across up to `n_jobs` threads. Results are stored by
// (scenario, scheme, trial) index, never by completion order.
[[nodiscard]] FaultMatrixResult run_fault_matrix(const FaultMatrixConfig& cfg,
                                                 std::span<const Scenario> scenarios,
                                                 int n_trials, int n_jobs);

// Deterministic text report: per-scenario DSL echo plus the scheme table.
[[nodiscard]] std::string format_fault_matrix(const FaultMatrixResult& result,
                                              std::span<const Scenario> scenarios);

}  // namespace ronpath

#endif  // RONPATH_CORE_FAULT_MATRIX_H_
