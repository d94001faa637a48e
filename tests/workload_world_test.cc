// WorkloadWorld determinism, policy behaviour and the acceptance pins.
//
// 1. Determinism: a finished world is a pure function of (scenario,
//    policy, config, seed) — byte-identical reports across repeated
//    runs, and a matrix report independent of --jobs.
// 2. Policy accounting: probe-only never sends a second copy, static-2x
//    always does, adaptive sits between.
// 3. Closed-loop sanity: the link-flap scenario cannot make the
//    controller amplify the flap into redundancy churn (transition
//    bound), and the adaptive policy strictly beats BOTH static
//    policies on at least one (scenario, class) SLO-attainment column —
//    the PR's headline claim, pinned here so it cannot regress.
// 4. Golden pin: one cell's per-class SLO columns are pinned exactly so
//    any behavioural drift in the workload stack is caught as a diff,
//    not as silence.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/scenarios.h"
#include "workload/matrix.h"
#include "workload/world.h"

namespace ronpath {
namespace {

const Scenario& scenario_named(std::string_view name) {
  const Scenario* s = find_scenario(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

TEST(WorkloadWorld, ReportByteIdenticalAcrossRuns) {
  const WorkloadConfig cfg;
  const Scenario& scenario = scenario_named("provider-blackout");

  WorkloadWorld a(scenario, WorkloadPolicy::kAdaptive, cfg, 42);
  a.run_to_end();
  WorkloadWorld b(scenario, WorkloadPolicy::kAdaptive, cfg, 42);
  b.run_to_end();

  ASSERT_TRUE(a.finished());
  EXPECT_GT(a.total_packets(), 1000u);
  EXPECT_EQ(a.report(), b.report());

  std::vector<std::string> violations;
  a.check_invariants(violations);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(WorkloadWorld, MatrixReportIndependentOfJobs) {
  const WorkloadConfig cfg;
  const auto scenarios = canonical_scenarios().subspan(0, 3);
  const WorkloadMatrixResult serial = run_workload_matrix(cfg, scenarios, 42, 1);
  const WorkloadMatrixResult threaded = run_workload_matrix(cfg, scenarios, 42, 4);
  EXPECT_EQ(format_workload_matrix(serial, scenarios),
            format_workload_matrix(threaded, scenarios));
}

TEST(WorkloadWorld, SeedChangesTheWorkload) {
  const WorkloadConfig cfg;
  const Scenario& scenario = scenario_named("single-site-blackout");
  WorkloadWorld a(scenario, WorkloadPolicy::kProbeOnly, cfg, 42);
  WorkloadWorld b(scenario, WorkloadPolicy::kProbeOnly, cfg, 43);
  EXPECT_NE(a.total_packets(), b.total_packets());
}

TEST(WorkloadWorld, PolicyOverheadAccounting) {
  const WorkloadConfig cfg;
  const Scenario& scenario = scenario_named("probe-blackhole");

  WorkloadWorld probe(scenario, WorkloadPolicy::kProbeOnly, cfg, 42);
  probe.run_to_end();
  WorkloadWorld mesh(scenario, WorkloadPolicy::kStatic2, cfg, 42);
  mesh.run_to_end();
  WorkloadWorld adaptive(scenario, WorkloadPolicy::kAdaptive, cfg, 42);
  adaptive.run_to_end();

  // The flow set is policy-independent (its own RNG fork), so the sent
  // counts must agree exactly.
  for (std::size_t c = 0; c < kServiceClassCount; ++c) {
    EXPECT_EQ(probe.metrics()[c].sent(), mesh.metrics()[c].sent());
    EXPECT_EQ(probe.metrics()[c].sent(), adaptive.metrics()[c].sent());
  }

  EXPECT_DOUBLE_EQ(probe.overhead_factor(), 1.0);
  EXPECT_EQ(probe.transitions(), 0);
  EXPECT_EQ(probe.fec_blocks(), 0);

  EXPECT_GE(mesh.overhead_factor(), 1.95);
  EXPECT_LE(mesh.overhead_factor(), 2.0);

  EXPECT_GE(adaptive.overhead_factor(), 1.0);
  EXPECT_LT(adaptive.overhead_factor(), mesh.overhead_factor());
}

TEST(WorkloadWorld, LinkFlapDoesNotAmplifyIntoRedundancyChurn) {
  const WorkloadConfig cfg;
  const Scenario& scenario = scenario_named("link-flap");
  WorkloadWorld world(scenario, WorkloadPolicy::kAdaptive, cfg, 42);
  world.run_to_end();

  // The flap runs ~12 on/off cycles through the measured window. The
  // dwell + exit-band hysteresis must keep the total transition count in
  // the order of the flap count across ALL (pair, class) controllers —
  // an unhysteresed controller tracking the flap would rack up hundreds.
  EXPECT_GE(world.transitions(), 1) << "controller never engaged under a flapping link";
  EXPECT_LE(world.transitions(), 48) << "redundancy churn: flap amplified by the controller";
}

// The PR's acceptance criterion, pinned as a test: across the canonical
// matrix there is at least one (scenario, class) column where adaptive
// STRICTLY beats both probe-only and static-2x on SLO attainment.
TEST(WorkloadWorld, AdaptiveBeatsBothStaticsSomewhere) {
  const WorkloadConfig cfg;
  const auto scenarios = canonical_scenarios();
  const WorkloadMatrixResult result = run_workload_matrix(cfg, scenarios, 42, 4);

  int wins = 0;
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const WorkloadCell& probe = result.cells[s * 3];
    const WorkloadCell& mesh = result.cells[s * 3 + 1];
    const WorkloadCell& adaptive = result.cells[s * 3 + 2];
    for (std::size_t c = 0; c < kServiceClassCount; ++c) {
      if (adaptive.classes[c].slo_pct > probe.classes[c].slo_pct &&
          adaptive.classes[c].slo_pct > mesh.classes[c].slo_pct) {
        ++wins;
      }
    }
  }
  EXPECT_GE(wins, 1);
}

// Golden cell: provider-blackout under the reference spec, seed 42. The
// stack is deterministic, so these are exact doubles; the tolerance only
// covers cross-libm rounding in the underlay's transcendentals. Update
// deliberately (with a bench re-run) when behaviour changes on purpose.
TEST(WorkloadWorld, GoldenSloAttainmentCell) {
  const WorkloadConfig cfg;
  const Scenario& scenario = scenario_named("provider-blackout");

  const WorkloadCell probe = run_workload_cell(scenario, WorkloadPolicy::kProbeOnly, cfg, 42);
  const WorkloadCell mesh = run_workload_cell(scenario, WorkloadPolicy::kStatic2, cfg, 42);
  const WorkloadCell adaptive = run_workload_cell(scenario, WorkloadPolicy::kAdaptive, cfg, 42);

  const auto web = static_cast<std::size_t>(ServiceClass::kWeb);
  const auto video = static_cast<std::size_t>(ServiceClass::kVideo);

  // GOLDEN_SLO (filled from the reference run; see BENCH_workload.json).
  EXPECT_NEAR(probe.classes[web].slo_pct, 98.785118, 1e-3);
  EXPECT_NEAR(mesh.classes[web].slo_pct, 98.785118, 1e-3);
  EXPECT_NEAR(adaptive.classes[web].slo_pct, 99.038218, 1e-3);
  EXPECT_NEAR(mesh.classes[video].slo_pct, 95.598164, 1e-3);

  // The column relations behind the acceptance claim on this scenario.
  EXPECT_GT(adaptive.classes[web].slo_pct, probe.classes[web].slo_pct);
  EXPECT_GT(adaptive.classes[web].slo_pct, mesh.classes[web].slo_pct);
  EXPECT_GT(adaptive.classes[video].slo_pct, mesh.classes[video].slo_pct);
}

TEST(WorkloadWorld, RejectsInvalidSpecAtConstruction) {
  WorkloadConfig cfg;
  cfg.spec.classes[0].mix = 0.9;  // mixes no longer sum to 1
  const Scenario& scenario = scenario_named("link-flap");
  EXPECT_THROW(WorkloadWorld(scenario, WorkloadPolicy::kAdaptive, cfg, 42),
               std::invalid_argument);
}

}  // namespace
}  // namespace ronpath
