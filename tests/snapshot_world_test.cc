// SimWorld correctness pins.
//
// 1. Kill/restore: interrupting a run at arbitrary send counts,
//    serializing through the sealed envelope, restoring into a freshly
//    constructed world and continuing must produce byte-identical
//    reports to an uninterrupted run — including double-kill schedules
//    and a full disk round trip.
// 2. Restore validation: a payload whose progress no run can reach is
//    rejected, for SimWorld and WorkloadWorld alike (the check lives in
//    their shared CellRun lifecycle).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/fault_matrix.h"
#include "fault/scenarios.h"
#include "snapshot/audit.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "snapshot/world.h"
#include "workload/world.h"

namespace ronpath {
namespace {

FaultScheme scheme_for(std::size_t index) {
  const auto schemes = all_fault_schemes();
  return schemes[index % schemes.size()];
}

void expect_cells_identical(const FaultCell& a, const FaultCell& b, std::string_view what) {
  EXPECT_EQ(a.loss_pre_pct, b.loss_pre_pct) << what;
  EXPECT_EQ(a.loss_fault_pct, b.loss_fault_pct) << what;
  EXPECT_EQ(a.loss_post_pct, b.loss_post_pct) << what;
  EXPECT_EQ(a.failover_measured, b.failover_measured) << what;
  EXPECT_EQ(a.failover_s, b.failover_s) << what;
  EXPECT_EQ(a.recovery_measured, b.recovery_measured) << what;
  EXPECT_EQ(a.recovery_s, b.recovery_s) << what;
  EXPECT_EQ(a.overhead, b.overhead) << what;
  EXPECT_EQ(a.route_switches, b.route_switches) << what;
  EXPECT_EQ(a.injected_drops, b.injected_drops) << what;
  EXPECT_EQ(a.merged_fault_windows, b.merged_fault_windows) << what;
}

// Kill/restore at two arbitrary points; the continued run's report must
// be byte-identical to the uninterrupted run's for all 8 scenarios.
TEST(SnapshotWorld, KillRestoreReportsAreByteIdentical) {
  FaultMatrixConfig cfg;
  cfg.node_count = 6;
  cfg.send_interval = Duration::millis(200);
  const auto scenarios = canonical_scenarios();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& scenario = scenarios[i];
    const FaultScheme scheme = scheme_for(i + 1);

    SimWorld uninterrupted(scenario, scheme, cfg, cfg.seed);
    uninterrupted.run_to_end();
    const std::string expected = uninterrupted.report();

    // Vary the kill points per scenario so, across the suite, kills land
    // before, inside and after the fault window.
    const std::size_t total = uninterrupted.total_sends();
    const std::size_t kill1 = 1 + (i * 811) % (total / 2);
    const std::size_t kill2 = total / 2 + (i * 977) % (total / 2);

    SimWorld victim(scenario, scheme, cfg, cfg.seed);
    victim.advance_to(kill1);
    snap::Encoder first;
    victim.save_state(first);
    const std::vector<std::uint8_t> file1 = snap::seal(victim.fingerprint(), first.bytes());

    SimWorld resumed(scenario, scheme, cfg, cfg.seed);
    {
      const std::vector<std::uint8_t> payload = snap::unseal(file1, resumed.fingerprint());
      snap::Decoder d(payload);
      resumed.restore_state(d);
    }
    EXPECT_EQ(resumed.next_send(), kill1) << scenario.name;
    resumed.advance_to(kill2);
    snap::Encoder second;
    resumed.save_state(second);
    const std::vector<std::uint8_t> file2 = snap::seal(resumed.fingerprint(), second.bytes());

    SimWorld final_world(scenario, scheme, cfg, cfg.seed);
    {
      const std::vector<std::uint8_t> payload = snap::unseal(file2, final_world.fingerprint());
      snap::Decoder d(payload);
      final_world.restore_state(d);
    }
    final_world.run_to_end();

    EXPECT_EQ(final_world.report(), expected)
        << scenario.name << " killed at " << kill1 << " and " << kill2 << " of " << total;
    expect_cells_identical(final_world.cell(), uninterrupted.cell(), scenario.name);

    std::vector<std::string> violations;
    final_world.check_invariants(violations);
    EXPECT_TRUE(violations.empty())
        << scenario.name << ": " << format_audit(violations);
  }
}

// A checkpoint taken mid-warmup (before any CBR send) restores too.
TEST(SnapshotWorld, WarmupCheckpointRestores) {
  FaultMatrixConfig cfg;
  cfg.node_count = 6;
  cfg.send_interval = Duration::millis(200);
  const Scenario& scenario = *find_scenario("link-flap");

  SimWorld uninterrupted(scenario, FaultScheme::kReactive, cfg, cfg.seed);
  uninterrupted.run_to_end();

  SimWorld victim(scenario, FaultScheme::kReactive, cfg, cfg.seed);
  victim.advance_to(0);  // runs the warmup, sends nothing
  snap::Encoder e;
  victim.save_state(e);

  SimWorld resumed(scenario, FaultScheme::kReactive, cfg, cfg.seed);
  snap::Decoder d(e.bytes());
  resumed.restore_state(d);
  resumed.run_to_end();
  EXPECT_EQ(resumed.report(), uninterrupted.report());
}

// Same kill/restore guarantee through actual files on disk.
TEST(SnapshotWorld, DiskRoundTripMatchesUninterrupted) {
  FaultMatrixConfig cfg;
  cfg.node_count = 6;
  cfg.send_interval = Duration::millis(200);
  const Scenario& scenario = *find_scenario("single-site-blackout");

  SimWorld uninterrupted(scenario, FaultScheme::kHybrid, cfg, cfg.seed);
  uninterrupted.run_to_end();

  SimWorld victim(scenario, FaultScheme::kHybrid, cfg, cfg.seed);
  victim.advance_to(victim.total_sends() / 3);
  snap::Encoder e;
  victim.save_state(e);
  const std::string path = testing::TempDir() + "/ronpath_world_roundtrip.snap";
  snap::write_file(path, victim.fingerprint(), e.bytes());

  SimWorld resumed(scenario, FaultScheme::kHybrid, cfg, cfg.seed);
  const std::vector<std::uint8_t> payload = snap::read_file(path, resumed.fingerprint());
  snap::Decoder d(payload);
  resumed.restore_state(d);
  resumed.run_to_end();
  EXPECT_EQ(resumed.report(), uninterrupted.report());
  std::remove(path.c_str());
}

// Restoring twice from the same snapshot gives the same continuation —
// snapshots are read-only artifacts, not consumed by restore.
TEST(SnapshotWorld, SnapshotIsReusable) {
  FaultMatrixConfig cfg;
  cfg.node_count = 5;
  cfg.warmup = Duration::minutes(5);
  cfg.measured = Duration::minutes(5);
  cfg.send_interval = Duration::millis(250);
  const Scenario& scenario = *find_scenario("crash-churn");

  SimWorld victim(scenario, FaultScheme::kReactive, cfg, cfg.seed);
  victim.advance_to(victim.total_sends() / 2);
  snap::Encoder e;
  victim.save_state(e);

  std::string first_report;
  for (int round = 0; round < 2; ++round) {
    SimWorld resumed(scenario, FaultScheme::kReactive, cfg, cfg.seed);
    snap::Decoder d(e.bytes());
    resumed.restore_state(d);
    resumed.run_to_end();
    if (round == 0) {
      first_report = resumed.report();
    } else {
      EXPECT_EQ(resumed.report(), first_report);
    }
  }
}

// Saves `World(args...)` at step `at`, then restores the payload with
// its warmed or drained byte contradicting the cursor (header: 4-byte
// tag, warmed, drained): each must throw, the unedited payload must not.
template <class World, class... Args>
void expect_contradictory_progress_rejected(std::size_t at, const Args&... args) {
  World victim(args...);
  victim.advance_to(at);
  snap::Encoder e;
  victim.save_state(e);
  const std::vector<std::uint8_t> good = e.take();

  constexpr std::size_t kWarmed = 4;
  constexpr std::size_t kDrained = 5;
  const std::pair<std::size_t, std::uint8_t> edits[] = {
      {kDrained, 1},  // drained before the last step
      {kWarmed, 0},   // steps recorded before the warmup ran
  };
  for (const auto& [offset, value] : edits) {
    std::vector<std::uint8_t> bad = good;
    bad[offset] = value;
    World fresh(args...);
    snap::Decoder d(bad);
    EXPECT_THROW(fresh.restore_state(d), snap::SnapshotError)
        << "byte " << offset << " set to " << static_cast<int>(value) << " at step " << at;
  }
  World fresh(args...);
  snap::Decoder d(good);
  EXPECT_NO_THROW(fresh.restore_state(d));
}

TEST(SnapshotWorld, RestoreRejectsContradictoryProgress) {
  FaultMatrixConfig cfg;
  cfg.node_count = 4;
  cfg.warmup = Duration::minutes(2);
  cfg.measured = Duration::minutes(3);
  cfg.send_interval = Duration::millis(500);
  const Scenario& scenario = *find_scenario("link-flap");
  expect_contradictory_progress_rejected<SimWorld>(100, scenario, FaultScheme::kHybrid, cfg,
                                                   cfg.seed);

  WorkloadConfig wcfg;
  wcfg.cell = cfg;
  expect_contradictory_progress_rejected<WorkloadWorld>(50, scenario, WorkloadPolicy::kAdaptive,
                                                        wcfg, cfg.seed);
}

}  // namespace
}  // namespace ronpath
