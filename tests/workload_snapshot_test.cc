// Workload kill/restore: interrupting a WorkloadWorld at arbitrary
// packet counts, sealing through the snapshot envelope, restoring into
// a freshly constructed world and continuing must produce byte-identical
// reports to an uninterrupted run — mid-flow FEC blocks, loss-burst
// runs, EWMA estimators, dwell clocks and access-bucket backlogs
// included. The fingerprint seals the identity: a snapshot taken under
// one (scenario, policy, config, seed) must not restore under another.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fault/scenarios.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "workload/adaptive.h"
#include "workload/world.h"

namespace ronpath {
namespace {

WorkloadPolicy policy_for(std::size_t index) {
  const auto policies = all_workload_policies();
  return policies[index % policies.size()];
}

// Kill/restore at two arbitrary points per scenario; across the suite
// the kills land before, inside and after the fault windows, and every
// policy (including the FEC-carrying adaptive one) gets interrupted.
TEST(WorkloadSnapshot, KillRestoreReportsAreByteIdentical) {
  const WorkloadConfig cfg;
  const auto scenarios = canonical_scenarios();
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& scenario = scenarios[i];
    const WorkloadPolicy policy = policy_for(i);

    WorkloadWorld uninterrupted(scenario, policy, cfg, 42);
    uninterrupted.run_to_end();
    const std::string expected = uninterrupted.report();

    const std::size_t total = uninterrupted.total_packets();
    ASSERT_GT(total, 4u) << scenario.name;
    const std::size_t kill1 = 1 + (i * 811) % (total / 2);
    const std::size_t kill2 = total / 2 + (i * 977) % (total / 2);

    WorkloadWorld victim(scenario, policy, cfg, 42);
    victim.advance_to(kill1);
    snap::Encoder first;
    victim.save_state(first);
    const std::vector<std::uint8_t> file1 = snap::seal(victim.fingerprint(), first.bytes());

    WorkloadWorld resumed(scenario, policy, cfg, 42);
    {
      const std::vector<std::uint8_t> payload = snap::unseal(file1, resumed.fingerprint());
      snap::Decoder d(payload);
      resumed.restore_state(d);
    }
    EXPECT_EQ(resumed.next_packet(), kill1) << scenario.name;
    resumed.advance_to(kill2);
    snap::Encoder second;
    resumed.save_state(second);
    const std::vector<std::uint8_t> file2 = snap::seal(resumed.fingerprint(), second.bytes());

    WorkloadWorld final_world(scenario, policy, cfg, 42);
    {
      const std::vector<std::uint8_t> payload = snap::unseal(file2, final_world.fingerprint());
      snap::Decoder d(payload);
      final_world.restore_state(d);
    }
    final_world.run_to_end();

    EXPECT_EQ(final_world.report(), expected)
        << scenario.name << "/" << to_string(policy) << " killed at " << kill1 << " and "
        << kill2 << " of " << total;

    std::vector<std::string> violations;
    final_world.check_invariants(violations);
    EXPECT_TRUE(violations.empty()) << scenario.name << ": " << violations.front();
  }
}

TEST(WorkloadSnapshot, FingerprintSealsIdentity) {
  const WorkloadConfig cfg;
  const Scenario& scenario = *find_scenario("link-flap");

  WorkloadWorld world(scenario, WorkloadPolicy::kAdaptive, cfg, 42);
  world.advance_to(100);
  snap::Encoder e;
  world.save_state(e);
  const std::vector<std::uint8_t> file = snap::seal(world.fingerprint(), e.bytes());

  // Different seed, policy, spec or cell config => different fingerprint
  // => unseal must refuse.
  WorkloadWorld other_seed(scenario, WorkloadPolicy::kAdaptive, cfg, 43);
  EXPECT_NE(other_seed.fingerprint(), world.fingerprint());
  EXPECT_THROW((void)snap::unseal(file, other_seed.fingerprint()), snap::SnapshotError);

  WorkloadWorld other_policy(scenario, WorkloadPolicy::kStatic2, cfg, 42);
  EXPECT_NE(other_policy.fingerprint(), world.fingerprint());

  WorkloadConfig other_cfg;
  other_cfg.spec.population *= 2.0;
  WorkloadWorld other_spec(scenario, WorkloadPolicy::kAdaptive, other_cfg, 42);
  EXPECT_NE(other_spec.fingerprint(), world.fingerprint());

  // The cell's topology seed, under the same world seed.
  WorkloadConfig other_cell;
  other_cell.cell.seed = cfg.cell.seed + 1;
  WorkloadWorld other_topology(scenario, WorkloadPolicy::kAdaptive, other_cell, 42);
  EXPECT_NE(other_topology.fingerprint(), world.fingerprint());
  EXPECT_THROW((void)snap::unseal(file, other_topology.fingerprint()), snap::SnapshotError);

  // The matching fingerprint still unseals.
  WorkloadWorld same(scenario, WorkloadPolicy::kAdaptive, cfg, 42);
  EXPECT_NO_THROW((void)snap::unseal(file, same.fingerprint()));
}

// A saved controller starts with its redundancy level byte; only
// single, FEC and duplication (0-2) exist.
TEST(WorkloadSnapshot, RestoreRejectsCorruptControllerLevel) {
  AdaptiveController saved;
  snap::Encoder e;
  saved.save_state(e);
  std::vector<std::uint8_t> bytes = e.take();
  {
    AdaptiveController restored;
    snap::Decoder d(bytes);
    ASSERT_NO_THROW(restored.restore_state(d));
  }
  for (const std::uint8_t level : {4, 255}) {
    bytes[0] = level;
    AdaptiveController restored;
    snap::Decoder d(bytes);
    EXPECT_THROW(restored.restore_state(d), snap::SnapshotError) << int{level};
  }
}

// Decoding a world payload with one byte flipped (every 97th in turn)
// must throw a SnapshotError or restore; it must never crash or hang.
// Some flips only touch metric counts and decode fine; the envelope CRC
// catches those in real files.
TEST(WorkloadSnapshot, ByteFlippedPayloadNeverCrashesRestore) {
  const WorkloadConfig cfg;
  const Scenario& scenario = *find_scenario("single-site-blackout");
  WorkloadWorld world(scenario, WorkloadPolicy::kAdaptive, cfg, 42);
  world.advance_to(50);
  snap::Encoder e;
  world.save_state(e);

  std::vector<std::uint8_t> bytes = e.take();
  for (std::size_t flip = 8; flip < bytes.size(); flip += 97) {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[flip] ^= 0xff;
    WorkloadWorld fresh(scenario, WorkloadPolicy::kAdaptive, cfg, 42);
    snap::Decoder d(mutated);
    try {
      fresh.restore_state(d);
    } catch (const snap::SnapshotError&) {
      // rejected: structural damage
    }
  }
}

}  // namespace
}  // namespace ronpath
