// Workload kill/restore: interrupting a WorkloadWorld at arbitrary
// packet counts, sealing through the snapshot envelope, restoring into
// a freshly constructed world and continuing must produce byte-identical
// reports to an uninterrupted run — mid-flow FEC blocks, loss-burst
// runs, EWMA estimators, dwell clocks and access-bucket backlogs
// included, on the testbed and on a capped synthetic topology. The
// fingerprint seals the identity: a snapshot taken under one (scenario,
// policy, config, seed) must not restore under another, and restore
// refuses workload state that no run can reach.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
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

// Where the fields of a saved WKLD section sit, found by walking the
// payload the way restore reads it: the CellRun header, the world's
// counters, then per flow (burst run, flushed flag, open block), per
// access bucket, per active loss estimate and the controller count.
struct WkldLayout {
  std::vector<std::size_t> flow_flushed;  // the flushed flag
  std::vector<std::size_t> flow_block;    // the open block's shard count
  std::vector<std::size_t> flow_end;      // just past the flow's shards
  std::vector<bool> flushed;
  std::vector<std::uint64_t> shards;
  std::vector<std::size_t> bucket_backlog;
  std::vector<std::size_t> bucket_clock;
  std::size_t estimate_count = 0;
  std::vector<std::size_t> estimates;
  std::size_t controller_count = 0;
};

WkldLayout walk_wkld(const std::vector<std::uint8_t>& bytes) {
  WkldLayout at;
  snap::Decoder d(bytes);
  const auto offset = [&] { return bytes.size() - d.remaining(); };
  d.expect_tag("WKLD");
  (void)d.b();    // warmed
  (void)d.b();    // drained
  (void)d.u64();  // cursor
  for (int i = 0; i < 4; ++i) (void)d.i64();  // packets, copies, blocks, recovered
  const std::uint64_t flows = d.u64();
  for (std::uint64_t f = 0; f < flows; ++f) {
    (void)d.u64();  // burst run
    at.flow_flushed.push_back(offset());
    at.flushed.push_back(d.b());
    at.flow_block.push_back(offset());
    at.shards.push_back(d.u64());
    for (std::uint64_t s = 0; s < at.shards.back(); ++s) {
      (void)d.time();
      (void)d.time();
      (void)d.b();
    }
    at.flow_end.push_back(offset());
  }
  const std::uint64_t buckets = d.u64();
  for (std::uint64_t b = 0; b < buckets; ++b) {
    at.bucket_backlog.push_back(offset());
    (void)d.f64();
    at.bucket_clock.push_back(offset());
    (void)d.time();
  }
  at.estimate_count = offset();
  const std::uint64_t estimates = d.u64();
  for (std::uint64_t i = 0; i < estimates; ++i) {
    at.estimates.push_back(offset());
    (void)d.f64();
  }
  at.controller_count = offset();
  return at;
}

void put_u64(std::vector<std::uint8_t>& bytes, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void put_f64(std::vector<std::uint8_t>& bytes, std::size_t at, double v) {
  put_u64(bytes, at, std::bit_cast<std::uint64_t>(v));
}
std::uint64_t get_u64(const std::vector<std::uint8_t>& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes[at + i]) << (8 * i);
  return v;
}

// Grows flow `f`'s open block by `extra` zeroed shards (sent and arrival
// at the epoch, lost): a well-formed encoding of a bigger block.
void add_shards(std::vector<std::uint8_t>& bytes, const WkldLayout& at, std::size_t f,
                std::uint64_t extra) {
  put_u64(bytes, at.flow_block[f], at.shards[f] + extra);
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at.flow_end[f]), extra * 17, 0);
}

// Restores `payload` into a fresh world; returns the SnapshotError
// message, or an empty string when the payload restored.
std::string restore_error(const Scenario& scenario, WorkloadPolicy policy,
                          const WorkloadConfig& cfg, const std::vector<std::uint8_t>& payload) {
  WorkloadWorld fresh(scenario, policy, cfg, 42);
  snap::Decoder d(payload);
  try {
    fresh.restore_state(d);
  } catch (const snap::SnapshotError& err) {
    return err.what();
  }
  return {};
}

// Restore takes no workload state that no run can reach: a loss EWMA
// that is NaN or outside [0, 1], an access backlog that is negative or
// not finite, a bucket clock before the measured window, an open FEC
// block of fec_k or more shards (step flushes at fec_k), or an open
// block on a flow whose end-of-flow flush already ran.
TEST(WorkloadSnapshot, RestoreRejectsImpossibleState) {
  const WorkloadConfig cfg;
  const Scenario& scenario = *find_scenario("link-flap");
  const WorkloadPolicy policy = WorkloadPolicy::kAdaptive;
  WorkloadWorld world(scenario, policy, cfg, 42);
  world.advance_to(world.total_packets() / 2);
  snap::Encoder e;
  world.save_state(e);
  const std::vector<std::uint8_t> saved = e.take();
  const WkldLayout at = walk_wkld(saved);
  ASSERT_EQ(restore_error(scenario, policy, cfg, saved), "");
  ASSERT_FALSE(at.estimates.empty());
  ASSERT_FALSE(at.bucket_backlog.empty());

  const auto expect_rejected = [&](const std::vector<std::uint8_t>& payload,
                                   const std::string& needle, const std::string& what) {
    const std::string err = restore_error(scenario, policy, cfg, payload);
    EXPECT_NE(err.find(needle), std::string::npos) << what << ": \"" << err << "\"";
  };

  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double est : {nan, 1.5, -0.25}) {
    std::vector<std::uint8_t> bad = saved;
    put_f64(bad, at.estimates.back(), est);
    expect_rejected(bad, "loss estimate", "estimate " + std::to_string(est));
  }
  for (const double backlog : {-1.0, std::numeric_limits<double>::infinity(), nan}) {
    std::vector<std::uint8_t> bad = saved;
    put_f64(bad, at.bucket_backlog.front(), backlog);
    expect_rejected(bad, "access backlog", "backlog " + std::to_string(backlog));
  }
  {
    std::vector<std::uint8_t> bad = saved;
    const TimePoint before = TimePoint::epoch() + cfg.cell.warmup - Duration::nanos(1);
    put_u64(bad, at.bucket_clock.front(),
            static_cast<std::uint64_t>(before.since_epoch().count_nanos()));
    expect_rejected(bad, "bucket clock", "clock before the measured window");
  }

  // The first open flow (not yet flushed): a block of exactly fec_k.
  std::size_t open = 0;
  while (open < at.flushed.size() && at.flushed[open]) ++open;
  ASSERT_LT(open, at.flushed.size());
  {
    std::vector<std::uint8_t> bad = saved;
    add_shards(bad, at, open, cfg.adaptive.fec_k - at.shards[open]);
    expect_rejected(bad, "fec_k", "block of fec_k shards");
  }
  // A finished flow with a one-shard block, and an open block whose
  // flow is marked finished.
  std::size_t done = 0;
  while (done < at.flushed.size() && !at.flushed[done]) ++done;
  ASSERT_LT(done, at.flushed.size());
  {
    std::vector<std::uint8_t> bad = saved;
    add_shards(bad, at, done, 1);
    expect_rejected(bad, "already flushed", "block on a flushed flow");
  }
  {
    std::vector<std::uint8_t> bad = saved;
    if (at.shards[open] == 0) add_shards(bad, at, open, 1);
    bad[at.flow_flushed[open]] = 1;
    expect_rejected(bad, "already flushed", "open flow marked flushed");
  }
}

// A capped synthetic topology, as the workload layer runs at scale:
// 60 sites, fanout 8, 4 landmarks and a few hundred flows.
WorkloadConfig capped_config() {
  WorkloadConfig cfg;
  cfg.cell.synth_nodes = 60;
  cfg.cell.overlay_fanout = 8;
  cfg.cell.overlay_landmarks = 4;
  cfg.spec.population = 20.0;
  return cfg;
}

// Most ordered pairs of a capped topology carry no flow, so the loss
// EWMAs and controllers, kept only for pairs that have flows, are
// sparse next to the n^2 pairs. Each policy is killed and restored at
// two points and must reproduce the uninterrupted report.
TEST(WorkloadSnapshot, CappedKillRestoreReportsAreByteIdentical) {
  const WorkloadConfig cfg = capped_config();
  const Scenario& scenario = *find_scenario("link-flap");
  for (const WorkloadPolicy policy : all_workload_policies()) {
    WorkloadWorld uninterrupted(scenario, policy, cfg, 42);
    uninterrupted.run_to_end();
    const std::string expected = uninterrupted.report();
    const std::size_t total = uninterrupted.total_packets();
    ASSERT_GT(uninterrupted.flows().size(), 100u);
    ASSERT_LT(uninterrupted.flows().size(), 1000u);
    const std::size_t kill1 = total / 3;
    const std::size_t kill2 = 2 * total / 3;

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
    resumed.advance_to(kill2);
    snap::Encoder second;
    resumed.save_state(second);
    const std::vector<std::uint8_t> payload2 = second.bytes();

    WorkloadWorld final_world(scenario, policy, cfg, 42);
    {
      snap::Decoder d(payload2);
      final_world.restore_state(d);
    }
    final_world.run_to_end();
    EXPECT_EQ(final_world.report(), expected) << to_string(policy);
    std::vector<std::string> violations;
    final_world.check_invariants(violations);
    EXPECT_TRUE(violations.empty()) << to_string(policy) << ": " << violations.front();

    // The payload lists one estimate per active pair: far fewer than
    // the 60 * 59 ordered pairs. A count edited either way is refused.
    const WkldLayout at = walk_wkld(payload2);
    const std::uint64_t estimates = get_u64(payload2, at.estimate_count);
    EXPECT_GT(estimates, 0u);
    EXPECT_LT(estimates, 60u * 59u / 4u);
    const std::uint64_t controllers = get_u64(payload2, at.controller_count);
    EXPECT_GE(controllers, estimates);
    for (const std::uint64_t edited : {estimates - 1, estimates + 1}) {
      std::vector<std::uint8_t> bad = payload2;
      put_u64(bad, at.estimate_count, edited);
      const std::string err = restore_error(scenario, policy, cfg, bad);
      EXPECT_NE(err.find("count mismatch"), std::string::npos) << edited << ": " << err;
    }
    for (const std::uint64_t edited : {controllers - 1, controllers + 1}) {
      std::vector<std::uint8_t> bad = payload2;
      put_u64(bad, at.controller_count, edited);
      const std::string err = restore_error(scenario, policy, cfg, bad);
      EXPECT_NE(err.find("count mismatch"), std::string::npos) << edited << ": " << err;
    }
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
