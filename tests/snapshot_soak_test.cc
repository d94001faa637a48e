// Crash-recovery soak: a full simulated day of streamed faults with
// periodic checkpoints, random-but-seeded kill/restore cycles and the
// runtime invariant auditor run at every checkpoint. The restored run's
// final report must be byte-identical to an uninterrupted run of the
// same day.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fault_matrix.h"
#include "fault/scenarios.h"
#include "snapshot/audit.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "snapshot/world.h"
#include "util/rng.h"

namespace ronpath {
namespace {

// A synthesized day-long schedule: recurring link blackouts, crash
// churn on a candidate via, LSA suppression at the source and a
// periodic provider blackout, all with co-prime periods so the
// combinations drift across the day.
constexpr std::string_view kSoakDsl =
    "every 2700s down link 0->1 for 120s\n"
    "every 5400s crash node 2 for 300s\n"
    "every 4500s lsa-loss node 0 for 180s\n"
    "every 7200s down site 3 provider for 240s\n"
    "every 1800s flap link 1->0 for 20s\n";

Scenario soak_scenario() {
  Scenario s;
  s.name = "soak-day";
  s.summary = "synthesized 24 h fault stream for the crash-recovery soak";
  s.dsl = kSoakDsl;
  s.fault_start = TimePoint::epoch() + Duration::minutes(30);
  s.fault_duration = Duration::hours(24);
  s.routable = true;
  return s;
}

FaultMatrixConfig soak_config() {
  FaultMatrixConfig cfg;
  cfg.node_count = 4;
  cfg.warmup = Duration::minutes(30);
  cfg.measured = Duration::hours(24);  // the acceptance floor: >= 24 h simulated
  cfg.send_interval = Duration::seconds(10);
  return cfg;
}

void expect_clean_audit(const SimWorld& world, const std::string& where) {
  std::vector<std::string> violations;
  world.check_invariants(violations);
  EXPECT_TRUE(violations.empty()) << where << ": " << format_audit(violations);
}

TEST(SnapshotSoak, DayLongKillRestoreSoakIsByteIdenticalAndAuditClean) {
  const Scenario scenario = soak_scenario();
  const FaultMatrixConfig cfg = soak_config();
  constexpr std::size_t kCheckpointEvery = 864;  // every ~2.4 simulated hours

  // Uninterrupted reference run, audited at the same cadence.
  SimWorld reference(scenario, FaultScheme::kHybrid, cfg, cfg.seed);
  const std::size_t total = reference.total_sends();
  ASSERT_EQ(total, 8640u);
  for (std::size_t next = kCheckpointEvery; next < total; next += kCheckpointEvery) {
    reference.advance_to(next);
    expect_clean_audit(reference, "reference at send " + std::to_string(next));
  }
  reference.run_to_end();
  expect_clean_audit(reference, "reference at end");
  const std::string expected = reference.report();

  // Soak run: checkpoint at every cadence point; at seeded random
  // checkpoints, kill the world and restore from the serialized bytes
  // into a freshly constructed one.
  Rng chaos(20030827);  // kills are random but reproducible
  auto world = std::make_unique<SimWorld>(scenario, FaultScheme::kHybrid, cfg, cfg.seed);
  int kills = 0;
  for (std::size_t next = kCheckpointEvery; next < total; next += kCheckpointEvery) {
    world->advance_to(next);
    expect_clean_audit(*world, "soak at send " + std::to_string(next));

    snap::Encoder e;
    world->save_state(e);
    const std::vector<std::uint8_t> file = snap::seal(world->fingerprint(), e.bytes());

    if (chaos.bernoulli(0.5)) {
      world.reset();  // the crash
      ++kills;
      auto restored = std::make_unique<SimWorld>(scenario, FaultScheme::kHybrid, cfg, cfg.seed);
      const std::vector<std::uint8_t> payload = snap::unseal(file, restored->fingerprint());
      snap::Decoder d(payload);
      restored->restore_state(d);
      EXPECT_EQ(restored->next_send(), next);
      expect_clean_audit(*restored, "restored at send " + std::to_string(next));
      world = std::move(restored);
    }
  }
  world->run_to_end();
  expect_clean_audit(*world, "soak at end");
  EXPECT_GE(kills, 2) << "seeded kill schedule degenerated; pick a new seed";

  EXPECT_EQ(world->report(), expected)
      << "restored day-long run diverged after " << kills << " kill/restore cycles";
}

}  // namespace
}  // namespace ronpath
