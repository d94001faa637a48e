// Snapshot/restore at scaling-tier sizes: a capped SimWorld
// checkpointed mid-run must restore to a byte-identical finish, which
// needs the list of built underlay components to round-trip.

#include <gtest/gtest.h>

#include <string>

#include "core/fault_matrix.h"
#include "fault/scenarios.h"
#include "snapshot/codec.h"
#include "snapshot/snapshot.h"
#include "snapshot/world.h"

namespace ronpath {
namespace {

const Scenario& link_flap() {
  const Scenario* s = find_scenario("link-flap");
  EXPECT_NE(s, nullptr);
  return *s;
}

FaultMatrixConfig scale_cfg(std::size_t nodes, std::size_t fanout) {
  FaultMatrixConfig cfg;
  cfg.synth_nodes = nodes;
  cfg.overlay_fanout = fanout;
  cfg.overlay_landmarks = 8;
  return cfg;
}

// Checkpoints `world` at the given send index, restores into a twin and
// returns (uninterrupted report, restored report).
std::pair<std::string, std::string> checkpoint_roundtrip(const FaultMatrixConfig& cfg) {
  SimWorld world(link_flap(), FaultScheme::kHybrid, cfg, cfg.seed);
  world.advance_to(world.total_sends() / 2);
  snap::Encoder e;
  world.save_state(e);
  world.run_to_end();
  const std::string uninterrupted = world.report();

  SimWorld twin(link_flap(), FaultScheme::kHybrid, cfg, cfg.seed);
  snap::Decoder d(e.bytes());
  twin.restore_state(d);
  twin.run_to_end();
  return {uninterrupted, twin.report()};
}

TEST(SnapshotScale, Capped300NodeRestoreIsByteIdentical) {
  const auto [uninterrupted, restored] = checkpoint_roundtrip(scale_cfg(300, 16));
  EXPECT_EQ(uninterrupted, restored);
}

TEST(SnapshotScale, LazyUnderlayRestoreIsByteIdentical) {
  // The snapshot lists only the components built so far; the restored
  // twin must rebuild exactly that set and then finish bit-for-bit.
  const auto [uninterrupted, restored] = checkpoint_roundtrip(scale_cfg(120, 10));
  EXPECT_EQ(uninterrupted, restored);
}

TEST(SnapshotScale, FingerprintSeparatesScaleConfigs) {
  const FaultMatrixConfig base = scale_cfg(300, 16);
  SimWorld world(link_flap(), FaultScheme::kHybrid, base, base.seed);

  FaultMatrixConfig other = base;
  other.overlay_fanout = 12;
  SimWorld different_fanout(link_flap(), FaultScheme::kHybrid, other, other.seed);
  EXPECT_NE(world.fingerprint(), different_fanout.fingerprint());

  other = base;
  other.synth_nodes = 301;
  SimWorld different_size(link_flap(), FaultScheme::kHybrid, other, other.seed);
  EXPECT_NE(world.fingerprint(), different_size.fingerprint());

  other = base;
  other.overlay_landmarks = 7;
  SimWorld different_landmarks(link_flap(), FaultScheme::kHybrid, other, other.seed);
  EXPECT_NE(world.fingerprint(), different_landmarks.fingerprint());

  // cfg.seed seeds the synthetic topology: a different one is a
  // different world even under the same world seed.
  other = base;
  other.seed = base.seed + 1;
  SimWorld different_topology(link_flap(), FaultScheme::kHybrid, other, base.seed);
  EXPECT_NE(world.fingerprint(), different_topology.fingerprint());
}

}  // namespace
}  // namespace ronpath
