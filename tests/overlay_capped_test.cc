// The bandwidth-capped link-state overlay (DESIGN.md §14): rotation
// determinism, full-fanout equivalence with the uncapped (fanout 0) full
// mesh, and the control-budget property under the canonical fault suite,
// which every overlay enforces.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/fault_matrix.h"
#include "core/testbed.h"
#include "fault/scenarios.h"
#include "net/network.h"
#include "net/scale_topology.h"
#include "overlay/overlay.h"
#include "snapshot/world.h"

namespace ronpath {
namespace {

const Scenario& scenario(const char* name) {
  const Scenario* s = find_scenario(name);
  EXPECT_NE(s, nullptr) << name;
  return *s;
}

FaultMatrixConfig capped_cfg(std::size_t nodes, std::size_t fanout) {
  FaultMatrixConfig cfg;
  cfg.synth_nodes = nodes;
  cfg.overlay_fanout = fanout;
  cfg.overlay_landmarks = 4;
  return cfg;
}

std::string run_report(const FaultMatrixConfig& cfg) {
  SimWorld world(scenario("link-flap"), FaultScheme::kHybrid, cfg, cfg.seed);
  world.run_to_end();
  return world.report();
}

// ------------------------------------------------------- rotation schedule

TEST(CappedOverlay, RotationScheduleDeterministicAcrossRuns) {
  const FaultMatrixConfig cfg = capped_cfg(60, 8);
  EXPECT_EQ(run_report(cfg), run_report(cfg));
}

// --------------------------------------------------- full-fanout equivalence

TEST(CappedOverlay, FullFanoutBitwiseEquivalentToLegacyMesh) {
  // fanout >= n-1 collapses the neighbor graph to the full mesh that
  // fanout 0 also builds; metering, budget enforcement and stride
  // stamping run on both and must be provably inert: byte-identical
  // reports and field-identical cells.
  FaultMatrixConfig legacy;  // 12-node testbed, fanout 0
  FaultMatrixConfig capped = legacy;
  capped.overlay_fanout = legacy.node_count - 1;

  EXPECT_EQ(run_report(legacy), run_report(capped));

  const FaultCell a =
      run_fault_cell(scenario("crash-churn"), FaultScheme::kHybrid, legacy, legacy.seed);
  const FaultCell b =
      run_fault_cell(scenario("crash-churn"), FaultScheme::kHybrid, capped, capped.seed);
  EXPECT_EQ(a.loss_pre_pct, b.loss_pre_pct);
  EXPECT_EQ(a.loss_fault_pct, b.loss_fault_pct);
  EXPECT_EQ(a.loss_post_pct, b.loss_post_pct);
  EXPECT_EQ(a.failover_measured, b.failover_measured);
  EXPECT_EQ(a.failover_s, b.failover_s);
  EXPECT_EQ(a.recovery_measured, b.recovery_measured);
  EXPECT_EQ(a.recovery_s, b.recovery_s);
  EXPECT_EQ(a.overhead, b.overhead);
  EXPECT_EQ(a.route_switches, b.route_switches);
  EXPECT_EQ(a.injected_drops, b.injected_drops);
}

// ------------------------------------------------------- budget enforcement

TEST(CappedOverlay, BudgetNeverExceededUnderFaultSuite) {
  // Property: across every canonical fault scenario, on a capped 40-node
  // graph and on the default 12-node full mesh, no node's control meter
  // ever records a round above its budget or suppresses a publish, and
  // the runtime invariant audit stays clean.
  for (const FaultMatrixConfig& cfg : {capped_cfg(40, 6), FaultMatrixConfig{}}) {
    for (const Scenario& s : canonical_scenarios()) {
      const std::string where = std::string(s.name) + " fanout " +
                                std::to_string(cfg.overlay_fanout);
      SimWorld world(s, FaultScheme::kHybrid, cfg, cfg.seed);
      world.run_to_end();
      const OverlayNetwork& overlay = world.overlay();
      for (NodeId i = 0; i < static_cast<NodeId>(overlay.size()); ++i) {
        const ControlMeter& m = overlay.control_meter(i);
        EXPECT_LE(m.max_round_bytes, overlay.control_budget(i)) << where << " node " << i;
        EXPECT_EQ(m.suppressed, 0) << where << " node " << i;
        EXPECT_GT(m.total_announces, 0) << where << " node " << i;
      }
      std::vector<std::string> violations;
      world.check_invariants(violations);
      EXPECT_TRUE(violations.empty())
          << where << ": " << (violations.empty() ? "" : violations.front());
    }
  }
}

TEST(CappedOverlay, TinyBudgetSuppressesButNeverOverruns) {
  // A capped graph and the uncapped full mesh (fanout 0) enforce the
  // same budget.
  for (const std::size_t fanout : {std::size_t{4}, std::size_t{0}}) {
    Topology topo = testbed_2002();
    Network net(topo, NetConfig::profile_2003(), Duration::hours(2), Rng(42));
    Scheduler sched;
    OverlayConfig cfg;
    cfg.fanout = fanout;
    cfg.landmarks = 2;
    cfg.control_budget_bytes = static_cast<std::int64_t>(cfg.lsa_entry_bytes);  // one entry/round
    OverlayNetwork overlay(net, sched, cfg, Rng(43));
    overlay.start();
    sched.run_until(TimePoint::epoch() + Duration::minutes(30));

    std::int64_t suppressed = 0;
    for (NodeId i = 0; i < static_cast<NodeId>(overlay.size()); ++i) {
      const ControlMeter& m = overlay.control_meter(i);
      EXPECT_LE(m.max_round_bytes, overlay.control_budget(i))
          << "fanout " << fanout << " node " << i;
      suppressed += m.suppressed;
    }
    EXPECT_GT(suppressed, 0) << "fanout " << fanout;  // the cap actually bit
    std::vector<std::string> violations;
    overlay.check_invariants(sched.now(), violations);
    EXPECT_TRUE(violations.empty())
        << "fanout " << fanout << ": " << (violations.empty() ? "" : violations.front());
  }
}

TEST(CappedOverlay, StrideMatchesDegreeOverFanout) {
  Topology topo = testbed_2002();
  Network net(topo, NetConfig::profile_2003(), Duration::hours(1), Rng(42));
  Scheduler sched;
  OverlayConfig cfg;
  cfg.fanout = 4;
  cfg.landmarks = 2;
  OverlayNetwork overlay(net, sched, cfg, Rng(43));
  const NeighborSet& nbrs = overlay.neighbors();
  for (NodeId i = 0; i < static_cast<NodeId>(overlay.size()); ++i) {
    const std::size_t degree = nbrs.degree(i);
    const std::uint32_t want =
        degree > cfg.fanout
            ? static_cast<std::uint32_t>((degree + cfg.fanout - 1) / cfg.fanout)
            : 1u;
    EXPECT_EQ(overlay.stride(i), want) << "node " << i << " degree " << degree;
  }

  // Fanout 0 is uncapped: the full mesh, every row announced each round.
  OverlayConfig uncapped;
  OverlayNetwork mesh(net, sched, uncapped, Rng(43));
  ASSERT_TRUE(mesh.neighbors().full());
  for (NodeId i = 0; i < static_cast<NodeId>(mesh.size()); ++i) {
    EXPECT_EQ(mesh.stride(i), 1u) << "node " << i;
  }
}

TEST(CappedOverlay, SparseStateIsMuchSmallerThanMesh) {
  // O(n * fanout) vs O(n^2): at 200 nodes the capped overlay's resident
  // state must undercut the full mesh by a wide margin.
  ScaleTopologyParams p;
  p.nodes = 200;
  Topology topo = scale_topology(p);
  Scheduler sched;
  NetConfig ncfg = NetConfig::profile_2003();
  Network net(topo, ncfg, Duration::hours(1), Rng(42));

  OverlayConfig full;
  OverlayNetwork mesh(net, sched, full, Rng(43));
  OverlayConfig capped;
  capped.fanout = 8;
  capped.landmarks = 4;
  OverlayNetwork sparse(net, sched, capped, Rng(43));

  EXPECT_LT(sparse.state_bytes() * 4, mesh.state_bytes());
}

}  // namespace
}  // namespace ronpath
