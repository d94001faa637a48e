// Graceful degradation of the control plane under injected faults:
// staleness expiry, degraded-view direct fallback, exponential hold-down,
// and the overlay-level failover / flap-damping behavior they produce.

#include <gtest/gtest.h>

#include "core/testbed.h"
#include "event/scheduler.h"
#include "fault/injector.h"
#include "overlay/overlay.h"
#include "overlay/router.h"
#include "util/rng.h"

namespace ronpath {
namespace {

TimePoint at_s(std::int64_t s) { return TimePoint::epoch() + Duration::seconds(s); }

LinkMetrics metrics(double loss, Duration lat, TimePoint published, bool down = false) {
  LinkMetrics m;
  m.loss = loss;
  m.latency = lat;
  m.has_latency = lat != Duration::max();
  m.down = down;
  m.samples = 100;
  m.published = published;
  return m;
}

void fill(LinkStateTable& t, double loss, Duration lat, TimePoint published) {
  for (NodeId a = 0; a < t.size(); ++a) {
    for (NodeId b = 0; b < t.size(); ++b) {
      if (a != b) t.publish(a, b, metrics(loss, lat, published));
    }
  }
}

// ------------------------------------------------------------- staleness

TEST(Degradation, EntryExpiryRules) {
  RouterConfig cfg;
  const LinkMetrics fresh = metrics(0.01, Duration::millis(10), at_s(0));
  // TTL disabled: nothing ever expires, not even a never-published entry.
  EXPECT_FALSE(entry_expired(fresh, cfg, at_s(1'000'000)));
  EXPECT_FALSE(entry_expired(LinkMetrics{}, cfg, at_s(1'000'000)));

  cfg.entry_ttl = Duration::seconds(60);
  EXPECT_FALSE(entry_expired(fresh, cfg, at_s(60)));
  EXPECT_TRUE(entry_expired(fresh, cfg, at_s(61)));
  // Never-published entries are unknown, not optimistic.
  EXPECT_TRUE(entry_expired(LinkMetrics{}, cfg, at_s(0)));
}

TEST(Degradation, ExpiredEntriesEstimateAsUnknown) {
  LinkStateTable t(3);
  fill(t, 0.001, Duration::millis(10), at_s(0));
  RouterConfig cfg;
  cfg.entry_ttl = Duration::seconds(60);
  const PathSpec direct{0, 1, kDirectVia};
  // Fresh view: the measured estimate.
  EXPECT_DOUBLE_EQ(path_loss_estimate(t, direct, cfg, at_s(30)), 0.001);
  EXPECT_EQ(path_latency_estimate(t, direct, cfg, at_s(30)), Duration::millis(10));
  // Stale view: a stale "0.1% loss" must not be trusted forever.
  EXPECT_DOUBLE_EQ(path_loss_estimate(t, direct, cfg, at_s(120)), cfg.unknown_loss);
  EXPECT_EQ(path_latency_estimate(t, direct, cfg, at_s(120)), Duration::max());
  // Without a TTL the same stale entry is trusted forever.
  EXPECT_DOUBLE_EQ(path_loss_estimate(t, direct, RouterConfig{}, at_s(120)), 0.001);
}

TEST(Degradation, UnknownLatencyDoesNotOverflowComposition) {
  LinkStateTable t(4);
  fill(t, 0.0, Duration::millis(10), at_s(0));
  RouterConfig cfg;
  cfg.entry_ttl = Duration::seconds(60);
  // One stale leg poisons the whole composed path to "unknown" instead of
  // wrapping around Duration::max() into a tiny (attractive) latency.
  // 0->2 is the first leg of the one-relay {0,1,2} composition below.
  t.publish(0, 2, metrics(0.0, Duration::millis(10), at_s(-3600)));
  EXPECT_EQ(path_latency_estimate(t, PathSpec{0, 1, 2}, cfg, at_s(30)), Duration::max());
}

TEST(Degradation, DegradedViewFallsBackToDirect) {
  LinkStateTable t(4);
  RouterConfig cfg;
  cfg.entry_ttl = Duration::seconds(60);
  // Node 0's own rows are ancient; everyone else's are fresh and report a
  // tempting indirect path.
  fill(t, 0.001, Duration::millis(10), at_s(1000));
  for (NodeId v = 1; v < 4; ++v) t.publish(0, v, metrics(0.0, Duration::millis(1), at_s(0)));

  Router router(0, t, cfg);
  EXPECT_TRUE(router.view_degraded(at_s(1000)));
  EXPECT_TRUE(router.best_loss_path(1, at_s(1000)).path.is_direct());
  EXPECT_TRUE(router.best_lat_path(1, at_s(1000)).path.is_direct());
  // With a fresh view the same table routes normally.
  fill(t, 0.001, Duration::millis(10), at_s(1000));
  EXPECT_FALSE(router.view_degraded(at_s(1000)));
}

// -------------------------------------------------------------- hold-down

TEST(Degradation, HolddownEscalatesExponentially) {
  LinkStateTable t(3);
  RouterConfig cfg;
  cfg.holddown_base = Duration::seconds(30);
  cfg.holddown_max = Duration::minutes(5);
  fill(t, 0.2, Duration::millis(10), at_s(0));
  // Via 2 is clearly better than the lossy direct path.
  t.publish(0, 2, metrics(0.0, Duration::millis(10), at_s(0)));
  t.publish(2, 1, metrics(0.0, Duration::millis(10), at_s(0)));

  Router router(0, t, cfg);
  EXPECT_EQ(router.best_loss_path(1, at_s(0)).path.via, 2u);

  // Strike 1: the incumbent's link goes down -> direct, via banned 30 s.
  t.publish(0, 2, metrics(0.0, Duration::millis(10), at_s(1), /*down=*/true));
  EXPECT_TRUE(router.best_loss_path(1, at_s(1)).path.is_direct());
  t.publish(0, 2, metrics(0.0, Duration::millis(10), at_s(2)));  // link recovers
  EXPECT_TRUE(router.held_down(1, 2, at_s(20)));
  EXPECT_TRUE(router.best_loss_path(1, at_s(20)).path.is_direct());
  EXPECT_FALSE(router.held_down(1, 2, at_s(32)));
  EXPECT_EQ(router.best_loss_path(1, at_s(32)).path.via, 2u);

  // Strike 2: same flap again -> ban doubles to 60 s.
  t.publish(0, 2, metrics(0.0, Duration::millis(10), at_s(33), /*down=*/true));
  EXPECT_TRUE(router.best_loss_path(1, at_s(33)).path.is_direct());
  t.publish(0, 2, metrics(0.0, Duration::millis(10), at_s(34)));
  EXPECT_TRUE(router.held_down(1, 2, at_s(80)));
  EXPECT_FALSE(router.held_down(1, 2, at_s(94)));

  // The flapping via was re-selected at most twice; switch count is
  // bounded by the strikes, not the number of evaluations.
  EXPECT_LE(router.loss_switches(1), 4);
}

TEST(Degradation, HolddownStrikesDecayAfterQuietPeriod) {
  LinkStateTable t(3);
  RouterConfig cfg;
  cfg.holddown_base = Duration::seconds(30);
  cfg.holddown_reset = Duration::minutes(10);
  fill(t, 0.2, Duration::millis(10), at_s(0));
  t.publish(0, 2, metrics(0.0, Duration::millis(10), at_s(0)));
  t.publish(2, 1, metrics(0.0, Duration::millis(10), at_s(0)));

  Router router(0, t, cfg);
  (void)router.best_loss_path(1, at_s(0));
  t.publish(0, 2, metrics(0.0, Duration::millis(10), at_s(1), /*down=*/true));
  (void)router.best_loss_path(1, at_s(1));
  t.publish(0, 2, metrics(0.0, Duration::millis(10), at_s(2)));
  (void)router.best_loss_path(1, at_s(40));  // re-selects via 2

  // A second down event long after holddown_reset starts at strike 1
  // again: ban is 30 s, not 60 s.
  const std::int64_t later = 40 + 11 * 60;
  t.publish(0, 2, metrics(0.0, Duration::millis(10), at_s(later), /*down=*/true));
  (void)router.best_loss_path(1, at_s(later));
  EXPECT_TRUE(router.held_down(1, 2, at_s(later + 29)));
  EXPECT_FALSE(router.held_down(1, 2, at_s(later + 31)));
}

TEST(Degradation, KnobsOffReproducesHistoricalBehavior) {
  LinkStateTable t(3);
  fill(t, 0.2, Duration::millis(10), at_s(0));
  t.publish(0, 2, metrics(0.0, Duration::millis(10), at_s(0)));
  t.publish(2, 1, metrics(0.0, Duration::millis(10), at_s(0)));
  RouterConfig cfg;  // all degradation knobs at their zero defaults
  Router router(0, t, cfg);
  // Epoch-default and explicit-now calls agree: `now` is inert.
  EXPECT_EQ(router.best_loss_path(1, TimePoint::epoch()).path.via, 2u);
  EXPECT_EQ(router.best_loss_path(1, at_s(1'000'000)).path.via, 2u);
  EXPECT_FALSE(router.view_degraded(at_s(1'000'000)));
  EXPECT_FALSE(router.held_down(1, 2, at_s(1'000'000)));
}

// ----------------------------------------------- overlay-level behavior

struct Sim {
  Topology topo;
  NetConfig net_cfg;
  Scheduler sched;
  Network net;
  OverlayNetwork overlay;

  explicit Sim(const FaultInjector* inj, Duration horizon = Duration::hours(2),
               std::uint64_t seed = 42)
      : topo(make_topo()),
        net_cfg(make_net_cfg()),
        net(topo, net_cfg, horizon, Rng(seed).fork("net")),
        overlay(net, sched, make_overlay_cfg(), Rng(seed).fork("overlay")) {
    overlay.set_fault_injector(inj);
    overlay.start();
  }

  static Topology make_topo() {
    Topology full = testbed_2003();
    std::vector<Site> subset(full.sites().begin(), full.sites().begin() + 6);
    return Topology(std::move(subset));
  }
  static NetConfig make_net_cfg() {
    NetConfig cfg = NetConfig::profile_2003();
    cfg.incidents.clear();  // only the scripted fault perturbs the run
    return cfg;
  }
  static OverlayConfig make_overlay_cfg() {
    OverlayConfig cfg;
    cfg.host_failures_per_month = 0.0;
    cfg.router.entry_ttl = cfg.probe_interval * 5;
    cfg.router.holddown_base = cfg.probe_interval * 2;
    return cfg;
  }
};

// Satellite: router hysteresis under a flapping direct link. Down
// detection -> failover -> recovery, on the estimator's documented
// 15(k-1)..15k s detection scale, with a bounded switch count.
TEST(OverlayDegradation, FailoverFollowsDownDetectionScale) {
  FaultSchedule sched;
  sched.down_link(0, 1, at_s(1200), Duration::seconds(120));
  sched.down_link(1, 0, at_s(1200), Duration::seconds(120));
  const FaultInjector inj(sched, Sim::make_topo(), Duration::hours(1));
  Sim sim(&inj, Duration::hours(1));

  sim.sched.run_until(at_s(1200));
  ASSERT_TRUE(sim.overlay.route(0, 1, RouteTag::kLoss).is_direct());

  // Walk the fault window at 1 s resolution until the router reroutes.
  Duration failover = Duration::max();
  for (int s = 0; s <= 60; ++s) {
    sim.sched.run_until(at_s(1200 + s));
    if (!sim.overlay.route(0, 1, RouteTag::kLoss).is_direct()) {
      failover = Duration::seconds(s);
      break;
    }
  }
  // One probe interval (15 s) to lose a probe, plus the 4 x 1 s follow-up
  // train, plus response slack: well inside 15(k-1)..15k for small k.
  ASSERT_NE(failover, Duration::max());
  EXPECT_GE(failover, Duration::seconds(1));
  EXPECT_LE(failover, Duration::seconds(30));

  // While the fault lasts, the rerouted path actually delivers.
  int ok = 0, sent = 0;
  for (int s = 60; s < 120; s += 2) {
    sim.sched.run_until(at_s(1200 + s));
    const PathSpec p = sim.overlay.route(0, 1, RouteTag::kLoss);
    EXPECT_FALSE(p.is_direct());
    ok += sim.overlay.send(p, at_s(1200 + s)).delivered() ? 1 : 0;
    ++sent;
  }
  EXPECT_GT(ok, sent * 9 / 10);

  // After the fault clears, the chosen route keeps delivering (recovery),
  // whether or not it has moved back to the direct path yet.
  sim.sched.run_until(at_s(1500));
  ok = 0;
  for (int s = 0; s < 60; s += 2) {
    sim.sched.run_until(at_s(1500 + s));
    ok += sim.overlay.send(sim.overlay.route(0, 1, RouteTag::kLoss), at_s(1500 + s)).delivered()
              ? 1
              : 0;
  }
  EXPECT_GT(ok, 27);
}

TEST(OverlayDegradation, FlappingLinkYieldsBoundedSwitches) {
  // 15 s outage every 2 min for 40 min: 20 flap episodes on the direct
  // link. Hysteresis plus hold-down must keep the route from thrashing.
  FaultSchedule sched;
  sched.flap_link(0, 1, Duration::seconds(120), Duration::seconds(15));
  sched.flap_link(1, 0, Duration::seconds(120), Duration::seconds(15));
  const FaultInjector inj(sched, Sim::make_topo(), Duration::minutes(45));
  Sim sim(&inj, Duration::minutes(50));

  for (int s = 0; s <= 2400; s += 5) {
    sim.sched.run_until(at_s(s));
    (void)sim.overlay.route(0, 1, RouteTag::kLoss);
  }
  // ~480 evaluations across 20 flaps; without damping every episode could
  // bounce the route twice. Demand an order of magnitude less.
  EXPECT_LE(sim.overlay.router(0).loss_switches(1), 6);
}

TEST(OverlayDegradation, ProbeBlackholeDegradesToDirectButDataFlows) {
  FaultSchedule sched;
  sched.blackhole_probes(0, at_s(1200), Duration::minutes(10));
  const FaultInjector inj(sched, Sim::make_topo(), Duration::hours(1));
  Sim sim(&inj, Duration::hours(1));

  sim.sched.run_until(at_s(1200));
  // Give the poisoned estimators time to mark everything down.
  sim.sched.run_until(at_s(1290));
  const PathSpec p = sim.overlay.route(0, 1, RouteTag::kLoss);
  EXPECT_TRUE(p.is_direct());

  // 100% probe loss at node 0, yet direct-path data still delivers.
  int ok = 0;
  for (int s = 0; s < 100; ++s) {
    sim.sched.run_until(at_s(1290 + s));
    ok += sim.overlay.send(PathSpec{0, 1, kDirectVia}, at_s(1290 + s)).delivered() ? 1 : 0;
  }
  EXPECT_GT(ok, 95);
  EXPECT_GT(sim.net.stats().dropped_injected, 0);
}

TEST(OverlayDegradation, LsaLossExpiresEntriesAndDegradesView) {
  FaultSchedule sched;
  sched.lsa_loss(0, at_s(1200), Duration::minutes(10));
  const FaultInjector inj(sched, Sim::make_topo(), Duration::hours(1));
  Sim sim(&inj, Duration::hours(1));

  sim.sched.run_until(at_s(1200));
  EXPECT_FALSE(sim.overlay.router(0).view_degraded(at_s(1200)));
  // After > entry_ttl (75 s) of suppressed advertisements node 0's rows
  // are stale and its router refuses to route indirectly.
  sim.sched.run_until(at_s(1300));
  EXPECT_TRUE(sim.overlay.router(0).view_degraded(at_s(1300)));
  EXPECT_TRUE(sim.overlay.route(0, 1, RouteTag::kLoss).is_direct());
  // Other nodes' views stay fresh.
  EXPECT_FALSE(sim.overlay.router(2).view_degraded(at_s(1300)));

  // Once the fault lifts, publications resume and the view heals.
  sim.sched.run_until(at_s(1200) + Duration::minutes(10) + Duration::seconds(60));
  EXPECT_FALSE(
      sim.overlay.router(0).view_degraded(at_s(1200) + Duration::minutes(10) + Duration::seconds(60)));
}

TEST(OverlayDegradation, CrashedNodeStopsForwardingAndDelivery) {
  FaultSchedule sched;
  sched.crash(2, at_s(1200), Duration::minutes(5));
  const FaultInjector inj(sched, Sim::make_topo(), Duration::hours(1));
  Sim sim(&inj, Duration::hours(1));

  sim.sched.run_until(at_s(1210));
  EXPECT_FALSE(sim.overlay.node_up(2, at_s(1210)));
  // Packets through the crashed forwarder die; direct ones don't.
  EXPECT_FALSE(sim.overlay.send(PathSpec{0, 1, 2}, at_s(1210)).delivered());
  // Delivery to the crashed destination also fails.
  EXPECT_FALSE(sim.overlay.send(PathSpec{0, 2, kDirectVia}, at_s(1210)).delivered());
  // After restart the node forwards again.
  sim.sched.run_until(at_s(1200) + Duration::minutes(6));
  EXPECT_TRUE(sim.overlay.node_up(2, at_s(1200) + Duration::minutes(6)));
}

}  // namespace
}  // namespace ronpath
