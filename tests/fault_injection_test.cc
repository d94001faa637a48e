#include "fault/injector.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/testbed.h"
#include "fault/scenarios.h"
#include "util/rng.h"

namespace ronpath {
namespace {

TimePoint at_s(std::int64_t s) { return TimePoint::epoch() + Duration::seconds(s); }

Topology small_topo(std::size_t n = 12) {
  Topology full = testbed_2003();
  std::vector<Site> subset(full.sites().begin(), full.sites().begin() + static_cast<long>(n));
  return Topology(std::move(subset));
}

TEST(FaultInjector, SiteScopeSelectsComponents) {
  const Topology topo = small_topo();
  FaultSchedule sched;
  sched.down_site(2, at_s(100), Duration::seconds(50), FaultScope::kSiteAccess);
  const FaultInjector inj(sched, topo, Duration::hours(1));

  const TimePoint inside = at_s(120);
  EXPECT_TRUE(inj.component_down(topo.site_index(2, SiteComp::kUp), inside));
  EXPECT_TRUE(inj.component_down(topo.site_index(2, SiteComp::kDown), inside));
  EXPECT_FALSE(inj.component_down(topo.site_index(2, SiteComp::kProvOut), inside));
  EXPECT_FALSE(inj.component_down(topo.site_index(2, SiteComp::kProvIn), inside));
  // Other sites untouched.
  EXPECT_FALSE(inj.component_down(topo.site_index(3, SiteComp::kUp), inside));
  // Window boundaries: [start, end).
  EXPECT_FALSE(inj.component_down(topo.site_index(2, SiteComp::kUp), at_s(100) - Duration::nanos(1)));
  EXPECT_TRUE(inj.component_down(topo.site_index(2, SiteComp::kUp), at_s(100)));
  EXPECT_FALSE(inj.component_down(topo.site_index(2, SiteComp::kUp), at_s(150)));
}

TEST(FaultInjector, SiteAllCoversAccessAndProvider) {
  const Topology topo = small_topo();
  FaultSchedule sched;
  sched.down_site(1, at_s(10), Duration::seconds(10));
  const FaultInjector inj(sched, topo, Duration::hours(1));
  for (SiteComp c : {SiteComp::kUp, SiteComp::kDown, SiteComp::kProvOut, SiteComp::kProvIn}) {
    EXPECT_TRUE(inj.component_down(topo.site_index(1, c), at_s(15)));
  }
  EXPECT_EQ(inj.faulted_component_count(), 4u);
}

TEST(FaultInjector, LinkScopeIsDirectional) {
  const Topology topo = small_topo();
  FaultSchedule sched;
  sched.down_link(0, 1, at_s(10), Duration::seconds(10));
  const FaultInjector inj(sched, topo, Duration::hours(1));
  EXPECT_TRUE(inj.component_down(topo.core_index(0, 1), at_s(15)));
  EXPECT_FALSE(inj.component_down(topo.core_index(1, 0), at_s(15)));
}

TEST(FaultInjector, PeriodicFaultsExpandToHorizon) {
  const Topology topo = small_topo();
  FaultSchedule sched;
  sched.flap_link(0, 1, Duration::seconds(120), Duration::seconds(15));
  const FaultInjector inj(sched, topo, Duration::seconds(600));
  const std::size_t link = topo.core_index(0, 1);
  // Occurrences at 120, 240, 360, 480 (each 15 s long); not before the
  // first period mark, not between activations.
  EXPECT_FALSE(inj.component_down(link, at_s(60)));
  for (int k = 1; k <= 4; ++k) {
    EXPECT_TRUE(inj.component_down(link, at_s(120 * k + 5))) << k;
    EXPECT_FALSE(inj.component_down(link, at_s(120 * k + 20))) << k;
  }
}

TEST(FaultInjector, NodeFaultTablesAreIndependent) {
  const Topology topo = small_topo();
  FaultSchedule sched;
  sched.blackhole_probes(3, at_s(10), Duration::seconds(10));
  sched.lsa_loss(4, at_s(10), Duration::seconds(10));
  sched.crash(5, at_s(10), Duration::seconds(10));
  const FaultInjector inj(sched, topo, Duration::hours(1));
  const TimePoint t = at_s(15);
  EXPECT_TRUE(inj.probe_blackhole(3, t));
  EXPECT_FALSE(inj.lsa_suppressed(3, t));
  EXPECT_FALSE(inj.node_crashed(3, t));
  EXPECT_TRUE(inj.lsa_suppressed(4, t));
  EXPECT_TRUE(inj.node_crashed(5, t));
  EXPECT_FALSE(inj.probe_blackhole(5, t));
  // No injected component faults at all.
  EXPECT_EQ(inj.faulted_component_count(), 0u);
}

TEST(FaultInjector, OverlappingWindowsMerge) {
  const Topology topo = small_topo();
  FaultSchedule sched;
  sched.down_link(0, 1, at_s(10), Duration::seconds(20));
  sched.down_link(0, 1, at_s(20), Duration::seconds(20));
  const FaultInjector inj(sched, topo, Duration::hours(1));
  const std::size_t link = topo.core_index(0, 1);
  for (int s = 10; s < 40; ++s) EXPECT_TRUE(inj.component_down(link, at_s(s))) << s;
  EXPECT_FALSE(inj.component_down(link, at_s(40)));
}

TEST(FaultInjector, RejectsOutOfTopologyIds) {
  const Topology topo = small_topo(4);
  FaultSchedule site_sched;
  site_sched.down_site(4, at_s(0), Duration::seconds(1));
  EXPECT_THROW(FaultInjector(site_sched, topo, Duration::hours(1)), std::runtime_error);
  FaultSchedule node_sched;
  node_sched.crash(17, at_s(0), Duration::seconds(1));
  EXPECT_THROW(FaultInjector(node_sched, topo, Duration::hours(1)), std::runtime_error);
  FaultSchedule link_sched;
  link_sched.down_link(0, 9, at_s(0), Duration::seconds(1));
  EXPECT_THROW(FaultInjector(link_sched, topo, Duration::hours(1)), std::runtime_error);
}

// The builders skip the DSL's a->a check; a self-link has no core
// segment of its own, so the injector must refuse it rather than map it
// onto a neighbouring one.
TEST(FaultInjector, RejectsSelfLink) {
  const Topology topo = small_topo(4);
  FaultSchedule down;
  down.down_link(3, 3, at_s(0), Duration::seconds(1));
  try {
    const FaultInjector inj(down, topo, Duration::hours(1));
    ADD_FAILURE() << "self-link accepted; " << inj.faulted_component_count()
                  << " component(s) faulted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("3->3"), std::string::npos) << e.what();
  }
  FaultSchedule flap;
  flap.flap_link(3, 3, Duration::seconds(60), Duration::seconds(5));
  EXPECT_THROW(FaultInjector(flap, topo, Duration::hours(1)), std::runtime_error);
}

// ----------------------------------------------------------- network hook

TEST(NetworkFaultHook, ComponentBlackoutDropsAsInjected) {
  const Topology topo = small_topo();
  FaultSchedule sched;
  sched.down_site(1, at_s(600), Duration::seconds(300));
  const FaultInjector inj(sched, topo, Duration::hours(2));
  Network net(topo, NetConfig::profile_2003(), Duration::hours(2), Rng(7));
  net.set_fault_hook(&inj);

  // During the blackout nothing reaches site 1 from anywhere.
  int delivered = 0;
  for (int i = 0; i < 100; ++i) {
    const auto r = net.transmit(PathSpec{0, 1, kDirectVia}, at_s(610 + i));
    delivered += r.delivered ? 1 : 0;
  }
  EXPECT_EQ(delivered, 0);
  EXPECT_GT(net.stats().dropped_injected, 0);

  // Before and after the window the path works as usual.
  int ok = 0;
  for (int i = 0; i < 100; ++i) {
    ok += net.transmit(PathSpec{0, 1, kDirectVia}, at_s(910 + i)).delivered ? 1 : 0;
  }
  EXPECT_GT(ok, 90);
}

TEST(NetworkFaultHook, ProbeBlackholeSparesData) {
  const Topology topo = small_topo();
  FaultSchedule sched;
  sched.blackhole_probes(0, at_s(600), Duration::seconds(300));
  const FaultInjector inj(sched, topo, Duration::hours(2));
  Network net(topo, NetConfig::profile_2003(), Duration::hours(2), Rng(7));
  net.set_fault_hook(&inj);

  int data_ok = 0;
  for (int i = 0; i < 200; ++i) {
    const TimePoint t = at_s(610 + i);
    // Every control probe touching node 0 dies, deterministically, with
    // the injected cause; data on the same path is untouched.
    const auto probe = net.transmit(PathSpec{0, 1, kDirectVia}, t, TrafficClass::kProbe);
    EXPECT_FALSE(probe.delivered);
    EXPECT_EQ(probe.cause, DropCause::kInjected);
    const auto reverse = net.transmit(PathSpec{1, 0, kDirectVia}, t, TrafficClass::kProbe);
    EXPECT_FALSE(reverse.delivered);
    data_ok += net.transmit(PathSpec{0, 1, kDirectVia}, t, TrafficClass::kData).delivered ? 1 : 0;
  }
  EXPECT_GT(data_ok, 190);  // only organic loss
  EXPECT_EQ(net.stats().dropped_injected, 400);

  // Outside the window probes flow again.
  EXPECT_EQ(net.transmit(PathSpec{0, 1, kDirectVia}, at_s(1000), TrafficClass::kProbe).cause ==
                DropCause::kInjected,
            false);
}

TEST(NetworkFaultHook, DetachRestoresCleanPath) {
  const Topology topo = small_topo();
  FaultSchedule sched;
  sched.down_site(1, at_s(0), Duration::hours(1));
  const FaultInjector inj(sched, topo, Duration::hours(2));
  Network net(topo, NetConfig::profile_2003(), Duration::hours(2), Rng(7));
  net.set_fault_hook(&inj);
  EXPECT_FALSE(net.transmit(PathSpec{0, 1, kDirectVia}, at_s(10)).delivered);
  net.set_fault_hook(nullptr);
  int ok = 0;
  for (int i = 0; i < 50; ++i) {
    ok += net.transmit(PathSpec{0, 1, kDirectVia}, at_s(11 + i)).delivered ? 1 : 0;
  }
  EXPECT_GT(ok, 45);
}

// ------------------------------------------------------- canonical suite

TEST(Scenarios, AllCanonicalScenariosParseAndCompile) {
  const Topology topo = small_topo();
  for (const Scenario& s : canonical_scenarios()) {
    std::string error;
    const auto sched = FaultSchedule::parse(s.dsl, &error);
    ASSERT_TRUE(sched.has_value()) << s.name << ": " << error;
    EXPECT_FALSE(sched->empty()) << s.name;
    EXPECT_NO_THROW(FaultInjector(*sched, topo, Duration::hours(2))) << s.name;
  }
  EXPECT_NE(find_scenario("single-site-blackout"), nullptr);
  EXPECT_EQ(find_scenario("no-such-scenario"), nullptr);
}

TEST(Scenarios, OneShotScenariosMatchSharedTimeline) {
  for (const Scenario& s : canonical_scenarios()) {
    const auto sched = FaultSchedule::parse(s.dsl);
    ASSERT_TRUE(sched.has_value()) << s.name;
    for (const FaultSpec& f : sched->faults()) {
      if (f.periodic()) continue;
      EXPECT_EQ(f.start, kFaultStart) << s.name;
      EXPECT_EQ(f.duration, kFaultDuration) << s.name;
    }
  }
}

TEST(FaultInjector, MergedWindowCounterCountsFolds) {
  const Topology topo = small_topo();
  FaultSchedule sched;
  sched.down_link(0, 1, at_s(10), Duration::seconds(20));   // 10..30
  sched.down_link(0, 1, at_s(20), Duration::seconds(20));   // overlaps -> fold
  sched.crash(2, at_s(0), Duration::seconds(30));           // 0..30
  sched.crash(2, at_s(10), Duration::seconds(30));          // overlaps -> fold
  sched.crash(2, at_s(100), Duration::seconds(5));          // disjoint, no fold
  const FaultInjector inj(sched, topo, Duration::hours(1));
  EXPECT_EQ(inj.merged_window_count(), 2);
}

TEST(FaultInjector, CanonicalScenariosHaveNoMergedWindows) {
  // The report header's merge warning stays silent for the canonical
  // suite; a nonzero count here would change pinned golden output.
  const Topology topo = small_topo();
  for (const Scenario& s : canonical_scenarios()) {
    const auto sched = FaultSchedule::parse(s.dsl);
    ASSERT_TRUE(sched.has_value()) << s.name;
    const FaultInjector inj(*sched, topo, Duration::hours(2));
    EXPECT_EQ(inj.merged_window_count(), 0) << s.name;
  }
}

}  // namespace
}  // namespace ronpath
