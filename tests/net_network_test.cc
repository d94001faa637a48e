#include "net/network.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/testbed.h"
#include "net/scale_topology.h"
#include "snapshot/codec.h"
#include "util/rng.h"

namespace ronpath {
namespace {

Network make_net(std::uint64_t seed = 7, Duration horizon = Duration::hours(4)) {
  return Network(testbed_2003(), NetConfig::profile_2003(), horizon, Rng(seed));
}

TEST(Network, DeliversMostPackets) {
  Network net = make_net();
  int delivered = 0;
  const int n = 20'000;
  Rng rng(1);
  for (int i = 0; i < n; ++i) {
    const NodeId a = static_cast<NodeId>(rng.next_below(30));
    NodeId b = a;
    while (b == a) b = static_cast<NodeId>(rng.next_below(30));
    const auto r = net.transmit(PathSpec{a, b, kDirectVia},
                                TimePoint::epoch() + Duration::millis(i * 5));
    delivered += r.delivered ? 1 : 0;
  }
  // Loss should be well under 5% and nonzero-ish over 20k packets.
  EXPECT_GT(delivered, n * 95 / 100);
  EXPECT_EQ(net.stats().transmitted, n);
  EXPECT_EQ(net.stats().delivered, delivered);
}

TEST(Network, LatencyAtLeastBaseLatency) {
  Network net = make_net();
  Rng rng(2);
  for (int i = 0; i < 2'000; ++i) {
    const NodeId a = static_cast<NodeId>(rng.next_below(30));
    NodeId b = a;
    while (b == a) b = static_cast<NodeId>(rng.next_below(30));
    const PathSpec path{a, b, kDirectVia};
    const auto r = net.transmit(path, TimePoint::epoch() + Duration::millis(i * 20));
    if (r.delivered) {
      EXPECT_GE(r.latency, net.base_latency(path));
    }
  }
}

TEST(Network, IndirectBaseLatencyExceedsLegs) {
  Network net = make_net();
  const PathSpec direct{0, 1, kDirectVia};
  const PathSpec via{0, 1, 2};
  // Indirect base latency is the sum of the two legs plus forwarding.
  const Duration leg1 = net.base_latency(PathSpec{0, 2, kDirectVia});
  const Duration leg2 = net.base_latency(PathSpec{2, 1, kDirectVia});
  EXPECT_EQ(net.base_latency(via), leg1 + leg2 + net.config().forward_delay);
  EXPECT_GT(net.base_latency(via), Duration::zero());
  EXPECT_GT(net.base_latency(direct), Duration::zero());
}

TEST(Network, CoreStretchRespectsMinimum) {
  Network net = make_net();
  for (NodeId a = 0; a < 30; ++a) {
    for (NodeId b = 0; b < 30; ++b) {
      if (a == b) continue;
      EXPECT_GE(net.core_stretch(a, b), net.config().core_stretch_min);
    }
  }
}

TEST(Network, DeterministicAcrossInstances) {
  Network n1 = make_net(42);
  Network n2 = make_net(42);
  Rng rng(5);
  for (int i = 0; i < 5'000; ++i) {
    const NodeId a = static_cast<NodeId>(rng.next_below(30));
    NodeId b = a;
    while (b == a) b = static_cast<NodeId>(rng.next_below(30));
    const TimePoint t = TimePoint::epoch() + Duration::millis(i * 7);
    const auto r1 = n1.transmit(PathSpec{a, b, kDirectVia}, t);
    const auto r2 = n2.transmit(PathSpec{a, b, kDirectVia}, t);
    EXPECT_EQ(r1.delivered, r2.delivered);
    if (r1.delivered) {
      EXPECT_EQ(r1.latency, r2.latency);
    }
  }
}

// Components are built on first traversal from forks keyed by component
// index, so building every one of them up front, in reverse order,
// changes no draw any packet sees.
TEST(Network, BuildOrderDoesNotChangeDraws) {
  Network fresh = make_net();
  ASSERT_EQ(fresh.materialized_components(), 0u);
  const auto first = fresh.transmit(PathSpec{0, 1, kDirectVia},
                                    TimePoint::epoch() + Duration::seconds(1));
  ASSERT_TRUE(first.delivered);
  // Access up, provider egress, core, provider ingress, access down.
  EXPECT_EQ(fresh.materialized_components(), 5u);

  Network prebuilt = make_net();
  Network on_demand = make_net();
  for (std::size_t ci = prebuilt.component_count(); ci-- > 0;) (void)prebuilt.component(ci);
  ASSERT_EQ(prebuilt.materialized_components(), prebuilt.component_count());

  std::set<std::size_t> reached;
  Rng rng(13);
  for (int i = 0; i < 400; ++i) {
    const NodeId a = static_cast<NodeId>(rng.next_below(30));
    NodeId b = a;
    while (b == a) b = static_cast<NodeId>(rng.next_below(30));
    PathSpec path{a, b, kDirectVia};
    if (i % 3 == 0) {  // every third packet rides a one-relay alternate
      NodeId via = a;
      while (via == a || via == b) via = static_cast<NodeId>(rng.next_below(30));
      path.via = via;
    }
    const TimePoint t = TimePoint::epoch() + Duration::millis(i * 7);
    const auto r1 = prebuilt.transmit(path, t);
    const auto r2 = on_demand.transmit(path, t);
    ASSERT_EQ(r1.delivered, r2.delivered) << "packet " << i;
    ASSERT_EQ(r1.cause, r2.cause) << "packet " << i;
    ASSERT_EQ(r1.latency, r2.latency) << "packet " << i;
    // A drop ends the packet's walk at the dropping component.
    for (const auto& hop : on_demand.topology().hops(path)) {
      reached.insert(hop.component);
      if (r2.lost() && hop.component == r2.drop_component) break;
    }
  }
  EXPECT_TRUE(prebuilt.stats() == on_demand.stats());
  // The stream saw drops, so some walks ended early.
  EXPECT_LT(on_demand.stats().delivered, on_demand.stats().transmitted);
  EXPECT_EQ(on_demand.materialized_components(), reached.size());
  EXPECT_LT(on_demand.materialized_components(), on_demand.component_count());
  EXPECT_EQ(prebuilt.materialized_components(), prebuilt.component_count());
}

// Core segments live in a sparse index that starts small and doubles as
// segments are built. Whatever order the components are built in, and
// however often the index grew on the way, the saved list is the same
// ascending (index, state) list, restores into a fresh network and
// saves back to the same bytes.
TEST(Network, SparseCoreIndexSavesInIndexOrder) {
  const auto make = [] {
    return Network(scale_topology({.nodes = 200, .seed = 3}), NetConfig::profile_2003(),
                   Duration::hours(1), Rng(17));
  };
  Network shuffled = make();
  Network ascending = make();
  std::set<std::size_t> ids;
  Rng rng(29);
  while (ids.size() < 3'000) ids.insert(rng.next_below(shuffled.component_count()));
  std::vector<std::size_t> order(ids.begin(), ids.end());
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  for (const std::size_t ci : order) (void)shuffled.component(ci);
  for (const std::size_t ci : order) (void)shuffled.component(ci);  // found, not rebuilt
  for (const std::size_t ci : ids) (void)ascending.component(ci);
  ASSERT_EQ(shuffled.materialized_components(), ids.size());

  const auto save = [](const Network& net) {
    snap::Encoder e;
    net.save_state(e);
    return e.take();
  };
  const std::vector<std::uint8_t> bytes = save(shuffled);
  EXPECT_EQ(bytes, save(ascending));

  Network restored = make();
  snap::Decoder d(bytes);
  restored.restore_state(d);
  EXPECT_TRUE(d.done());
  EXPECT_EQ(restored.materialized_components(), ids.size());
  EXPECT_EQ(save(restored), bytes);
  std::vector<std::string> violations;
  restored.check_invariants(violations);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

// Back-to-back packets share burst fate: conditional loss far above the
// unconditional rate (the paper's central same-path observation).
TEST(Network, BackToBackLossIsCorrelated) {
  Network net = make_net(11, Duration::hours(7));
  Rng rng(3);
  std::int64_t first_lost = 0;
  std::int64_t both_lost = 0;
  const std::int64_t n = 300'000;
  for (std::int64_t i = 0; i < n; ++i) {
    const NodeId a = static_cast<NodeId>(rng.next_below(30));
    NodeId b = a;
    while (b == a) b = static_cast<NodeId>(rng.next_below(30));
    const TimePoint t = TimePoint::epoch() + Duration::micros(i * 80'000);
    const auto r1 = net.transmit(PathSpec{a, b, kDirectVia}, t);
    if (!r1.delivered) {
      ++first_lost;
      const auto r2 = net.transmit(PathSpec{a, b, kDirectVia}, t);
      if (!r2.delivered) ++both_lost;
    }
  }
  ASSERT_GT(first_lost, 50);
  const double clp = static_cast<double>(both_lost) / static_cast<double>(first_lost);
  const double base = static_cast<double>(first_lost) / static_cast<double>(n);
  EXPECT_GT(clp, 0.4);
  EXPECT_GT(clp, 20.0 * base);
}

// A 500 ms gap should mostly de-correlate losses (Bolot's observation).
TEST(Network, HalfSecondGapDecorrelates) {
  Network net = make_net(13, Duration::hours(7));
  Rng rng(5);
  std::int64_t first_lost = 0;
  std::int64_t both_lost = 0;
  const std::int64_t n = 300'000;
  for (std::int64_t i = 0; i < n; ++i) {
    const NodeId a = static_cast<NodeId>(rng.next_below(30));
    NodeId b = a;
    while (b == a) b = static_cast<NodeId>(rng.next_below(30));
    const TimePoint t = TimePoint::epoch() + Duration::micros(i * 80'000);
    const auto r1 = net.transmit(PathSpec{a, b, kDirectVia}, t);
    if (!r1.delivered) {
      ++first_lost;
      const auto r2 = net.transmit(PathSpec{a, b, kDirectVia}, t + Duration::millis(500));
      if (!r2.delivered) ++both_lost;
    }
  }
  ASSERT_GT(first_lost, 50);
  const double clp = static_cast<double>(both_lost) / static_cast<double>(first_lost);
  // Far below the back-to-back CLP; outages/episodes keep a floor.
  EXPECT_LT(clp, 0.45);
}

TEST(Network, CornellIncidentInflatesLatency) {
  // Build with the 14-day schedule and look inside the Cornell window.
  const Topology topo = testbed_2003();
  Network net(topo, NetConfig::profile_2003(), Duration::days(8), Rng(17));
  const NodeId cornell = *topo.find("Cornell");
  const NodeId mit = *topo.find("MIT");
  const PathSpec path{mit, cornell, kDirectVia};

  RunningStat before;
  for (int i = 0; i < 3'000; ++i) {
    const auto r = net.transmit(path, TimePoint::epoch() + Duration::days(1) +
                                          Duration::millis(i * 50));
    if (r.delivered) before.add(r.latency.to_millis_f());
  }
  RunningStat during;
  for (int i = 0; i < 3'000; ++i) {
    const auto r = net.transmit(path, TimePoint::epoch() + Duration::days(6) +
                                          Duration::hours(2) + Duration::millis(i * 50));
    if (r.delivered) during.add(r.latency.to_millis_f());
  }
  ASSERT_GT(before.count(), 100);
  ASSERT_GT(during.count(), 100);
  // The pathology hits ~80% of Cornell transit paths with +700 ms.
  EXPECT_GT(during.mean(), before.mean() + 100.0);
}

TEST(Network, StatsCausesSumToDrops) {
  Network net = make_net(19);
  Rng rng(7);
  for (std::int64_t i = 0; i < 40'000; ++i) {
    const NodeId a = static_cast<NodeId>(rng.next_below(30));
    NodeId b = a;
    while (b == a) b = static_cast<NodeId>(rng.next_below(30));
    (void)net.transmit(PathSpec{a, b, kDirectVia},
                       TimePoint::epoch() + Duration::micros(i * 120'000));
  }
  const auto& s = net.stats();
  EXPECT_EQ(s.transmitted - s.delivered,
            s.dropped_random + s.dropped_burst + s.dropped_outage);
}

TEST(DropCause, Names) {
  EXPECT_EQ(to_string(DropCause::kNone), "none");
  EXPECT_EQ(to_string(DropCause::kRandom), "random");
  EXPECT_EQ(to_string(DropCause::kBurst), "burst");
  EXPECT_EQ(to_string(DropCause::kOutage), "outage");
  EXPECT_EQ(to_string(DropCause::kInjected), "injected");
}

// transmit() promises the roughly-monotone query contract of
// loss_process.h: sends may lag the newest send by up to kQuerySafety.
#ifdef NDEBUG
TEST(Network, FarPastTransmitClampsInsteadOfCrashing) {
  Network net = make_net(23);
  (void)net.transmit(PathSpec{0, 1, kDirectVia}, TimePoint::epoch() + Duration::hours(1));
  // A query a full hour out of order would read pruned component history;
  // release builds clamp it to the retained window and answer normally.
  int ok = 0;
  for (int i = 0; i < 200; ++i) {
    ok += net.transmit(PathSpec{0, 1, kDirectVia}, TimePoint::epoch() + Duration::seconds(i))
                  .delivered
              ? 1
              : 0;
  }
  EXPECT_GT(ok, 150);
  EXPECT_EQ(net.stats().transmitted, 201);
}
#else
TEST(NetworkDeathTest, FarPastTransmitAssertsInDebug) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Network net = make_net(23);
  (void)net.transmit(PathSpec{0, 1, kDirectVia}, TimePoint::epoch() + Duration::hours(1));
  EXPECT_DEATH((void)net.transmit(PathSpec{0, 1, kDirectVia}, TimePoint::epoch()),
               "too far in the past");
}
#endif

}  // namespace
}  // namespace ronpath
